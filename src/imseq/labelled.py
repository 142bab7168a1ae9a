"""Labelled sequents, their rule schemes and their proof checker.

A sequent is ``rel ; ante |- succ`` with a multiset of relational atoms
``w R u``, a multiset of labelled formulas ``w: A``, and exactly one
succedent formula.  Proof nodes name a rule and carry explicit params
(principal formula, eigenvariable, chains, witness path), so checking
is plain structural matching with no search; ``proof.check`` walks the
tree and ``premises_of_labelled`` matches one rule instance.

Modes: ``base`` uses the relational rules (diaR, boxL, S), ``refined``
replaces those three with the path-conditioned propagation rules (pdia,
pbox), ``either`` accepts the union.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .formula import (Atom, AxiomSet, Bot, Box, Dia, Formula, Imp, And, Or,
                      ParseError, parse_formula, render_formula)
from .grammar import (PropGraph, PropPath, Sym, derives, grammar_from_axioms,
                      graph_from_pairs)
from .proof import (CheckResult, Proof, RuleError, _p_chain, _p_formula,
                    _p_int, _p_path, _p_str, check)

_LABEL = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


@dataclass(frozen=True, eq=False)
class LabelledSequent:
    rel: tuple    # of (label, label)
    ante: tuple   # of (label, Formula)
    succ: tuple   # single (label, Formula)

    def __post_init__(self):
        for w, u in self.rel:
            if not (isinstance(w, str) and w and isinstance(u, str) and u):
                raise ValueError(f"bad relational atom {(w, u)!r}")
        for w, _ in self.ante + (self.succ,):
            if not (isinstance(w, str) and w):
                raise ValueError(f"bad label {w!r}")

    @cached_property
    def _key(self):
        return (
            tuple(sorted(f"{w} R {u}" for w, u in self.rel)),
            tuple(sorted(f"{w}: {render_formula(a)}" for w, a in self.ante)),
            f"{self.succ[0]}: {render_formula(self.succ[1])}",
        )

    def __eq__(self, other):
        if not isinstance(other, LabelledSequent):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def labels(self) -> set:
        out = set()
        for w, u in self.rel:
            out.add(w)
            out.add(u)
        for w, _ in self.ante:
            out.add(w)
        out.add(self.succ[0])
        return out

    def __str__(self) -> str:
        return render_labelled_sequent(self)


def lseq(rel: Iterable = (), ante: Iterable = (), succ: tuple = None) -> LabelledSequent:
    if succ is None:
        raise ValueError("a labelled sequent needs a succedent")
    return LabelledSequent(tuple(tuple(r) for r in rel),
                           tuple(tuple(a) for a in ante),
                           tuple(succ))


def render_labelled_sequent(seq: LabelledSequent) -> str:
    rel = ", ".join(f"{w} R {u}" for w, u in seq.rel)
    ante = ", ".join(f"{w}: {render_formula(a)}" for w, a in seq.ante)
    succ = f"{seq.succ[0]}: {render_formula(seq.succ[1])}"
    return " ".join(part for part in (rel, ";", ante, "|-", succ) if part)


_REL_ATOM = re.compile(r"([a-z][a-zA-Z0-9_]*)\s+R\s+([a-z][a-zA-Z0-9_]*)\Z")


def _parse_labform(chunk: str) -> tuple:
    if ":" not in chunk:
        raise ParseError(f"expected 'label: formula' in {chunk!r}")
    lab, _, rest = chunk.partition(":")
    lab = lab.strip()
    if not _LABEL.match(lab):
        raise ParseError(f"bad label {lab!r}")
    return (lab, parse_formula(rest))


def parse_rel_atoms(text: str) -> tuple:
    """Comma-separated relational atoms 'w R u' as (w, u) pairs."""
    rel = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _REL_ATOM.match(chunk)
        if not m:
            raise ParseError(f"bad relational atom {chunk!r}")
        rel.append((m.group(1), m.group(2)))
    return tuple(rel)


def parse_labelled_sequent(text: str) -> LabelledSequent:
    halves = text.split("|-")
    if len(halves) != 2:
        raise ParseError("expected exactly one '|-'")
    left, succ_text = halves
    sides = left.split(";")
    if len(sides) != 2:
        raise ParseError("expected 'rel ; ante' before '|-'")
    rel = parse_rel_atoms(sides[0])
    ante = [_parse_labform(c) for c in sides[1].split(",") if c.strip()]
    return LabelledSequent(rel, tuple(ante), _parse_labform(succ_text))


LabelledProof = Proof


BASE_RULES = frozenset({
    "id", "botL", "andL", "orL", "impL", "andR", "orR", "impR",
    "diaL", "diaR", "boxR", "boxL", "d", "S",
})
REFINED_RULES = (BASE_RULES - {"diaR", "boxL", "S"}) | {"pdia", "pbox"}
MODE_RULES = {
    "base": BASE_RULES,
    "refined": REFINED_RULES,
    "either": BASE_RULES | REFINED_RULES,
}


def _find_once(items: tuple, wanted) -> int:
    for i, x in enumerate(items):
        if x == wanted:
            return i
    raise RuleError(f"{_show(wanted)} not present")


def _show(item) -> str:
    if len(item) == 2 and isinstance(item[1], Formula):
        return f"{item[0]}: {render_formula(item[1])}"
    return f"{item[0]} R {item[1]}"


def prop_graph_of(seq: LabelledSequent) -> PropGraph:
    return graph_from_pairs(seq.rel, extra_nodes=seq.labels())


def _check_path(seq: LabelledSequent, path: PropPath, start: str,
                ax: AxiomSet) -> None:
    """RuleError unless path starts at start, walks the conclusion's
    propagation graph (a d step along a relational atom, a b step
    against one; a walk with no steps stays at a label), and spells a
    string derivable from the forward letter."""
    if path.start != start:
        raise RuleError(f"path must start at {start!r}, starts at {path.start!r}")
    rel = set(seq.rel)
    steps = zip(path.nodes, path.steps, path.nodes[1:])
    if not (all(((a, b) if c is Sym.FWD else (b, a)) in rel for a, c, b in steps)
            and (path.steps or path.start in seq.labels())):
        raise RuleError("path does not lie in the conclusion's graph")
    g = grammar_from_axioms(ax)
    if not derives(g, Sym.FWD, path.steps):
        raise RuleError(f"path string {path.string!r} not derivable from the forward letter")


def _principal(seq: LabelledSequent, params: dict, cls) -> tuple:
    w = _p_str(params, "world")
    f = _p_formula(params, "formula")
    if not isinstance(f, cls):
        raise RuleError(f"principal {render_formula(f)!r} has the wrong main connective")
    i = _find_once(seq.ante, (w, f))
    return w, f, i


def _fresh(seq: LabelledSequent, params: dict, key: str = "fresh") -> str:
    u = _p_str(params, key)
    if u in seq.labels():
        raise RuleError(f"eigenvariable {u!r} occurs in the conclusion")
    return u


def premises_of_labelled(seq: LabelledSequent, rule: str, params: dict,
                         ax: AxiomSet) -> list:
    """Premises of a backward rule application, or RuleError.

    Validates the whole instance: principal membership, side conditions,
    eigenvariables, chains, and propagation paths.
    """
    rel, ante, succ = seq.rel, seq.ante, seq.succ
    w_s, f_s = succ

    if rule == "id":
        if not isinstance(f_s, Atom):
            raise RuleError("id needs an atomic succedent")
        _find_once(ante, succ)
        return []

    if rule == "botL":
        if not any(isinstance(a, Bot) for _, a in ante):
            raise RuleError("botL needs a falsum antecedent member")
        return []

    if rule == "andL":
        w, f, i = _principal(seq, params, And)
        new = ante[:i] + ((w, f.left), (w, f.right)) + ante[i + 1:]
        return [LabelledSequent(rel, new, succ)]

    if rule == "orL":
        w, f, i = _principal(seq, params, Or)
        return [
            LabelledSequent(rel, ante[:i] + ((w, f.left),) + ante[i + 1:], succ),
            LabelledSequent(rel, ante[:i] + ((w, f.right),) + ante[i + 1:], succ),
        ]

    if rule == "impL":
        w, f, i = _principal(seq, params, Imp)
        left = LabelledSequent(rel, ante, (w, f.left))
        right = LabelledSequent(rel, ante[:i] + ((w, f.right),) + ante[i + 1:], succ)
        return [left, right]

    if rule == "andR":
        if not isinstance(f_s, And):
            raise RuleError("andR needs a conjunctive succedent")
        return [LabelledSequent(rel, ante, (w_s, f_s.left)),
                LabelledSequent(rel, ante, (w_s, f_s.right))]

    if rule == "orR":
        if not isinstance(f_s, Or):
            raise RuleError("orR needs a disjunctive succedent")
        side = _p_str(params, "side")
        if side not in ("left", "right"):
            raise RuleError("param 'side' must be 'left' or 'right'")
        if "formula" in params and _p_formula(params, "formula") != f_s:
            raise RuleError("param 'formula' disagrees with the succedent")
        chosen = f_s.left if side == "left" else f_s.right
        return [LabelledSequent(rel, ante, (w_s, chosen))]

    if rule == "impR":
        if not isinstance(f_s, Imp):
            raise RuleError("impR needs an implicative succedent")
        if "formula" in params and _p_formula(params, "formula") != f_s:
            raise RuleError("param 'formula' disagrees with the succedent")
        return [LabelledSequent(rel, ante + ((w_s, f_s.left),), (w_s, f_s.right))]

    if rule == "diaL":
        w, f, i = _principal(seq, params, Dia)
        u = _fresh(seq, params)
        new = ante[:i] + ((u, f.body),) + ante[i + 1:]
        return [LabelledSequent(rel + ((w, u),), new, succ)]

    if rule == "diaR":
        if not isinstance(f_s, Dia):
            raise RuleError("diaR needs a diamond succedent")
        u = _p_str(params, "to")
        if "from" in params and _p_str(params, "from") != w_s:
            raise RuleError("param 'from' disagrees with the succedent label")
        if (w_s, u) not in rel:
            raise RuleError(f"diaR needs the atom {w_s} R {u}")
        return [LabelledSequent(rel, ante, (u, f_s.body))]

    if rule == "boxR":
        if not isinstance(f_s, Box):
            raise RuleError("boxR needs a box succedent")
        u = _fresh(seq, params)
        if "from" in params and _p_str(params, "from") != w_s:
            raise RuleError("param 'from' disagrees with the succedent label")
        return [LabelledSequent(rel + ((w_s, u),), ante, (u, f_s.body))]

    if rule == "boxL":
        w, f, i = _principal(seq, params, Box)
        u = _p_str(params, "to")
        if (w, u) not in rel:
            raise RuleError(f"boxL needs the atom {w} R {u}")
        return [LabelledSequent(rel, ante + ((u, f.body),), succ)]

    if rule == "d":
        if not ax.has_d:
            raise RuleError("rule d needs the seriality axiom")
        w = _p_str(params, "world")
        u = _fresh(seq, params)
        if w == u:
            raise RuleError("d needs distinct endpoint labels")
        return [LabelledSequent(rel + ((w, u),), ante, succ)]

    if rule == "S":
        n = _p_int(params, "n")
        k = _p_int(params, "k")
        if (n, k) not in ax.hsl:
            raise RuleError(f"pair ({n},{k}) not in the axiom set")
        cn = _p_chain(params, "chain_n", n + 1)
        ck = _p_chain(params, "chain_k", k + 1)
        if cn[0] != ck[0]:
            raise RuleError("chains must share their first label")
        rel_set = set(rel)
        for chain in (cn, ck):
            for a, b in zip(chain, chain[1:]):
                if (a, b) not in rel_set:
                    raise RuleError(f"chain atom {a} R {b} not present")
        return [LabelledSequent(rel + ((cn[-1], ck[-1]),), ante, succ)]

    if rule == "pdia":
        if not isinstance(f_s, Dia):
            raise RuleError("pdia needs a diamond succedent")
        path = _p_path(params, "path")
        _check_path(seq, path, w_s, ax)
        return [LabelledSequent(rel, ante, (path.end, f_s.body))]

    if rule == "pbox":
        w, f, i = _principal(seq, params, Box)
        u = _p_str(params, "to")
        path = _p_path(params, "path")
        if path.end != u:
            raise RuleError("param 'to' disagrees with the path's endpoint")
        _check_path(seq, path, w, ax)
        return [LabelledSequent(rel, ante + ((u, f.body),), succ)]

    raise RuleError(f"unknown rule {rule!r}")


def check_labelled(p: LabelledProof, ax: AxiomSet, mode: str = "base") -> CheckResult:
    """Validate every node of the proof against the chosen rule set."""
    if mode not in MODE_RULES:
        raise ValueError(f"unknown mode {mode!r}")
    return check(p,
                 lambda seq, rule, params: premises_of_labelled(seq, rule, params, ax),
                 MODE_RULES[mode], f"rule {{!r}} not in {mode} mode")
