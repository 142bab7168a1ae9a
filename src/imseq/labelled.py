"""Labelled sequents and their proof checker.

A sequent is ``rel ; ante |- succ`` with a multiset of relational atoms
``w R u``, a multiset of labelled formulas ``w: A``, and exactly one
succedent formula.  Proof nodes name a rule and carry explicit params
(principal formula, eigenvariable, chains, witness path), so checking
is plain structural matching with no search.

Modes: ``base`` uses the relational rules (diaR, boxL, S), ``refined``
replaces those three with the path-conditioned propagation rules (pdia,
pbox), ``either`` accepts the union.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .formula import (Atom, AxiomSet, Bot, Box, Dia, Formula, Imp, And, Or,
                      ParseError, parse_formula, render_formula)
from .grammar import (PropGraph, PropPath, Sym, derives,
                      grammar_from_axioms, graph_from_pairs, path_in_graph)

_LABEL = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class RuleError(ValueError):
    """A rule application that does not match its scheme."""


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


@dataclass(frozen=True, eq=False)
class LabelledProof:
    conclusion: LabelledSequent
    rule: str
    params: dict
    premises: tuple

    def height(self) -> int:
        return 1 + max((p.height() for p in self.premises), default=0)

    def count_rule(self, name: str) -> int:
        return (self.rule == name) + sum(p.count_rule(name) for p in self.premises)

    def nodes(self):
        yield self
        for p in self.premises:
            yield from p.nodes()


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    message: str = ""
    at: str = ""

    def __bool__(self) -> bool:
        return self.ok


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

RULE_ARITY = {
    "id": 0, "botL": 0,
    "andL": 1, "orL": 2, "impL": 2, "andR": 2, "orR": 1, "impR": 1,
    "diaL": 1, "diaR": 1, "boxR": 1, "boxL": 1,
    "d": 1, "S": 1, "pdia": 1, "pbox": 1,
}


def _p_str(params: dict, key: str) -> str:
    v = params.get(key)
    if not isinstance(v, str) or not v:
        raise RuleError(f"param {key!r} must be a nonempty string")
    return v


def _p_int(params: dict, key: str) -> int:
    v = params.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise RuleError(f"param {key!r} must be a nonnegative integer")
    return v


def _p_formula(params: dict, key: str) -> Formula:
    v = params.get(key)
    if not isinstance(v, str):
        raise RuleError(f"param {key!r} must be a formula string")
    try:
        return parse_formula(v)
    except ParseError as e:
        raise RuleError(f"param {key!r}: {e}") from e


def _p_chain(params: dict, key: str, length: int) -> list:
    v = params.get(key)
    if not isinstance(v, list) or len(v) != length or not all(
            isinstance(x, str) and x for x in v):
        raise RuleError(f"param {key!r} must list {length} labels")
    return v


def _p_path(params: dict, key: str) -> PropPath:
    v = params.get(key)
    if not isinstance(v, list):
        raise RuleError(f"param {key!r} must be a path list")
    try:
        return PropPath.from_list(v)
    except ValueError as e:
        raise RuleError(f"param {key!r}: {e}") from e


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
    if path.start != start:
        raise RuleError(f"path must start at {start!r}, starts at {path.start!r}")
    if not path_in_graph(prop_graph_of(seq), path):
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
    allowed = MODE_RULES[mode]

    def walk(node: LabelledProof, at: str) -> CheckResult:
        where = at or "root"
        if node.rule not in allowed:
            return CheckResult(False, f"rule {node.rule!r} not in {mode} mode", where)
        try:
            expected = premises_of_labelled(node.conclusion, node.rule,
                                            node.params, ax)
        except RuleError as e:
            return CheckResult(False, f"{node.rule}: {e}", where)
        if len(node.premises) != len(expected):
            return CheckResult(
                False,
                f"{node.rule}: expected {len(expected)} premises, got {len(node.premises)}",
                where)
        for i, (sub, want) in enumerate(zip(node.premises, expected)):
            if sub.conclusion != want:
                return CheckResult(
                    False,
                    f"{node.rule}: premise {i} is {sub.conclusion}, expected {want}",
                    where)
            r = walk(sub, f"{at}.{i}" if at else str(i))
            if not r:
                return r
        return CheckResult(True)

    return walk(p, "")


def conclusion_of_labelled(rule: str, params: dict,
                           premises: Sequence[LabelledSequent],
                           ax: AxiomSet) -> LabelledSequent:
    """Forward application: rebuild the conclusion, then verify it.

    The candidate conclusion is assembled from the premises and params,
    then premises_of_labelled must reproduce exactly the given premises.
    Zero-premise rules have no forward form here; leaves are built
    directly by callers.
    """
    if RULE_ARITY.get(rule, -1) != len(premises):
        raise RuleError(f"rule {rule!r} takes {RULE_ARITY.get(rule)} premises")
    if not premises:
        raise RuleError(f"rule {rule!r} has no forward form")

    def without(items: tuple, wanted) -> tuple:
        i = _find_once(items, wanted)
        return items[:i] + items[i + 1:]

    def replace(items: tuple, wanted, new) -> tuple:
        i = _find_once(items, wanted)
        return items[:i] + (new,) + items[i + 1:]

    p0 = premises[0]

    if rule == "andL":
        w = _p_str(params, "world")
        f = _p_formula(params, "formula")
        if not isinstance(f, And):
            raise RuleError("andL needs a conjunction param")
        ante = without(p0.ante, (w, f.left))
        ante = replace(ante, (w, f.right), (w, f))
        cand = LabelledSequent(p0.rel, ante, p0.succ)
    elif rule == "orL":
        w = _p_str(params, "world")
        f = _p_formula(params, "formula")
        if not isinstance(f, Or):
            raise RuleError("orL needs a disjunction param")
        cand = LabelledSequent(p0.rel, replace(p0.ante, (w, f.left), (w, f)), p0.succ)
    elif rule == "impL":
        w = _p_str(params, "world")
        f = _p_formula(params, "formula")
        if not isinstance(f, Imp):
            raise RuleError("impL needs an implication param")
        p1 = premises[1]
        cand = LabelledSequent(p1.rel, replace(p1.ante, (w, f.right), (w, f)), p1.succ)
    elif rule == "andR":
        w, a = p0.succ
        w2, b = premises[1].succ
        if w != w2:
            raise RuleError("andR premises must share the succedent label")
        cand = LabelledSequent(p0.rel, p0.ante, (w, And(a, b)))
    elif rule == "orR":
        f = _p_formula(params, "formula")
        if not isinstance(f, Or):
            raise RuleError("orR needs the disjunction param for the forward direction")
        cand = LabelledSequent(p0.rel, p0.ante, (p0.succ[0], f))
    elif rule == "impR":
        f = _p_formula(params, "formula")
        if not isinstance(f, Imp):
            raise RuleError("impR needs the implication param for the forward direction")
        w = p0.succ[0]
        cand = LabelledSequent(p0.rel, without(p0.ante, (w, f.left)), (w, f))
    elif rule == "diaL":
        w = _p_str(params, "world")
        f = _p_formula(params, "formula")
        u = _p_str(params, "fresh")
        if not isinstance(f, Dia):
            raise RuleError("diaL needs a diamond param")
        cand = LabelledSequent(without(p0.rel, (w, u)),
                               replace(p0.ante, (u, f.body), (w, f)), p0.succ)
    elif rule == "diaR":
        w = _p_str(params, "from")
        u, b = p0.succ
        if _p_str(params, "to") != u:
            raise RuleError("param 'to' disagrees with the premise label")
        cand = LabelledSequent(p0.rel, p0.ante, (w, Dia(b)))
    elif rule == "boxR":
        w = _p_str(params, "from")
        u, b = p0.succ
        if _p_str(params, "fresh") != u:
            raise RuleError("param 'fresh' disagrees with the premise label")
        cand = LabelledSequent(without(p0.rel, (w, u)), p0.ante, (w, Box(b)))
    elif rule == "boxL":
        w = _p_str(params, "world")
        f = _p_formula(params, "formula")
        u = _p_str(params, "to")
        if not isinstance(f, Box):
            raise RuleError("boxL needs a box param")
        cand = LabelledSequent(p0.rel, without(p0.ante, (u, f.body)), p0.succ)
    elif rule == "d":
        w = _p_str(params, "world")
        u = _p_str(params, "fresh")
        cand = LabelledSequent(without(p0.rel, (w, u)), p0.ante, p0.succ)
    elif rule == "S":
        n = _p_int(params, "n")
        k = _p_int(params, "k")
        cn = _p_chain(params, "chain_n", n + 1)
        ck = _p_chain(params, "chain_k", k + 1)
        cand = LabelledSequent(without(p0.rel, (cn[-1], ck[-1])), p0.ante, p0.succ)
    elif rule == "pdia":
        path = _p_path(params, "path")
        u, b = p0.succ
        if path.end != u:
            raise RuleError("path must end at the premise's succedent label")
        cand = LabelledSequent(p0.rel, p0.ante, (path.start, Dia(b)))
    elif rule == "pbox":
        w = _p_str(params, "world")
        f = _p_formula(params, "formula")
        u = _p_str(params, "to")
        if not isinstance(f, Box):
            raise RuleError("pbox needs a box param")
        cand = LabelledSequent(p0.rel, without(p0.ante, (u, f.body)), p0.succ)
    else:
        raise RuleError(f"unknown rule {rule!r}")

    computed = premises_of_labelled(cand, rule, params, ax)
    if len(computed) != len(premises) or any(
            a != b for a, b in zip(computed, premises)):
        raise RuleError(f"{rule}: premises do not match the reconstructed conclusion")
    return cand


def apply_rule_forward(rule: str, params: dict,
                       premises: Sequence[LabelledProof],
                       ax: AxiomSet) -> LabelledProof:
    seqs = [p.conclusion for p in premises]
    cand = conclusion_of_labelled(rule, params, seqs, ax)
    return LabelledProof(cand, rule, dict(params), tuple(premises))
