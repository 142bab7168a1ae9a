"""Labelled sequents, their rule schemes and their proof checker.

A sequent is ``rel ; ante |- succ`` with a multiset of relational atoms
``w R u``, a multiset of labelled formulas ``w: A``, and exactly one
succedent formula.  Proof nodes name a rule and carry explicit params
(principal formula, eigenvariable, chains, witness path), so checking
is plain structural matching with no search; ``proof.check`` walks the
tree and ``premises_of_labelled`` matches one rule instance.  This
module alone knows how an instance is written: ``read_labelled`` reads
its params as (label, formula, index, eigenvariable or target, walk),
``labelled_params`` writes them back, and ``_premises`` builds the
premises from that reading.  A ``d`` instance must name a label of its
conclusion, so refined premises of a tree sequent stay tree sequents.

Modes: ``base`` uses the relational rules (diaR, boxL, S), ``refined``
replaces those three with the path-conditioned propagation rules (pdia,
pbox), ``either`` accepts the union.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Optional

from .formula import (Atom, AxiomSet, Bot, Box, Dia, Formula, Imp, And, Or,
                      ParseError, parse_formula, render_formula)
from .grammar import (PropGraph, PropPath, Sym, derives, grammar_from_axioms,
                      graph_from_pairs)
from .proof import (CheckResult, Proof, RuleError, _p_chain, _p_formula,
                    _p_int, _p_path, _p_str, check, lazy_attribute)

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

    @lazy_attribute
    def _key(self) -> tuple:
        return (
            tuple(sorted(f"{w} R {u}" for w, u in self.rel)),
            tuple(sorted(f"{w}: {render_formula(a)}" for w, a in self.ante)),
            f"{self.succ[0]}: {render_formula(self.succ[1])}",
        )

    @lazy_attribute
    def _labels(self) -> frozenset:
        return frozenset(chain.from_iterable(self.rel)).union(
            map(itemgetter(0), self.ante), (self.succ[0],))

    def __eq__(self, other):
        if not isinstance(other, LabelledSequent):
            return NotImplemented
        if not (self.rel == other.rel and self.ante == other.ante
                and self.succ == other.succ):
            return self._key == other._key
        # equal in stored order is equal as multisets, with no key built;
        # a label set one of them has serves the other
        mine, theirs = self.__dict__, other.__dict__
        if "_labels" in theirs:
            mine.setdefault("_labels", theirs["_labels"])
        elif "_labels" in mine:
            theirs["_labels"] = mine["_labels"]
        return True

    def __hash__(self):
        return hash(self._key)

    def labels(self) -> frozenset:
        """Every label of the sequent: computed once, and carried to the
        premises that the rules build."""
        return self._labels

    def __str__(self) -> str:
        return render_labelled_sequent(self)


def _premise(rel: tuple, ante: tuple, succ: tuple, labels) -> LabelledSequent:
    """A sequent whose labels the caller has checked, as the rules build
    their premises from a conclusion's: no label is re-validated.
    labels is its label set when already known, else None."""
    s = object.__new__(LabelledSequent)
    s.__dict__.update(rel=rel, ante=ante, succ=succ)
    if labels is not None:
        s.__dict__["_labels"] = labels
    return s


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


def _find_once(ante: tuple, wanted: tuple) -> int:
    try:
        return ante.index(wanted)
    except ValueError:
        raise RuleError(f"{wanted[0]}: {render_formula(wanted[1])} not present") from None


def prop_graph_of(seq: LabelledSequent) -> PropGraph:
    return graph_from_pairs(seq.rel, extra_nodes=seq.labels())


# main connective of the principal antecedent member, and of the succedent
_ANTE_RULES = {"andL": And, "orL": Or, "impL": Imp, "diaL": Dia, "boxL": Box,
               "pbox": Box}
_SUCC_RULES = {"id": (Atom, "an atomic"), "andR": (And, "a conjunctive"),
               "orR": (Or, "a disjunctive"), "impR": (Imp, "an implicative"),
               "diaR": (Dia, "a diamond"), "boxR": (Box, "a box"),
               "pdia": (Dia, "a diamond")}


def read_labelled(seq: LabelledSequent, rule: str, params: dict) -> tuple:
    """(w, f, i, u, walk) of a rule instance, as _premises takes them.

    w and f are the principal's label and formula (the succedent's for
    a right rule; for d and S, f is None and w the new atom's source), i
    the principal's antecedent index (for orR the disjunct kept: 0 left,
    1 right), u the eigenvariable or target label, and walk the path
    from w to u: the pdia/pbox path, and for S the walk back along
    chain_n and on along chain_k, which spells the grammar production
    its pair adds.

    RuleError unless the instance matches the rule; every condition is
    checked except the two that need the axiom set: the d and S gates
    and the derivability of a pdia/pbox walk (premises_of_labelled).
    """
    w, f = seq.succ
    i = u = walk = None
    if rule in _ANTE_RULES:
        w, f = _p_str(params, "world"), _p_formula(params, "formula")
        if not isinstance(f, _ANTE_RULES[rule]):
            raise RuleError(f"principal {render_formula(f)!r} has the wrong "
                            "main connective")
        i = _find_once(seq.ante, (w, f))
    elif rule in _SUCC_RULES:
        cls, kind = _SUCC_RULES[rule]
        if not isinstance(f, cls):
            raise RuleError(f"{rule} needs {kind} succedent")
    elif rule == "botL":
        i = next((j for j, (_, a) in enumerate(seq.ante) if isinstance(a, Bot)), None)
        if i is None:
            raise RuleError("botL needs a falsum antecedent member")
        w, f = seq.ante[i]
    elif rule == "d":
        w, f = _p_str(params, "world"), None
    elif rule == "S":
        n, k = _p_int(params, "n"), _p_int(params, "k")
        cn = _p_chain(params, "chain_n", n + 1)
        ck = _p_chain(params, "chain_k", k + 1)
        if cn[0] != ck[0]:
            raise RuleError("chains must share their first label")
        rel = set(seq.rel)
        for chain in (cn, ck):
            for a, b in zip(chain, chain[1:]):
                if (a, b) not in rel:
                    raise RuleError(f"chain atom {a} R {b} not present")
        walk = PropPath._trusted(tuple(cn[::-1] + ck[1:]),
                                 (Sym.BWD,) * n + (Sym.FWD,) * k)
        w, f, u = walk.start, None, walk.end
    else:
        raise RuleError(f"unknown rule {rule!r}")
    if rule in ("andL", "orL", "impL", "andR", "botL"):  # read in full
        return w, f, i, u, walk

    if rule == "id":
        i = _find_once(seq.ante, seq.succ)
    elif rule == "orR":
        side = _p_str(params, "side")
        if side not in ("left", "right"):
            raise RuleError("param 'side' must be 'left' or 'right'")
        i = int(side == "right")
    elif rule in ("diaL", "boxR", "d"):
        u, labels = _p_str(params, "fresh"), seq.labels()
        if u in labels:
            raise RuleError(f"eigenvariable {u!r} occurs in the conclusion")
        if w not in labels:  # only a d instance can name an absent label
            raise RuleError(f"world {w!r} is not a label of the conclusion")
    elif rule in ("diaR", "boxL", "pbox"):
        u = _p_str(params, "to")
    if (rule in ("orR", "impR") and "formula" in params
            and _p_formula(params, "formula") != f):
        raise RuleError("param 'formula' disagrees with the succedent")
    if rule in ("diaR", "boxR") and "from" in params and _p_str(params, "from") != w:
        raise RuleError("param 'from' disagrees with the succedent label")
    if rule in ("diaR", "boxL"):
        if (w, u) not in seq.rel:
            raise RuleError(f"{rule} needs the atom {w} R {u}")
    elif rule in ("pdia", "pbox"):
        walk = _p_path(params, "path")
        if rule == "pbox" and walk.end != u:
            raise RuleError("param 'to' disagrees with the path's endpoint")
        if walk.start != w:
            raise RuleError(f"path must start at {w!r}, starts at {walk.start!r}")
        # a d step goes along a relational atom, a b step against one
        rel = set(seq.rel)
        steps = zip(walk.nodes, walk.steps, walk.nodes[1:])
        if not (all(((a, b) if c is Sym.FWD else (b, a)) in rel for a, c, b in steps)
                and (walk.steps or w in seq.labels())):
            raise RuleError("path does not lie in the conclusion's graph")
        u = walk.end
    return w, f, i, u, walk


def _premises(seq: LabelledSequent, rule: str, w: str, f, i, u, walk) -> list:
    """Premises of a backward application, trusting its arguments, which
    read_labelled reads from a rule instance's params.  A premise has
    the conclusion's labels, and diaL, boxR and d add the label u; the
    set is carried over when the conclusion has it already.  impL's
    first premise is the exception: it drops the succedent's label,
    which on a sequent that is not a tree may occur nowhere else."""
    rel, ante, succ = seq.rel, seq.ante, seq.succ
    labels = seq.__dict__.get("_labels")
    if rule in ("id", "botL"):
        return []
    if rule in ("diaL", "boxR", "d") and labels is not None:
        labels = labels | {u}

    def make(rel, ante, succ):
        return _premise(rel, ante, succ, labels)

    if rule == "andL":
        return [make(rel, ante[:i] + ((w, f.left), (w, f.right)) + ante[i + 1:], succ)]
    if rule == "orL":
        return [make(rel, ante[:i] + ((w, f.left),) + ante[i + 1:], succ),
                make(rel, ante[:i] + ((w, f.right),) + ante[i + 1:], succ)]
    if rule == "impL":
        # w labels the principal formula, so only another label can go
        return [_premise(rel, ante, (w, f.left), labels if succ[0] == w else None),
                make(rel, ante[:i] + ((w, f.right),) + ante[i + 1:], succ)]
    if rule == "andR":
        return [make(rel, ante, (w, f.left)), make(rel, ante, (w, f.right))]
    if rule == "orR":
        return [make(rel, ante, (w, f.right if i else f.left))]
    if rule == "impR":
        return [make(rel, ante + ((w, f.left),), (w, f.right))]
    if rule == "diaL":
        return [make(rel + ((w, u),), ante[:i] + ((u, f.body),) + ante[i + 1:], succ)]
    if rule == "boxR":
        return [make(rel + ((w, u),), ante, (u, f.body))]
    if rule in ("diaR", "pdia"):
        return [make(rel, ante, (u, f.body))]
    if rule in ("boxL", "pbox"):
        return [make(rel, ante + ((u, f.body),), succ)]
    # d and S add the atom w R u
    return [make(rel + ((w, u),), ante, succ)]


def read_labelled_checked(seq: LabelledSequent, rule: str, params: dict,
                          ax: AxiomSet) -> tuple:
    """read_labelled's reading of a rule instance, or RuleError, after
    the conditions that need the axiom set: d needs seriality, an S pair
    must be one of its hsl pairs, a pdia/pbox walk's string must derive
    from the forward letter."""
    if rule == "d" and not ax.has_d:
        raise RuleError("rule d needs the seriality axiom")
    if rule == "S":
        n, k = _p_int(params, "n"), _p_int(params, "k")
        if (n, k) not in ax.hsl:
            raise RuleError(f"pair ({n},{k}) not in the axiom set")
    reading = read_labelled(seq, rule, params)
    walk = reading[4]
    if rule in ("pdia", "pbox") and not derives(grammar_from_axioms(ax), Sym.FWD,
                                                walk.steps):
        raise RuleError(f"path string {walk.string!r} not derivable "
                        "from the forward letter")
    return reading


def premises_of_labelled(seq: LabelledSequent, rule: str, params: dict,
                         ax: AxiomSet) -> list:
    """Premises of a backward rule application, or RuleError.

    Reads the instance with read_labelled_checked, which checks every
    condition, and computes the premises with _premises.
    """
    return _premises(seq, rule, *read_labelled_checked(seq, rule, params, ax))


# the params keys of each rule, in the order labelled_params writes them
_KEYS = {"id": (), "botL": (), "andL": ("world", "formula"),
         "orL": ("world", "formula"), "impL": ("world", "formula"), "andR": (),
         "orR": ("side",), "impR": (), "diaL": ("world", "formula", "fresh"),
         "diaR": ("to",), "boxR": ("fresh",), "boxL": ("world", "formula", "to"),
         "d": ("world", "fresh"), "pdia": ("path",),
         "pbox": ("world", "formula", "to", "path")}


def labelled_params(rule: str, w: Optional[str] = None, f: Optional[Formula] = None,
                    i: Optional[int] = None, u: Optional[str] = None,
                    walk: Optional[PropPath] = None) -> dict:
    """The params read_labelled reads back as (w, f, i, u, walk); each
    rule writes only its own keys, and S only its walk, as the pair and
    the two chains."""
    if rule == "S":
        n = walk.steps.count(Sym.BWD)
        return {"n": n, "k": len(walk.steps) - n,
                "chain_n": list(walk.nodes[n::-1]), "chain_k": list(walk.nodes[n:])}
    vals = {"world": w, "side": "right" if i else "left", "fresh": u, "to": u}
    if f is not None:
        vals["formula"] = render_formula(f)
    if walk is not None:
        vals["path"] = walk.to_list()
    return {key: vals[key] for key in _KEYS[rule]}


def check_labelled(p: LabelledProof, ax: AxiomSet, mode: str = "base") -> CheckResult:
    """Validate every node of the proof against the chosen rule set."""
    if mode not in MODE_RULES:
        raise ValueError(f"unknown mode {mode!r}")
    return check(p,
                 lambda seq, rule, params: premises_of_labelled(seq, rule, params, ax),
                 MODE_RULES[mode], f"rule {{!r}} not in {mode} mode")
