"""Finite bi-relational models: structure checks, evaluation, generation.

A model carries a preorder ``leq``, an accessibility relation ``acc``,
and a valuation given as a set of (world, atom) pairs.  Truth of an
atom, implication, and box is quantified over ``leq``-successors, so
well-formed models must satisfy the two confluence conditions (F1, F2)
and upward-closed valuations for truth to be monotone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .formula import And, Atom, AxiomSet, Bot, Box, Dia, Formula, Imp, Or
from .labelled import LabelledSequent


@dataclass(frozen=True)
class Violation:
    condition: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.condition} at {self.witness}"


@dataclass(frozen=True)
class Model:
    worlds: frozenset
    leq: frozenset  # pairs (w, w')
    acc: frozenset  # pairs (w, v)
    val: frozenset  # pairs (world, atom name)


def model_of(worlds: Iterable[str], leq: Iterable = (), acc: Iterable = (),
             val: Iterable = ()) -> Model:
    """Build a model, always including the reflexive leq pairs."""
    ws = frozenset(worlds)
    return Model(ws,
                 frozenset(tuple(p) for p in leq) | frozenset((w, w) for w in ws),
                 frozenset(tuple(p) for p in acc),
                 frozenset(tuple(p) for p in val))


def _successors(pairs: Iterable) -> dict:
    """Each pair's first element to the set of its second elements."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    return succ


def _powers(succ: dict, worlds: Iterable, n: int) -> dict:
    """Each world to the set it reaches in n steps along succ; zero steps
    is the world itself."""
    out = {w: {w} for w in worlds}
    for _ in range(n):
        out = {w: set().union(*(succ.get(x, ()) for x in xs))
               for w, xs in out.items()}
    return out


def check_model(m: Model) -> list:
    """Violations of the five structural conditions, empty iff well formed.

    Conditions: leq reflexive, leq transitive, F1, F2, monotone
    valuation.  Out-of-domain pairs are reported as domain violations.
    Each relation's successor sets are built once and walked in sorted
    order, so violations come in the order of the sorted pairs.
    """
    out = []
    for a, b in sorted(m.leq):
        if a not in m.worlds or b not in m.worlds:
            out.append(Violation("domain-leq", (a, b)))
    for a, b in sorted(m.acc):
        if a not in m.worlds or b not in m.worlds:
            out.append(Violation("domain-acc", (a, b)))
    for w, p in sorted(m.val):
        if w not in m.worlds:
            out.append(Violation("domain-val", (w, p)))
    if out:
        return out
    for w in sorted(m.worlds):
        if (w, w) not in m.leq:
            out.append(Violation("leq-reflexive", (w,)))
    up, nxt = _successors(m.leq), _successors(m.acc)
    up_sorted = {w: sorted(us) for w, us in up.items()}
    nxt_sorted = {w: sorted(vs) for w, vs in nxt.items()}
    for a in sorted(up):
        for b in up_sorted[a]:
            for c in up_sorted.get(b, ()):
                if c not in up[a]:
                    out.append(Violation("leq-transitive", (a, b, c)))
    # F1: wRv and v <= v' need some w' with w <= w' and w'Rv'
    for w in sorted(nxt):
        above = set().union(*(nxt.get(w_up, ()) for w_up in up.get(w, ())))
        for v in nxt_sorted[w]:
            for v_up in up_sorted.get(v, ()):
                if v_up not in above:
                    out.append(Violation("F1", (w, v, v_up)))
    # F2: w <= w' and wRv need some v' with w'Rv' and v <= v'
    for w in sorted(up):
        for w_up in up_sorted[w]:
            for v in nxt_sorted.get(w, ()):
                if nxt.get(w_up, set()).isdisjoint(up.get(v, ())):
                    out.append(Violation("F2", (w, w_up, v)))
    for w, p in sorted(m.val):
        for w_up in up_sorted.get(w, ()):
            if (w_up, p) not in m.val:
                out.append(Violation("monotonicity", (w, w_up, p)))
    return out


def check_frame_conditions(m: Model, ax: AxiomSet) -> list:
    out = []
    nxt = _successors(m.acc)
    if ax.has_d:
        for w in sorted(m.worlds):
            if w not in nxt:
                out.append(Violation("seriality", (w,)))
    for n, k in sorted(ax.hsl):
        rn = _powers(nxt, m.worlds, n)
        rk = _powers(nxt, m.worlds, k)
        for w in sorted(m.worlds):
            vs = sorted(rk[w])
            for u in sorted(rn[w]):
                u_next = nxt.get(u, ())
                for v in vs:
                    if v not in u_next:
                        out.append(Violation(f"hsl({n},{k})", (w, u, v)))
    return out


def eval_formula(m: Model, w: str, a: Formula) -> bool:
    if w not in m.worlds:
        raise ValueError(f"unknown world {w!r}")
    cache: dict = {}

    def go(x: str, f: Formula) -> bool:
        key = (x, f)
        if key in cache:
            return cache[key]
        if isinstance(f, Atom):
            r = (x, f.name) in m.val
        elif isinstance(f, Bot):
            r = False
        elif isinstance(f, And):
            r = go(x, f.left) and go(x, f.right)
        elif isinstance(f, Or):
            r = go(x, f.left) or go(x, f.right)
        elif isinstance(f, Imp):
            r = all(not go(y, f.left) or go(y, f.right)
                    for x2, y in m.leq if x2 == x)
        elif isinstance(f, Dia):
            r = any(go(v, f.body) for x2, v in m.acc if x2 == x)
        elif isinstance(f, Box):
            r = all(go(v, f.body)
                    for x2, y in m.leq if x2 == x
                    for y2, v in m.acc if y2 == y)
        else:
            raise TypeError(f"not a formula: {f!r}")
        cache[key] = r
        return r

    return go(w, a)


def globally_true(m: Model, a: Formula) -> bool:
    return all(eval_formula(m, w, a) for w in m.worlds)


def sat_sequent(m: Model, interp: Mapping, seq: LabelledSequent) -> bool:
    """Whether the sequent holds in m under the label interpretation.

    The antecedent side (relational atoms and labelled formulas) must
    force the succedent formula.  The interpretation has to cover every
    label of the sequent.
    """
    for lab in sorted(seq.labels()):
        if lab not in interp:
            raise ValueError(f"interpretation misses label {lab!r}")
        if interp[lab] not in m.worlds:
            raise ValueError(f"label {lab!r} maps outside the model")
    if any((interp[w], interp[u]) not in m.acc for w, u in seq.rel):
        return True
    if any(not eval_formula(m, interp[w], f) for w, f in seq.ante):
        return True
    w, f = seq.succ
    return eval_formula(m, interp[w], f)


def random_model(ax: AxiomSet, max_worlds: int, seed: int) -> Model:
    """A pseudorandom model passing both checkers for the axiom set.

    Both relations are kept as each world's successor set.  A random
    preorder is closed by Warshall's algorithm; a random accessibility
    relation is then closed to a fixpoint: upward closure of acc along
    leq on both sides (gives F1 and F2), the (n, k) closures, and a
    self-loop at any dead end when seriality is required.  The valuation
    is then closed upward.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(1, max_worlds)
    worlds = [f"m{i}" for i in range(n)]
    leq = {w: {w} for w in worlds}
    for w in worlds:
        for u in worlds:
            if w != u and rng.random() < 0.25:
                leq[w].add(u)
    for u in worlds:  # Warshall's transitive closure
        for w in worlds:
            if u in leq[w]:
                leq[w] |= leq[u]
    acc = {w: set() for w in worlds}
    for w in worlds:
        for u in worlds:
            if rng.random() < 0.3:
                acc[w].add(u)
    changed = True
    while changed:
        before = sum(map(len, acc.values()))
        ups = {w: set().union(*(leq[v] for v in acc[w])) for w in worlds}
        for w in worlds:
            for w2 in leq[w]:
                acc[w2] |= ups[w]
        for pn, pk in sorted(ax.hsl):
            rn = _powers(acc, worlds, pn)
            rk = _powers(acc, worlds, pk)
            for w in worlds:
                for u in rn[w]:
                    acc[u] |= rk[w]
        if ax.has_d:
            for w in worlds:
                if not acc[w]:
                    acc[w].add(w)
        changed = sum(map(len, acc.values())) != before
    val = set()
    for w in worlds:
        for p in ("p", "q", "r"):
            if rng.random() < 0.4:
                val.add((w, p))
    val |= {(u, p) for w, p in list(val) for u in leq[w]}
    return Model(frozenset(worlds),
                 frozenset((w, u) for w in worlds for u in leq[w]),
                 frozenset((w, v) for w in worlds for v in acc[w]),
                 frozenset(val))
