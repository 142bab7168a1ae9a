"""Finite bi-relational models: structure checks, evaluation, generation.

A model carries a preorder ``leq``, an accessibility relation ``acc``,
and a valuation given as a set of (world, atom) pairs.  Truth of an
atom, implication, and box is quantified over ``leq``-successors, so
well-formed models must satisfy the two confluence conditions (F1, F2)
and upward-closed valuations for truth to be monotone.

The prover's root tests live here too: one_world_countermodel and
two_world_countermodel decide, over truth tables held as ints, whether a
full nested sequent is false in some model of one or of two worlds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from .formula import (BOT, And, Atom, AxiomSet, Bot, Box, Dia, Formula, Imp, Or,
                      subformulas)
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


# Most bits the truth tables of one_world_countermodel, and of
# two_world_countermodel, may hold in all: one table of 2^k bits per
# distinct subformula of a sequent with k atoms, or two of 2^(2k + 5)
# per distinct subformula and per node.  At the bound the tables take
# 128 KB; past it the test is skipped.
ONE_WORLD_BITS = 1 << 20


@lru_cache(maxsize=32)
def _variables(count: int) -> tuple:
    """The truth tables of count variables over all 2^count assignments,
    each as one int: bit v of table i is bit i of v.  Under the
    ONE_WORLD_BITS bound count is at most 16, so the memo holds under
    300 KB."""
    n = 1 << count
    out = []
    for i in range(count):
        # runs of 2^i assignments without variable i, then 2^i with it
        width = 2 << i
        t = ((1 << (1 << i)) - 1) << (1 << i)
        while width < n:
            t |= t << width
            width <<= 1
        out.append(t)
    return tuple(out)


def _goal_formulas(seq) -> tuple:
    """The root tests' front end for the full nested sequent seq:
    (nodes, roots, output, order, atoms).  nodes are its nodes in
    breadth-first order, so each node's children follow the children of
    the nodes before it, walked over an explicit list; roots are every
    input formula and output the output formula; order is
    subformulas(roots + [output]) and atoms its atoms in name order.
    ValueError if seq is not full."""
    roots: list = []
    output = None
    outputs = 0
    nodes = [seq]
    for node in nodes:
        nodes += node.children
        roots += node.inputs
        if node.output is not None:
            output = node.output
            outputs += 1
    if outputs != 1:
        raise ValueError("sequent must have exactly one output formula")
    order = subformulas(roots + [output])
    atoms = sorted([f for f in order if type(f) is Atom], key=attrgetter("name"))
    return nodes, roots, output, order, atoms


def one_world_countermodel(seq) -> Optional[tuple]:
    """The names, in name order, of the atoms true in a valuation that
    falsifies the full nested sequent seq in the one-world model whose
    world sees itself, or None if no valuation does, or if the truth
    tables would hold more than ONE_WORLD_BITS bits.  ValueError if seq
    is not full.

    That world meets the frame condition of every hsl(n, k) axiom and of
    seriality, and every bracket maps to its self-loop, so there [] and
    <> read as their bodies and every formula is classical: seq is false
    under a valuation iff all its inputs, at every node, hold and its
    output fails.  Of the falsifying valuations, the lowest
    (_one_world_valuation) is reported.
    """
    front = _goal_formulas(seq)
    v = _one_world_valuation(front)
    if v is None:
        return None
    return tuple(a.name for i, a in enumerate(front[4]) if v >> i & 1)


def _one_world_valuation(front: tuple) -> Optional[int]:
    """one_world_countermodel's verdict on the goal of front, the
    goal's _goal_formulas: the lowest v whose valuation falsifies it, or
    None.  Valuation v makes atom i true iff bit i of v is set.

    Each distinct subformula gets its truth table over all 2^k
    valuations as one int, bit v for valuation v; the tables are built
    children first, without recursion.  Formula classes have no
    subclasses, so the tables are dispatched on type(f).
    """
    _, roots, output, order, atoms = front
    if len(order) << len(atoms) > ONE_WORLD_BITS:
        return None
    full = (1 << (1 << len(atoms))) - 1
    table: dict = {BOT: 0}
    table.update(zip(atoms, _variables(len(atoms))))
    for f in order:
        t = type(f)
        if t is Imp:
            table[f] = full ^ table[f.left] | table[f.right]
        elif t is And:
            table[f] = table[f.left] & table[f.right]
        elif t is Or:
            table[f] = table[f.left] | table[f.right]
        elif t is Dia or t is Box:
            table[f] = table[f.body]
    falsified = full ^ table[output]
    for f in roots:
        falsified &= table[f]
    if not falsified:
        return None
    return (falsified & -falsified).bit_length() - 1


def _two_world_model(v: int, atoms: list) -> Model:
    """The model on worlds w0 and w1 that candidate v stands for in
    two_world_countermodel's tables over the atom names atoms, in name
    order.  Bits 0-3 of v are the acc pairs (w0, w0), (w0, w1), (w1, w0)
    and (w1, w1), bit 4 is w0 <= w1, and atom i holds at w0 if bit 5 + i
    is set, at w1 if bit 5 + k + i is, for k atoms."""
    k = len(atoms)
    pairs = (("w0", "w0"), ("w0", "w1"), ("w1", "w0"), ("w1", "w1"))
    return model_of(("w0", "w1"),
                    [("w0", "w1")] if v >> 4 & 1 else (),
                    [pair for j, pair in enumerate(pairs) if v >> j & 1],
                    [(w, a) for w, base in (("w0", 5), ("w1", 5 + k))
                     for i, a in enumerate(atoms) if v >> (base + i) & 1])


@lru_cache(maxsize=256)
def _two_world_frames(ax: AxiomSet) -> int:
    """Bit f set iff the frame of candidate f passes check_model and
    check_frame_conditions for ax.  The last 256 axiom sets' masks are
    kept, as their grammars are."""
    mask = 0
    for f in range(32):
        m = _two_world_model(f, ())
        if not check_model(m) and not check_frame_conditions(m, ax):
            mask |= 1 << f
    return mask


def _two_world_tables(order: list, atoms: list) -> tuple:
    """(full, variables, t0, t1): the truth tables at w0 and at w1 of
    the formulas of order, which lists each after its own subformulas,
    over every candidate of 5 + 2k bits, for the k atoms of order given
    in name order as atoms.  variables are the tables of the candidates'
    bits, and full has every candidate's bit set.  Bit v of a table is
    eval_formula's answer in _two_world_model(v), well formed or not."""
    k = len(atoms)
    full = (1 << (1 << (5 + 2 * k))) - 1
    var = _variables(5 + 2 * k)
    r00, r01, r10, r11 = var[:4]
    n00, n01, n10, n11, nleq = [full ^ r for r in var[:5]]
    t0: dict = {BOT: 0}
    t1: dict = {BOT: 0}
    t0.update(zip(atoms, var[5:]))
    t1.update(zip(atoms, var[5 + k:]))
    for f in order:
        t = type(f)
        if t is Imp:
            a1 = full ^ t1[f.left] | t1[f.right]
            t1[f] = a1
            t0[f] = (full ^ t0[f.left] | t0[f.right]) & (nleq | a1)
        elif t is And:
            t0[f] = t0[f.left] & t0[f.right]
            t1[f] = t1[f.left] & t1[f.right]
        elif t is Or:
            t0[f] = t0[f.left] | t0[f.right]
            t1[f] = t1[f.left] | t1[f.right]
        elif t is Dia:
            b0, b1 = t0[f.body], t1[f.body]
            t0[f] = r00 & b0 | r01 & b1
            t1[f] = r10 & b0 | r11 & b1
        elif t is Box:
            b0, b1 = t0[f.body], t1[f.body]
            a1 = (n10 | b0) & (n11 | b1)
            t1[f] = a1
            t0[f] = (n00 | b0) & (n01 | b1) & (nleq | a1)
    return full, var, t0, t1


def two_world_countermodel(seq, ax: AxiomSet) -> Optional[tuple]:
    """(model, world): a model on worlds w0 and w1 that meets ax, with a
    world at which the full nested sequent seq is false, or None if no
    such model exists, or if the truth tables, two per distinct
    subformula and two per node, would hold more than ONE_WORLD_BITS
    bits.  ValueError if seq is not full.

    The verdict is _two_world_candidate's, which builds no model: the
    lowest kept candidate that refutes seq, and the world its root sits
    at.  Only here is that candidate decoded, by _two_world_model, into
    the model returned.
    """
    front = _goal_formulas(seq)
    got = _two_world_candidate(front, ax)
    if got is None:
        return None
    v, world = got
    return _two_world_model(v, [a.name for a in front[4]]), world


def _two_world_candidate(front: tuple, ax: AxiomSet) -> Optional[tuple]:
    """two_world_countermodel's verdict on the goal of front, the
    goal's _goal_formulas: (v, world) for the lowest kept candidate v
    that refutes it, with the root at world, w0 if it can sit there, or
    None.

    Exact and exhaustive.  A model whose preorder relates w0 and w1 both
    ways makes every formula true at both worlds alike, so it falsifies
    only what a one-world model of ax does; a one-world model is what w0
    sees of a candidate where w0 reaches w1 by neither relation; and
    naming the worlds the other way round makes w1 <= w0 into
    w0 <= w1.  So the candidates are the 32
    frames (an acc subset of the four pairs, and w0 <= w1 or not) with
    every valuation of the goal's k atoms at both worlds: one bit each
    of a table of 2^(2k + 5) bits (_two_world_tables).  Two masks keep
    the models: the frames that pass check_model and
    check_frame_conditions for ax, decided once per axiom set, and the
    monotone valuations, where w0 <= w1 makes every atom true at w0 true
    at w1.

    The bracket tree is walked from the leaves up: a node can sit at a
    world where its inputs hold, its output fails, and each child can
    sit at some acc successor, which is what to_labelled's relational
    atoms and formulas ask of sat_sequent.  The goal is refuted iff its
    root can sit at w0 or at w1 in some kept candidate.
    """
    nodes, _, _, order, atoms = front
    k = len(atoms)
    if (len(order) + len(nodes)) << (2 * k + 6) > ONE_WORLD_BITS:
        return None
    full, var, t0, t1 = _two_world_tables(order, atoms)
    r00, r01, r10, r11, leq = var[:5]
    # replicated over every valuation, the 32-bit frame mask
    kept = _two_world_frames(ax) * (full // 0xFFFFFFFF)
    rising = 0
    for a in atoms:
        rising |= t0[a] & ~t1[a]
    kept &= ~(leq & rising)
    # where each node can sit, leaves first: in breadth-first order a
    # node's children come just before those of the node after it
    sit0 = [0] * len(nodes)
    sit1 = [0] * len(nodes)
    end = len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        s0 = s1 = full
        for f in node.inputs:
            s0 &= t0[f]
            s1 &= t1[f]
        f = node.output
        if f is not None:
            s0 &= ~t0[f]
            s1 &= ~t1[f]
        start = end - len(node.children)
        for j in range(start, end):
            c0, c1 = sit0[j], sit1[j]
            s0 &= r00 & c0 | r01 & c1
            s1 &= r10 & c0 | r11 & c1
        end = start
        sit0[i], sit1[i] = s0, s1
    refuted = (s0 | s1) & kept
    if not refuted:
        return None
    v = (refuted & -refuted).bit_length() - 1
    return v, "w0" if s0 >> v & 1 else "w1"
