"""String grammars induced by the axiom pairs, and path reachability.

Each (n, k) pair contributes two rewrite productions over the two-letter
alphabet: forward ⟶ n backwards then k forwards, and backward ⟶ k
backwards then n forwards.  A relational atom w R u gives a forward edge
w→u and a backward edge u→w.  A target node is reachable from a source
when some walk between them spells a string derivable from the forward
letter.  Letters print as ``d`` (forward) and ``b`` (backward).

Path questions are CFL-reachability questions, answered two ways.  A
worklist saturates facts "some walk x to y spells a string derivable
from S" over a graph whose nodes it numbers in sorted order, and records
each fact's first derivation: ``reachable`` and ``reach_all`` unfold
witness walks from those records, and ``derives`` asks it on the line
graph of the target string, where it does one step per new fact and a
closure by rounds would need a round per letter.  ``reach_masks`` keeps
no witness: a boolean closure over one bitmask row per letter and node,
a word of targets at a time, it gives the prover the reachable pairs of
its bracket-tree graphs, and ``reachable`` its answer before any
saturation.
"""

from __future__ import annotations

import sys
from bisect import insort
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional

from .formula import AxiomSet


class Sym(str, Enum):
    FWD = "d"
    BWD = "b"

    def converse(self) -> "Sym":
        return Sym.BWD if self is Sym.FWD else Sym.FWD

    def __str__(self) -> str:
        return self.value


_SYM = {"d": Sym.FWD, "b": Sym.BWD}


def syms(text: Iterable[str]) -> tuple[Sym, ...]:
    """Convert 'd'/'b' characters (or Syms) to a symbol tuple."""
    text = tuple(text)
    try:
        return tuple(map(_SYM.__getitem__, text))
    except (KeyError, TypeError):  # Sym's own ValueError names the bad letter
        return tuple(Sym(c) for c in text)


@dataclass(frozen=True)
class Production:
    lhs: Sym
    rhs: tuple[Sym, ...]

    def __str__(self) -> str:
        rhs = "".join(c.value for c in self.rhs) or "ε"
        return f"{self.lhs.value} -> {rhs}"


@dataclass(frozen=True)
class Grammar:
    productions: frozenset

    def sorted_productions(self) -> list[Production]:
        return sorted(self.productions, key=lambda p: (p.lhs.value, tuple(c.value for c in p.rhs)))


@lru_cache(maxsize=256)
def grammar_from_axioms(ax: AxiomSet) -> Grammar:
    """Two productions per (n, k) pair; the seriality flag adds none.
    The last 256 axiom sets' grammars are kept; a grammar is immutable."""
    prods = set()
    for n, k in ax.hsl:
        prods.add(Production(Sym.FWD, (Sym.BWD,) * n + (Sym.FWD,) * k))
        prods.add(Production(Sym.BWD, (Sym.BWD,) * k + (Sym.FWD,) * n))
    return Grammar(frozenset(prods))


def _nullable(g: Grammar) -> frozenset:
    null = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs not in null and all(c in null for c in p.rhs):
                null.add(p.lhs)
                changed = True
    return frozenset(null)


@dataclass(frozen=True)
class PropPath:
    """A walk in a propagation graph; nodes may repeat.

    A single-node path has no steps and spells the empty string.
    """

    nodes: tuple[str, ...]
    steps: tuple[Sym, ...]

    def __post_init__(self):
        if not self.nodes or len(self.nodes) != len(self.steps) + 1:
            raise ValueError("path needs len(nodes) == len(steps) + 1")

    @classmethod
    def _trusted(cls, nodes: tuple, steps: tuple) -> "PropPath":
        """The path of nodes and steps that the caller has already
        checked to fit, without __post_init__'s check."""
        p = object.__new__(cls)
        p.__dict__.update(nodes=nodes, steps=steps)
        return p

    @property
    def start(self) -> str:
        return self.nodes[0]

    @property
    def end(self) -> str:
        return self.nodes[-1]

    @property
    def string(self) -> str:
        return "".join(c.value for c in self.steps)

    def to_list(self) -> list:
        out: list[str] = [self.nodes[0]]
        for c, v in zip(self.steps, self.nodes[1:]):
            out.append(c.value)
            out.append(v)
        return out

    @staticmethod
    def from_list(items: Iterable[str]) -> "PropPath":
        items = list(items)
        if len(items) % 2 == 0:
            raise ValueError("path list must alternate node, letter, node")
        return PropPath._trusted(tuple(items[0::2]), syms(items[1::2]))

    def __str__(self) -> str:
        return " ".join(self.to_list())


@dataclass(frozen=True)
class PropGraph:
    nodes: frozenset
    edges: frozenset  # of (node, Sym, node)


def graph_from_pairs(rel: Iterable[tuple[str, str]], extra_nodes: Iterable[str] = ()) -> PropGraph:
    """Converse closure: w R u yields both w→u forward and u→w backward."""
    nodes = set(extra_nodes)
    edges = set()
    for w, u in rel:
        nodes.add(w)
        nodes.add(u)
        edges.add((w, Sym.FWD, u))
        edges.add((u, Sym.BWD, w))
    return PropGraph(frozenset(nodes), frozenset(edges))


# The saturator codes the letters as 0 (b) and 1 (d), in their sort order.
_LETTERS = (Sym.BWD, Sym.FWD)
_CODE = {Sym.BWD: 0, Sym.FWD: 1}
_EDGE = "edge"  # the recorded derivation of a fact that is a graph edge


class _Saturator:
    """CFL-reachability worklist over a graph and grammar.

    Facts are Full (s, x, y), a walk x to y spelling a string derivable
    from letter s, and Part (p, i, x, y), the first i letters of
    production p's right-hand side jointly spelling a walk x to y.
    Nodes are numbered in the sorted order of their names and letters
    coded in theirs, so the worklist is seeded and extended in sorted
    order whatever the node names are.  Each fact's first derivation is
    recorded, so reconstruction is well founded.

    The constructor runs the worklist to the end.  A saturation made by
    paused() is only seeded, and full() runs its worklist on until the
    asked fact is recorded, stopping after the pop that records it, or
    until the worklist is empty; the next full() goes on from there.
    Stopping changes no first derivation: the pops come in the order of
    a run to the end, each pop derives what it would there, and a
    recorded derivation is never replaced, so every derivation recorded,
    and every walk path_of unfolds, is the one a run to the end records.
    """

    def __init__(self, pg: PropGraph, g: Grammar, limit: int = sys.maxsize):
        self._seed(pg, g, limit)
        self._run(None)

    @classmethod
    def paused(cls, pg: PropGraph, g: Grammar) -> "_Saturator":
        """A seeded saturation of pg whose worklist has not yet run."""
        sat = object.__new__(cls)
        sat._seed(pg, g, sys.maxsize)
        return sat

    def _seed(self, pg: PropGraph, g: Grammar, limit: int):
        self.names = sorted(pg.nodes)
        self.num = {v: i for i, v in enumerate(self.names)}
        num = self.num
        prods = g.sorted_productions()
        self.lhs = [_CODE[p.lhs] for p in prods]
        self.rhs = [tuple(_CODE[c] for c in p.rhs) for p in prods]
        self.limit = limit
        n = len(self.names)
        # by s * n + x: the y of every Full (s, x, y) popped, sorted, and
        # the Parts popped ending at x whose next letter is s
        self.fulls_from: list = [[] for _ in range(2 * n)]
        self.parts_waiting: list = [[] for _ in range(2 * n)]
        # fact -> how it was first derived: _EDGE, () for a seed, or the
        # facts it was derived from, leftmost first
        self.why: dict = {}
        self.queue: deque = deque()
        for x, s, y in sorted((num[x], _CODE[s], num[y]) for x, s, y in pg.edges):
            self._add((s, x, y), _EDGE)
        null = sorted(_CODE[s] for s in _nullable(g))
        for x in range(n):
            for s in null:
                self._add((s, x, x), ())
            for pi in range(len(prods)):
                self._add((pi, 0, x, x), ())

    def _add(self, fact: tuple, why):
        if fact not in self.why:
            self.why[fact] = why
            self.queue.append(fact)

    def _run(self, stop: Optional[tuple]):
        """Pop facts until the worklist is empty, or until after the pop
        that records the Full fact stop.  Only a finished Part records a
        Full fact once the worklist is seeded."""
        why, queue, limit = self.why, self.queue, self.limit
        lhs, rhs = self.lhs, self.rhs
        fulls_from, parts_waiting = self.fulls_from, self.parts_waiting
        n = len(self.names)
        while queue:
            if len(why) > limit:
                raise ValueError(f"graph of {n} nodes too large for a witness: "
                                 f"its saturation passed {limit} facts")
            fact = queue.popleft()
            if len(fact) == 3:
                s, x, y = fact
                insort(fulls_from[s * n + x], y)
                for part in parts_waiting[s * n + x]:
                    new = (part[0], part[1] + 1, part[2], y)
                    if new not in why:
                        why[new] = (part, fact)
                        queue.append(new)
            else:
                pi, i, x, y = fact
                if i == len(rhs[pi]):
                    new = (lhs[pi], x, y)
                    if new not in why:
                        why[new] = (fact,)
                        queue.append(new)
                        if new == stop:
                            return
                else:
                    s = rhs[pi][i]
                    parts_waiting[s * n + y].append(fact)
                    for z in fulls_from[s * n + y]:
                        new = (pi, i + 1, x, z)
                        if new not in why:
                            why[new] = (fact, (s, y, z))
                            queue.append(new)

    def full(self, s: Sym, start, end) -> Optional[tuple]:
        """The fact that a walk start to end spells a string derivable
        from s, or None when there is no such walk; a stopped worklist
        runs on until it records the fact or is empty."""
        fact = (_CODE[s], self.num[start], self.num[end])
        if fact not in self.why and self.queue:
            self._run(fact)
        return fact if fact in self.why else None

    def forward(self) -> list:
        """Full forward facts, in the order they were derived."""
        fwd = _CODE[Sym.FWD]
        return [f for f in self.why if len(f) == 3 and f[0] == fwd]

    def path_of(self, fact: tuple) -> PropPath:
        """Unfold the witnesses of fact, leftmost first, into its walk."""
        names = self.names
        nodes, steps = [names[fact[-2]]], []
        todo = [fact]
        while todo:
            fact = todo.pop()
            why = self.why[fact]
            if why is _EDGE:
                steps.append(_LETTERS[fact[0]])
                nodes.append(names[fact[2]])
            else:
                # a step's part unfolds before its full: push it last
                todo.extend(reversed(why))
        return PropPath._trusted(tuple(nodes), tuple(steps))


def derives(g: Grammar, start: Sym, target: Iterable[Sym]) -> bool:
    """Whether start ⟹* target under the rewrite productions.

    A reachability query on the target's line graph: nodes 0..n and one
    edge i→i+1 per letter, so the only walk from 0 to n spells the
    target.  The empty target needs no special case: the saturator
    seeds every nullable symbol as a walk from a node to itself.

    Targets up to DERIVES_MEMO_TEXT letters are answered from a memo of
    the last DERIVES_MEMO_SIZE questions.
    """
    t = syms(target)
    if len(t) <= DERIVES_MEMO_TEXT:
        return _derives_memo(g, start, t)
    return _derives(g, start, t)


def _derives(g: Grammar, start: Sym, t: tuple) -> bool:
    line = PropGraph(frozenset(range(len(t) + 1)),
                     frozenset((i, c, i + 1) for i, c in enumerate(t)))
    return _Saturator(line, g).full(start, 0, len(t)) is not None


# As parse_formula's memo: at most DERIVES_MEMO_SIZE questions whose
# target has at most DERIVES_MEMO_TEXT letters, so a long-lived process
# keeps a bounded amount of them.
DERIVES_MEMO_SIZE = 4096
DERIVES_MEMO_TEXT = 64
_derives_memo = lru_cache(maxsize=DERIVES_MEMO_SIZE)(_derives)


# Most facts the witness saturation of reachable and reach_all may
# record.  The saturation's time is about cubic in a chain's length, and
# grows with its facts: under hsl(1,1) the yes-case of a 128-edge chain
# records 98,566 facts and answers in about 1 s (reach_all there, which
# also unfolds all 16,000 walks, about 3.5 s); a 129-edge chain records
# 100,110 and is refused.  Facts, not nodes, are counted, since a line
# graph of 500 nodes saturates in 5,505 facts.
MAX_SATURATION_FACTS = 100_000

# Most nodes a graph given to reachable or reach_all may have.  The
# bitmask closure that decides reachable's pair takes about cubic time
# in a chain's length: on a 512-node chain it took 0.6 s under hsl(1,1),
# 1.1 s under hsl(2,2) and 2.2 s under (0,2), (1,0), (1,1), (2,1) and
# (2,2) together, and on a 1,000-node chain 4.3 s under hsl(1,1).  The
# prover's reach tables call reach_masks directly and are not limited.
MAX_REACH_NODES = 512


def _check_size(pg: PropGraph):
    if len(pg.nodes) > MAX_REACH_NODES:
        raise ValueError(f"graph of {len(pg.nodes)} nodes too large: "
                         f"reachability is limited to {MAX_REACH_NODES} nodes")


def reachable(pg: PropGraph, g: Grammar, start: str, end: str) -> Optional[PropPath]:
    """A witness walk start→end spelling a forward-derivable string, or None.

    reach_masks decides the pair first, on pg's converse closure: that
    graph has every walk pg has, so a pair it does not reach has no walk.
    Only a pair it reaches is saturated, for the saturator's first
    derivation as the witness; the closure costs a small part of a
    saturation, which is cubic in the graph's size.  ValueError if pg
    has more than MAX_REACH_NODES nodes, or if that saturation passes
    MAX_SATURATION_FACTS.
    """
    if start not in pg.nodes:
        raise ValueError(f"unknown node {start!r}")
    if end not in pg.nodes:
        raise ValueError(f"unknown node {end!r}")
    _check_size(pg)
    num = {v: i for i, v in enumerate(pg.nodes)}
    rel = [(num[x], num[y]) if _CODE[s] else (num[y], num[x])
           for x, s, y in pg.edges]
    if not reach_masks(len(num), rel, g)[num[start]] >> num[end] & 1:
        return None
    sat = _Saturator(pg, g, MAX_SATURATION_FACTS)
    fact = sat.full(Sym.FWD, start, end)
    return None if fact is None else sat.path_of(fact)


def reach_all(pg: PropGraph, g: Grammar) -> dict:
    """Witness walks for every forward-reachable ordered pair; ValueError
    if pg has more than MAX_REACH_NODES nodes, or if the saturation
    passes MAX_SATURATION_FACTS."""
    _check_size(pg)
    sat = _Saturator(pg, g, MAX_SATURATION_FACTS)
    return {(sat.names[f[1]], sat.names[f[2]]): sat.path_of(f) for f in sat.forward()}


def reach_masks(n: int, rel: Iterable[tuple[int, int]], g: Grammar) -> list:
    """For each node x of the propagation graph of rel on nodes 0..n-1,
    the bitmask of the nodes y that x reaches: some walk x to y spells a
    string derivable from the forward letter.  As in graph_from_pairs,
    each pair (w, u) of rel gives edges w→u forward and u→w backward.

    A boolean closure, with no witness: row (s, x) is the bitmask of the
    y with such a walk for letter s.  Rows start from the edges and, for
    nullable letters, the diagonal; each production then ORs the
    composition of its right-hand side's rows into its left-hand side's,
    row by row, until no row grows.
    """
    rows = {s: [0] * n for s in Sym}
    for w, u in rel:
        rows[Sym.FWD][w] |= 1 << u
        rows[Sym.BWD][u] |= 1 << w
    for s in _nullable(g):
        row = rows[s]
        for x in range(n):
            row[x] |= 1 << x
    # an erasing production's part is the diagonal seed
    prods = [(rows[p.lhs], rows[p.rhs[0]], [rows[c] for c in p.rhs[1:]])
             for p in g.sorted_productions() if p.rhs]
    grew = True
    while grew:
        grew = False
        for lhs, first, rest in prods:
            for x in range(n):
                reach = first[x]
                for row in rest:
                    step = 0
                    while reach:
                        low = reach & -reach
                        step |= row[low.bit_length() - 1]
                        reach ^= low
                    reach = step
                if reach & ~lhs[x]:
                    lhs[x] |= reach
                    grew = True
    return rows[Sym.FWD]
