"""String grammars induced by the axiom pairs, and path reachability.

Each (n, k) pair contributes two rewrite productions over the two-letter
alphabet: forward ⟶ n backwards then k forwards, and backward ⟶ k
backwards then n forwards.  A relational atom w R u gives a forward edge
w→u and a backward edge u→w.  A target node is reachable from a source
when some walk between them spells a string derivable from the forward
letter.  Letters print as ``d`` (forward) and ``b`` (backward).

Both questions are answered by one algorithm, CFL reachability: a
worklist saturates facts "some walk x to y spells a string derivable
from S" over a graph.  ``reachable`` and ``reach_all`` run it on a
propagation graph and unfold witness walks from the recorded facts;
``derives`` runs it on the line graph of the target string.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .formula import AxiomSet


class Sym(str, Enum):
    FWD = "d"
    BWD = "b"

    def converse(self) -> "Sym":
        return Sym.BWD if self is Sym.FWD else Sym.FWD

    def __str__(self) -> str:
        return self.value


def syms(text: Iterable[str]) -> tuple[Sym, ...]:
    """Convert 'd'/'b' characters (or Syms) to a symbol tuple."""
    return tuple(Sym(c) for c in text)


def converse_string(s: Iterable[Sym]) -> tuple[Sym, ...]:
    return tuple(c.converse() for c in reversed(tuple(s)))


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


def grammar_from_axioms(ax: AxiomSet) -> Grammar:
    """Two productions per (n, k) pair; the seriality flag adds none."""
    prods = set()
    for n, k in ax.hsl:
        prods.add(Production(Sym.FWD, (Sym.BWD,) * n + (Sym.FWD,) * k))
        prods.add(Production(Sym.BWD, (Sym.BWD,) * k + (Sym.FWD,) * n))
    return Grammar(frozenset(prods))


def one_step(g: Grammar, s: Iterable[Sym]) -> set:
    """All strings obtained by rewriting one occurrence."""
    s = tuple(s)
    out = set()
    for p in g.productions:
        for i, c in enumerate(s):
            if c == p.lhs:
                out.add(s[:i] + p.rhs + s[i + 1:])
    return out


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

    @property
    def start(self) -> str:
        return self.nodes[0]

    @property
    def end(self) -> str:
        return self.nodes[-1]

    @property
    def string(self) -> str:
        return "".join(c.value for c in self.steps)

    def converse(self) -> "PropPath":
        return PropPath(tuple(reversed(self.nodes)), converse_string(self.steps))

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
        return PropPath(tuple(items[0::2]), syms(items[1::2]))

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


def path_in_graph(pg: PropGraph, path: PropPath) -> bool:
    if any(v not in pg.nodes for v in path.nodes):
        return False
    return all(
        (path.nodes[i], path.steps[i], path.nodes[i + 1]) in pg.edges
        for i in range(len(path.steps))
    )


class _Saturator:
    """CFL-reachability worklist over a graph and grammar.

    Facts are Full(S, x, y), a walk x to y spelling a string derivable
    from S, and Part(p, i, x, y), the first i letters of production
    p's right-hand side jointly spelling a walk x to y.  Witnesses are
    recorded at first derivation, so reconstruction is well founded.
    """

    def __init__(self, pg: PropGraph, g: Grammar):
        self.prods = g.sorted_productions()
        self.null = _nullable(g)
        self.witness: dict[tuple, tuple] = {}
        self.queue: deque = deque()
        self.fulls_from: dict[tuple, set] = {}
        self.parts_waiting: dict[tuple, list] = {}
        for x, s, y in sorted(pg.edges):
            self._add(("F", s, x, y), ("edge",))
        for x in sorted(pg.nodes):
            for s in sorted(self.null, key=lambda c: c.value):
                self._add(("F", s, x, x), ("null",))
            for pi in range(len(self.prods)):
                self._add(("P", pi, 0, x, x), ("start",))
        self._run()

    def _add(self, fact: tuple, why: tuple):
        if fact in self.witness:
            return
        self.witness[fact] = why
        self.queue.append(fact)

    def _run(self):
        while self.queue:
            fact = self.queue.popleft()
            if fact[0] == "F":
                _, s, x, y = fact
                self.fulls_from.setdefault((s, x), set()).add(y)
                for part in self.parts_waiting.get((s, x), []):
                    _, pi, i, w, _x = part
                    self._add(("P", pi, i + 1, w, y), ("step", part, fact))
            else:
                _, pi, i, x, y = fact
                rhs = self.prods[pi].rhs
                if i == len(rhs):
                    self._add(("F", self.prods[pi].lhs, x, y), ("prod", fact))
                else:
                    s = rhs[i]
                    self.parts_waiting.setdefault((s, y), []).append(fact)
                    for z in sorted(self.fulls_from.get((s, y), ())):
                        self._add(("P", pi, i + 1, x, z), ("step", fact, ("F", s, y, z)))

    def path_of(self, fact: tuple) -> PropPath:
        """Unfold the witnesses of fact, leftmost first, into its walk."""
        nodes, steps = [fact[-2]], []
        todo = [fact]
        while todo:
            fact = todo.pop()
            why = self.witness[fact]
            if why[0] == "edge":
                steps.append(fact[1])
                nodes.append(fact[3])
            elif why[0] == "prod":
                todo.append(why[1])
            elif why[0] == "step":
                # part then full: push the full first so the part unfolds first
                todo.append(why[2])
                todo.append(why[1])
        return PropPath(tuple(nodes), tuple(steps))


def derives(g: Grammar, start: Sym, target: Iterable[Sym]) -> bool:
    """Whether start ⟹* target under the rewrite productions.

    A reachability query on the target's line graph: nodes 0..n and one
    edge i→i+1 per letter, so the only walk from 0 to n spells the
    target.  The empty target needs no special case: the saturator
    seeds every nullable symbol as a walk from a node to itself.
    """
    t = syms(target)
    line = PropGraph(frozenset(range(len(t) + 1)),
                     frozenset((i, c, i + 1) for i, c in enumerate(t)))
    return ("F", start, 0, len(t)) in _Saturator(line, g).witness


def reachable(pg: PropGraph, g: Grammar, start: str, end: str) -> Optional[PropPath]:
    """A witness walk start→end spelling a forward-derivable string, or None."""
    if start not in pg.nodes:
        raise ValueError(f"unknown node {start!r}")
    if end not in pg.nodes:
        raise ValueError(f"unknown node {end!r}")
    sat = _Saturator(pg, g)
    fact = ("F", Sym.FWD, start, end)
    if fact not in sat.witness:
        return None
    return sat.path_of(fact)


def reach_all(pg: PropGraph, g: Grammar) -> dict:
    """Witness walks for every forward-reachable ordered pair."""
    sat = _Saturator(pg, g)
    out = {}
    for fact in sat.witness:
        if fact[0] == "F" and fact[1] is Sym.FWD:
            out[(fact[2], fact[3])] = sat.path_of(fact)
    return out
