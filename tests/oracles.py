"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's algorithms: string derivability
is a breadth-first closure over one-step rewrites, path search is a naive
length-bounded enumeration, and model evaluation expands quantifiers
without memoization.
"""

from __future__ import annotations

import random
from collections import deque

from imseq.formula import And, Atom, Bot, Box, Dia, Imp, Or
from imseq.grammar import Grammar, PropGraph, Sym, syms


def one_step(g: Grammar, s) -> set:
    """All strings obtained by rewriting one occurrence."""
    s = tuple(s)
    out = set()
    for p in g.productions:
        for i, c in enumerate(s):
            if c == p.lhs:
                out.add(s[:i] + p.rhs + s[i + 1:])
    return out


def closure_strings(g: Grammar, start: Sym, max_len: int) -> dict:
    """Strings derivable from start, all intermediates of length <= max_len.

    Returns string -> minimal number of one-step rewrites.  Bounded:
    derivations that must pass through longer intermediates are missed,
    which can only happen when erasing productions are present.
    """
    first = (start,)
    if len(first) > max_len:
        return {}
    steps = {first: 0}
    queue = deque([first])
    while queue:
        s = queue.popleft()
        for t in one_step(g, s):
            if len(t) <= max_len and t not in steps:
                steps[t] = steps[s] + 1
                queue.append(t)
    return {"".join(c.value for c in s): n for s, n in steps.items()}


def path_strings(pg: PropGraph, max_edges: int) -> dict:
    """(start, end) -> set of strings of walks with <= max_edges steps."""
    out = {}
    for x in pg.nodes:
        out[(x, x)] = {""}
    frontier = {(x, x, "") for x in pg.nodes}
    for _ in range(max_edges):
        nxt = set()
        for x, y, s in frontier:
            for a, c, b in pg.edges:
                if a == y:
                    fact = (x, b, s + c.value)
                    if fact not in nxt:
                        nxt.add(fact)
        new = set()
        for x, b, s in nxt:
            bucket = out.setdefault((x, b), set())
            if s not in bucket:
                bucket.add(s)
                new.add((x, b, s))
        frontier = new
        if not frontier:
            break
    return out


def oracle_reachable(pg: PropGraph, g: Grammar, start: str, end: str,
                     max_edges: int = 8, max_len: int = 8) -> bool:
    lang = closure_strings(g, Sym.FWD, max_len)
    strings = path_strings(pg, max_edges).get((start, end), set())
    return any(s in lang for s in strings)


def oracle_derives(g: Grammar, start: Sym, target, slack: int = 6) -> bool:
    t = syms(target)
    lang = closure_strings(g, start, max(len(t), 1) + slack)
    return "".join(c.value for c in t) in lang


def eval_naive(m, w, f) -> bool:
    """Quantifier-literal reimplementation of formula evaluation."""
    if isinstance(f, Atom):
        return (w, f.name) in m.val
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return eval_naive(m, w, f.left) and eval_naive(m, w, f.right)
    if isinstance(f, Or):
        return eval_naive(m, w, f.left) or eval_naive(m, w, f.right)
    if isinstance(f, Imp):
        for u in m.worlds:
            if (w, u) in m.leq:
                if eval_naive(m, u, f.left) and not eval_naive(m, u, f.right):
                    return False
        return True
    if isinstance(f, Dia):
        return any((w, v) in m.acc and eval_naive(m, v, f.body) for v in m.worlds)
    if isinstance(f, Box):
        for u in m.worlds:
            if (w, u) in m.leq:
                for v in m.worlds:
                    if (u, v) in m.acc and not eval_naive(m, v, f.body):
                        return False
        return True
    raise TypeError(f)


def rand_formula(rng: random.Random, depth: int):
    """Small random formula over atoms p, q, r; test plumbing only."""
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice("pqr")) if rng.random() < 0.85 else Bot()
    kind = rng.choice("AOIDB")
    if kind == "A":
        return And(rand_formula(rng, depth - 1), rand_formula(rng, depth - 1))
    if kind == "O":
        return Or(rand_formula(rng, depth - 1), rand_formula(rng, depth - 1))
    if kind == "I":
        return Imp(rand_formula(rng, depth - 1), rand_formula(rng, depth - 1))
    if kind == "D":
        return Dia(rand_formula(rng, depth - 1))
    return Box(rand_formula(rng, depth - 1))
