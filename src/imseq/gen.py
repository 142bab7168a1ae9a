"""Seeded random generators for formulas, sequents, and proofs.

Everything takes an explicit random.Random, so callers control
reproducibility and nothing touches the global RNG state.

The proof generator grows a derivation downward from a root that keeps
a falsum antecedent member.  No rule below ever consumes that member,
so every branch can close with botL at any point; this produces
checking proofs with a realistic rule mix and no search.
"""

from __future__ import annotations

import random

from .formula import And, Atom, AxiomSet, Bot, Box, Dia, Formula, Imp, Or
from .grammar import PropPath, Sym, grammar_from_axioms, reach_all
from .labelled import (LabelledProof, LabelledSequent, labelled_params,
                       premises_of_labelled, prop_graph_of)
from .nested import NestedSequent, all_paths, map_node
from .proof import RuleError
from .translate import to_labelled

_ATOMS = ("p", "q", "r")
_SPLIT_LEFT = {And: "andL", Or: "orL", Imp: "impL"}


def random_formula(rng: random.Random, depth: int, atoms: tuple = _ATOMS) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return Bot() if rng.random() < 0.08 else Atom(rng.choice(atoms))
    kind = rng.randrange(5)
    if kind == 3:
        return Dia(random_formula(rng, depth - 1, atoms))
    if kind == 4:
        return Box(random_formula(rng, depth - 1, atoms))
    cls = (And, Or, Imp)[kind]
    return cls(random_formula(rng, depth - 1, atoms),
               random_formula(rng, depth - 1, atoms))


def random_full_nested(rng: random.Random, depth: int = 2, width: int = 2,
                       fdepth: int = 2, atoms: tuple = _ATOMS) -> NestedSequent:
    """A random bracket tree with one output at a random position."""

    def build(d: int) -> NestedSequent:
        inputs = tuple(random_formula(rng, fdepth, atoms)
                       for _ in range(rng.randrange(3)))
        kids = ()
        if d > 0:
            kids = tuple(build(d - 1) for _ in range(rng.randrange(width + 1)))
        return NestedSequent(inputs, None, kids)

    base = build(depth)
    spot = rng.choice(all_paths(base))
    out = random_formula(rng, fdepth, atoms)
    return map_node(base, spot,
                    lambda nd: NestedSequent(nd.inputs, out, nd.children))


def random_tree_labelled(rng: random.Random, depth: int = 2, width: int = 2,
                         fdepth: int = 2, atoms: tuple = _ATOMS) -> LabelledSequent:
    """A labelled tree sequent with scrambled names and stored order."""
    base = to_labelled(random_full_nested(rng, depth, width, fdepth, atoms))
    labs = sorted(base.labels())
    names = [f"x{i}" for i in range(len(labs))]
    rng.shuffle(names)
    ren = dict(zip(labs, names))
    rel = [(ren[w], ren[u]) for w, u in base.rel]
    ante = [(ren[w], f) for w, f in base.ante]
    rng.shuffle(rel)
    rng.shuffle(ante)
    return LabelledSequent(tuple(rel), tuple(ante),
                           (ren[base.succ[0]], base.succ[1]))


def _chain(rng: random.Random, adj: dict, start: str, length: int):
    chain = [start]
    for _ in range(length):
        step = sorted(adj.get(chain[-1], ()))
        if not step:
            return None
        chain.append(rng.choice(step))
    return chain


def _base_root(rng: random.Random, fdepth: int, atoms: tuple) -> LabelledSequent:
    labs = [f"x{i}" for i in range(rng.randrange(2, 5))]
    rel = []
    for _ in range(rng.randrange(1, 2 * len(labs))):
        a, b = rng.choice(labs), rng.choice(labs)
        if a != b:
            rel.append((a, b))
    ante = [(rng.choice(labs), random_formula(rng, fdepth, atoms))
            for _ in range(rng.randrange(3))]
    ante.append((rng.choice(labs), Bot()))
    succ = (rng.choice(labs), random_formula(rng, fdepth, atoms))
    return LabelledSequent(tuple(rel), tuple(ante), succ)


def _tree_root(rng: random.Random, fdepth: int, atoms: tuple) -> LabelledSequent:
    base = random_tree_labelled(rng, 2, 2, fdepth, atoms)
    ante = base.ante + ((rng.choice(sorted(base.labels())), Bot()),)
    return LabelledSequent(base.rel, ante, base.succ)


def random_labelled_proof(rng: random.Random, ax: AxiomSet,
                          mode: str = "refined", budget: int = 5,
                          fdepth: int = 2, atoms: tuple = _ATOMS,
                          root: LabelledSequent = None) -> LabelledProof:
    """A checking proof in the chosen mode, grown from a random root.

    Base mode draws on the relational rules (diaR, boxL, S) over an
    arbitrary graph; refined mode draws on the propagation rules over a
    tree, so every sequent in the result stays a tree.  A caller-chosen
    root must contain a falsum antecedent member.
    """
    if mode not in ("base", "refined"):
        raise ValueError(f"mode must be 'base' or 'refined', not {mode!r}")
    g = grammar_from_axioms(ax)
    counter = [0]

    def fresh(seq: LabelledSequent) -> str:
        while True:
            lab = f"f{counter[0]}"
            counter[0] += 1
            if lab not in seq.labels():
                return lab

    def candidates(seq: LabelledSequent) -> list:
        rel, ante, (w_s, f_s) = seq.rel, seq.ante, seq.succ
        labs = sorted(seq.labels())
        reach = reach_all(prop_graph_of(seq), g) if mode == "refined" else {}
        out = []
        for w, f in ante:
            if type(f) in _SPLIT_LEFT:
                rule = _SPLIT_LEFT[type(f)]
                out.append((rule, labelled_params(rule, w, f)))
            elif isinstance(f, Dia):
                out.append(("diaL", labelled_params("diaL", w, f, u=fresh(seq))))
            elif isinstance(f, Box):
                if mode == "base":
                    tos = sorted({u for a, u in rel if a == w})
                    if tos:
                        out.append(("boxL", labelled_params("boxL", w, f,
                                                            u=rng.choice(tos))))
                else:
                    hits = sorted((t, p) for (a, t), p in reach.items() if a == w)
                    if hits:
                        t, path = rng.choice(hits)
                        out.append(("pbox", labelled_params("pbox", w, f, u=t,
                                                            walk=path)))
        if isinstance(f_s, And):
            out.append(("andR", {}))
        elif isinstance(f_s, Or):
            out.append(("orR", labelled_params("orR", i=rng.choice((0, 1)))))
        elif isinstance(f_s, Imp):
            out.append(("impR", {}))
        elif isinstance(f_s, Box):
            out.append(("boxR", labelled_params("boxR", u=fresh(seq))))
        elif isinstance(f_s, Dia):
            if mode == "base":
                tos = sorted({u for a, u in rel if a == w_s})
                if tos:
                    out.append(("diaR", labelled_params("diaR", u=rng.choice(tos))))
            else:
                hits = sorted((t, p) for (a, t), p in reach.items() if a == w_s)
                if hits:
                    walk = rng.choice(hits)[1]
                    out.append(("pdia", labelled_params("pdia", walk=walk)))
        if mode == "base":
            adj: dict = {}
            for a, b in rel:
                adj.setdefault(a, set()).add(b)
            for n, k in sorted(ax.hsl):
                start = rng.choice(labs)
                cn = _chain(rng, adj, start, n)
                ck = _chain(rng, adj, start, k)
                if cn is not None and ck is not None:  # back along cn, on along ck
                    walk = PropPath(tuple(cn[::-1] + ck[1:]),
                                    (Sym.BWD,) * n + (Sym.FWD,) * k)
                    out.append(("S", labelled_params("S", walk=walk)))
        if ax.has_d:
            out.append(("d", labelled_params("d", rng.choice(labs), u=fresh(seq))))
        return out

    def grow(seq: LabelledSequent, budget: int) -> LabelledProof:
        if budget <= 0 or rng.random() < 0.25:
            return LabelledProof(seq, "botL", {}, ())
        cands = candidates(seq)
        rng.shuffle(cands)
        for rule, params in cands:
            try:
                prems = premises_of_labelled(seq, rule, params, ax)
            except RuleError:
                continue
            return LabelledProof(seq, rule, params,
                                 tuple(grow(p, budget - 1) for p in prems))
        return LabelledProof(seq, "botL", {}, ())

    if root is None:
        root = (_tree_root if mode == "refined" else _base_root)(rng, fdepth, atoms)
    return grow(root, budget)
