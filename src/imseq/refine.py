"""Eliminating relational structural steps from labelled proofs.

eliminate_structural turns a proof that may use the base relational
rules (diaR, boxL) and the interaction rule S into a propagation-only
proof of the same conclusion.  diaR and boxL become one-step
propagation instances.  Each S application is pushed upward through
its subproof: logical rules commute with dropping the S-created edge,
and a propagation path that walks the dropped edge is rerouted around
the S chains, which mirrors one production of the path grammar, so
derivability of the path string is preserved.
"""

from __future__ import annotations

from .formula import AxiomSet
from .grammar import PropPath, Sym
from .labelled import (LabelledProof, check_labelled, labelled_params,
                       premises_of_labelled, read_labelled)
from .proof import RuleError, rebuild


def _detour_path(path: PropPath, edge: tuple, cn: list, ck: list) -> PropPath:
    """Replace every step over `edge` by a walk around the S chains."""
    u, v = edge
    nodes = [path.nodes[0]]
    steps = []

    def extend(chain, sym):
        for b in chain[1:]:
            steps.append(sym)
            nodes.append(b)

    for a, s, b in zip(path.nodes, path.steps, path.nodes[1:]):
        if s == Sym.FWD and (a, b) == (u, v):
            extend(list(reversed(cn)), Sym.BWD)
            extend(ck, Sym.FWD)
        elif s == Sym.BWD and (a, b) == (v, u):
            extend(list(reversed(ck)), Sym.BWD)
            extend(cn, Sym.FWD)
        else:
            steps.append(s)
            nodes.append(b)
    return PropPath(tuple(nodes), tuple(steps))


# the propagation rule each base relational rule becomes
_PROPAGATION = {"diaR": "pdia", "boxL": "pbox"}


def eliminate_structural(p: LabelledProof, ax: AxiomSet) -> LabelledProof:
    """Rewrite a proof into the propagation-only rule set.

    The input must check with the combined rule set; the output proves
    the same conclusion without diaR, boxL, or S.  Callers wanting a
    guarantee can re-check the result in refined mode.

    One top-down walk: an S node is skipped and its chains are carried
    to the nodes above, whose conclusions are then recomputed from the
    S node's conclusion (the S edge dropped) and whose propagation
    paths are detoured around every carried S edge, innermost first.  A
    node with no S below it keeps its stored conclusion.
    """
    res = check_labelled(p, ax, "either")
    if not res:
        raise ValueError(f"input proof does not check: {res.message} at {res.at}")

    def visit(q, state):
        concl, carried = state
        if not carried:
            concl = q.conclusion
        while q.rule == "S":  # its walk goes back along chain_n, on along chain_k
            walk = read_labelled(q.conclusion, "S", q.params)[4]
            n = walk.steps.count(Sym.BWD)
            carried = carried + ((walk.nodes[n::-1], walk.nodes[n:]),)
            q = q.premises[0]
        rule, params = _PROPAGATION.get(q.rule, q.rule), dict(q.params)
        if rule != q.rule or carried and rule in ("pdia", "pbox"):
            w, f, i, u, path = read_labelled(q.conclusion, q.rule, q.params)
            path = path or PropPath((w, u), (Sym.FWD,))  # diaR, boxL: one step
            for cn, ck in reversed(carried):
                path = _detour_path(path, (cn[-1], ck[-1]), cn, ck)
            params = labelled_params(rule, w, f, i, u, path)
        if not carried:
            return concl, rule, params, [(s, (None, ())) for s in q.premises]
        if not q.premises:
            return concl, rule, params, []
        try:
            prems = premises_of_labelled(concl, rule, params, ax)
        except RuleError as e:
            raise RuntimeError(
                f"pushing a structural step past {rule} failed: {e}") from e
        return concl, rule, params, [(s, (c, carried))
                                     for c, s in zip(prems, q.premises)]

    return rebuild(p, visit, (None, ()))
