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
from .labelled import (LabelledProof, LabelledSequent, check_labelled,
                       premises_of_labelled)
from .proof import RuleError, _p_chain, _p_int


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


def _push_up(concl: LabelledSequent, sp: dict, pi: LabelledProof,
             ax: AxiomSet) -> LabelledProof:
    """Proof of concl given pi proving concl plus the S edge, S-free."""
    if pi.rule in ("id", "botL"):
        return LabelledProof(concl, pi.rule, dict(pi.params), ())
    if pi.rule == "S":
        raise RuntimeError("subproof above a pushed step is not structural-free")
    params = dict(pi.params)
    if pi.rule in ("pdia", "pbox"):
        n = _p_int(sp, "n")
        k = _p_int(sp, "k")
        cn = _p_chain(sp, "chain_n", n + 1)
        ck = _p_chain(sp, "chain_k", k + 1)
        path = PropPath.from_list(params["path"])
        params["path"] = _detour_path(path, (cn[-1], ck[-1]), cn, ck).to_list()
    try:
        prems = premises_of_labelled(concl, pi.rule, params, ax)
    except RuleError as e:
        raise RuntimeError(
            f"pushing a structural step past {pi.rule} failed: {e}") from e
    subs = tuple(_push_up(c, sp, sub, ax)
                 for c, sub in zip(prems, pi.premises))
    return LabelledProof(concl, pi.rule, params, subs)


def eliminate_structural(p: LabelledProof, ax: AxiomSet) -> LabelledProof:
    """Rewrite a proof into the propagation-only rule set.

    The input must check with the combined rule set; the output proves
    the same conclusion without diaR, boxL, or S.  Callers wanting a
    guarantee can re-check the result in refined mode.
    """
    res = check_labelled(p, ax, "either")
    if not res:
        raise ValueError(f"input proof does not check: {res.message} at {res.at}")

    fwd = Sym.FWD.value

    def elim(q: LabelledProof) -> LabelledProof:
        subs = tuple(elim(s) for s in q.premises)
        if q.rule == "S":
            return _push_up(q.conclusion, q.params, subs[0], ax)
        if q.rule == "diaR":
            w = q.conclusion.succ[0]
            path = [w, fwd, q.params["to"]]
            return LabelledProof(q.conclusion, "pdia", {"path": path}, subs)
        if q.rule == "boxL":
            params = {"world": q.params["world"],
                      "formula": q.params["formula"],
                      "to": q.params["to"],
                      "path": [q.params["world"], fwd, q.params["to"]]}
            return LabelledProof(q.conclusion, "pbox", params, subs)
        return LabelledProof(q.conclusion, q.rule, dict(q.params), subs)

    return elim(p)
