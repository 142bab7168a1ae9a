"""Height-preserving structural transformations on nested proofs.

Four admissible steps: wrapping the conclusion in a bracket, weakening
by an output-free context at a node, contracting a duplicate input, and
merging two output-free sibling brackets.  Each walks the proof once
with ``imseq.proof.rebuild`` (contraction also recurses on the
formula), rebuilding every rule instance; results re-check and are
never taller than the source.

Occurrences are tracked by formula at a fixed node, not by position:
stored input order inside a rebuilt proof can drift from the order a
rule application would produce, but sequent equality is multiset-based,
so replacing or dropping any equal copy yields the same sequent.
Brackets have no such key, so merging aligns them against the premise
shapes a rule instance computes.
"""

from __future__ import annotations

from .formula import And, Dia, Imp, Or, render_formula
from .nested import (NestedProof, NestedSequent, _premises, map_node,
                     match_children, node_at, nseq, output_count,
                     parse_path_id, path_id, read_nested, replace_at)
from .proof import rebuild


def _input_index(q: NestedProof, at: tuple):
    """Position of q's principal input if it sits at node `at`, else None
    (orO's principal is its output: its read index is the side kept)."""
    prin, index, _, _ = read_nested(q.conclusion, q.rule, q.params)
    return index if prin == at and q.rule != "orO" else None


def _remap_ids(params: dict, fn) -> dict:
    """params with every node id mapped, as an address tuple, through fn."""
    def remap(nid):
        return path_id(fn(parse_path_id(nid)))

    out = dict(params)
    if "at" in out:
        out["at"] = remap(out["at"])
    if "path" in out:
        out["path"] = [remap(x) if i % 2 == 0 else x
                       for i, x in enumerate(out["path"])]
    return out


def _shift_index(q: NestedProof, at: tuple, removed: int) -> dict:
    """q's params after input `removed` of node `at` is dropped."""
    params = dict(q.params)
    idx = _input_index(q, at)
    if idx is not None and idx > removed:
        params["index"] = idx - 1
    return params


def _first_index(node: NestedSequent, f) -> int:
    for k, g in enumerate(node.inputs):
        if g == f:
            return k
    raise RuntimeError(f"lost the tracked input {render_formula(f)}")


def _principal_holds(q: NestedProof, rule: str, at: tuple, f) -> bool:
    if q.rule != rule:
        return False
    prin, _, g, _ = read_nested(q.conclusion, rule, q.params)
    return prin == at and g == f


def _unchanged(q: NestedProof) -> list:
    return [(s, None) for s in q.premises]


def nest_proof(p: NestedProof) -> NestedProof:
    """Wrap the whole proof's conclusion in one bracket."""
    def visit(q, _):
        return (nseq(children=(q.conclusion,)), q.rule,
                _remap_ids(q.params, lambda a: (0,) + a), _unchanged(q))

    return rebuild(p, visit)


def weaken_proof(p: NestedProof, at: tuple, delta: NestedSequent) -> NestedProof:
    """Add an output-free context at one node, through the whole proof."""
    if output_count(delta) != 0:
        raise ValueError("weakening context must have no output formula")
    node_at(p.conclusion, at)

    def extend(nd):
        return NestedSequent(nd.inputs + delta.inputs, nd.output,
                             nd.children + delta.children)

    def visit(q, _):
        return (map_node(q.conclusion, at, extend), q.rule, dict(q.params),
                _unchanged(q))

    return rebuild(p, visit)


def merge_proof(p: NestedProof, at: tuple, i: int, j: int) -> NestedProof:
    """Merge sibling brackets i and j under at; both must be output-free.

    The state of a node is its (i, j), found for each premise by aligning
    the premise's children with the rule's computed premise shape.
    """
    if not 0 <= i < j:
        raise ValueError("need child indices i < j")
    node = node_at(p.conclusion, at)
    if j >= len(node.children):
        raise ValueError(f"no child {j} under {path_id(at)}")
    if output_count(node.children[i]) or output_count(node.children[j]):
        raise ValueError("merged brackets must have no output formula")
    n = len(at)

    def visit(q, ij):
        i, j = ij
        nd = node_at(q.conclusion, at)
        ci, cj = nd.children[i], nd.children[j]
        assert ci.output is None or cj.output is None
        merged = NestedSequent(ci.inputs + cj.inputs,
                               ci.output if ci.output is not None else cj.output,
                               ci.children + cj.children)
        kids = list(nd.children)
        kids[i] = merged
        del kids[j]
        new_conc = replace_at(q.conclusion, at,
                              NestedSequent(nd.inputs, nd.output, tuple(kids)))

        def remap(a):
            if a[:n] != at or len(a) == n or a[n] < j:
                return a
            if a[n] > j:
                return at + (a[n] - 1,) + a[n + 1:]
            rest = a[n + 1:]
            if rest:
                rest = (rest[0] + len(ci.children),) + rest[1:]
            return at + (i,) + rest

        params = _remap_ids(q.params, remap)
        idx = _input_index(q, at + (j,))
        if idx is not None:
            params["index"] = idx + len(ci.inputs)

        prems = []
        if q.premises:
            shapes = _premises(q.conclusion, q.rule,
                               *read_nested(q.conclusion, q.rule, q.params))
            for sub, shape in zip(q.premises, shapes):
                pos = match_children(node_at(shape, at),
                                     node_at(sub.conclusion, at))
                prems.append((sub, tuple(sorted((pos[i], pos[j])))))
        return new_conc, q.rule, params, prems

    return rebuild(p, visit, (i, j))


def _invert(p: NestedProof, at: tuple, f, side: str = "left") -> NestedProof:
    """Replace one copy of the input f at a node, through the proof, by
    what its input rule leaves in one premise (the side premise of a
    disjunction, the consequent premise of an implication); an instance
    of that rule on the copy gives way to that premise.  A diamond
    leaves no input but a new bracket, so later input indices at the
    node shift down by one."""
    if isinstance(f, And):
        rule, keep, repl = "andI", 0, (f.left, f.right)
    elif isinstance(f, Or):
        rule, keep = "orI", 0 if side == "left" else 1
        repl = (f.right,) if keep else (f.left,)
    elif isinstance(f, Imp):
        rule, keep, repl = "impI", 1, (f.right,)
    else:
        rule, keep, repl = "diaI", 0, ()
    brackets = (nseq(inputs=(f.body,)),) if isinstance(f, Dia) else ()

    def visit(q, _):
        if _principal_holds(q, rule, at, f):
            return q.premises[keep]
        idx = _first_index(node_at(q.conclusion, at), f)
        new_conc = map_node(
            q.conclusion, at,
            lambda nd: NestedSequent(nd.inputs[:idx] + repl[:1]
                                     + nd.inputs[idx + 1:] + repl[1:],
                                     nd.output, nd.children + brackets))
        params = dict(q.params) if repl else _shift_index(q, at, idx)
        return new_conc, q.rule, params, _unchanged(q)

    return rebuild(p, visit)


def invert_and_input(p: NestedProof, at: tuple, idx: int) -> NestedProof:
    """Split a conjunctive input in place; height never grows."""
    f = node_at(p.conclusion, at).inputs[idx]
    if not isinstance(f, And):
        raise ValueError("position does not hold a conjunction")
    return _invert(p, at, f)


def invert_or_input(p: NestedProof, at: tuple, idx: int, side: str) -> NestedProof:
    f = node_at(p.conclusion, at).inputs[idx]
    if not isinstance(f, Or):
        raise ValueError("position does not hold a disjunction")
    return _invert(p, at, f, side)


def invert_imp_input(p: NestedProof, at: tuple, idx: int) -> NestedProof:
    """Replace an implicative input by its consequent; height never grows."""
    f = node_at(p.conclusion, at).inputs[idx]
    if not isinstance(f, Imp):
        raise ValueError("position does not hold an implication")
    return _invert(p, at, f)


def invert_dia_input(p: NestedProof, at: tuple, idx: int) -> NestedProof:
    """Push a diamond input into a fresh bracket; height never grows."""
    f = node_at(p.conclusion, at).inputs[idx]
    if not isinstance(f, Dia):
        raise ValueError("position does not hold a diamond")
    return _invert(p, at, f)


def contract_tree(s: NestedSequent, at: tuple, j: int) -> NestedSequent:
    return map_node(s, at, lambda nd: NestedSequent(
        nd.inputs[:j] + nd.inputs[j + 1:], nd.output, nd.children))


_CONSUMES = {"andI": And, "orI": Or, "impI": Imp, "diaI": Dia}


def _contract(p: NestedProof, at: tuple, f) -> NestedProof:
    """Drop one of two copies of f at a node, through the proof.  Where a
    rule consumed a copy, its premises are inverted and contracted on
    the subformulas, a recursion on the formula, not the proof."""

    def visit(q, _):
        nd = node_at(q.conclusion, at)
        idxs = [k for k, g in enumerate(nd.inputs) if g == f]
        if len(idxs) < 2:
            raise RuntimeError(f"lost a copy of {render_formula(f)}")
        k = _input_index(q, at)

        if q.rule in _CONSUMES and k in idxs:
            keep = next(x for x in idxs if x != k)
            new_conc = contract_tree(q.conclusion, at, k)
            i_new = keep - 1 if keep > k else keep
            params = {"at": path_id(at), "index": i_new}
            if q.rule == "andI":
                s = _invert(q.premises[0], at, f)
                s = _contract(s, at, f.left)
                s = _contract(s, at, f.right)
                return NestedProof(new_conc, "andI", params, (s,))
            if q.rule == "orI":
                sl = _contract(_invert(q.premises[0], at, f, "left"), at, f.left)
                sr = _contract(_invert(q.premises[1], at, f, "right"), at, f.right)
                return NestedProof(new_conc, "orI", params, (sl, sr))
            if q.rule == "impI":
                s0 = _contract(q.premises[0], at, f)
                s1 = _contract(_invert(q.premises[1], at, f), at, f.right)
                return NestedProof(new_conc, "impI", params, (s0, s1))
            s = _invert(q.premises[0], at, f)
            want = nseq(inputs=(f.body,))
            spots = [x for x, c in enumerate(node_at(s.conclusion, at).children)
                     if c == want]
            s = merge_proof(s, at, spots[0], spots[1])
            s = _contract(s, at + (spots[0],), f.body)
            return NestedProof(new_conc, "diaI", params, (s,))

        drop = [x for x in idxs if x != k][-1]
        return (contract_tree(q.conclusion, at, drop), q.rule,
                _shift_index(q, at, drop), _unchanged(q))

    return rebuild(p, visit)


def contract_proof(p: NestedProof, at: tuple, i: int, j: int) -> NestedProof:
    """Contract two equal inputs of one node down to a single copy.

    Recursion on the formula and the proof height; the inversions above
    absorb rule applications that consumed one copy.  The result is one
    copy lighter than the source and never taller.
    """
    if not 0 <= i < j:
        raise ValueError("need input indices i < j")
    node = node_at(p.conclusion, at)
    if j >= len(node.inputs):
        raise ValueError(f"no input {j} at {path_id(at)}")
    if node.inputs[i] != node.inputs[j]:
        raise ValueError("contracted inputs differ: "
                         f"{render_formula(node.inputs[i])} vs "
                         f"{render_formula(node.inputs[j])}")
    return _contract(p, at, node.inputs[i])
