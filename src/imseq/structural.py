"""Height-preserving structural transformations on nested proofs.

Four admissible steps: wrapping the conclusion in a bracket, weakening
by an output-free context at a node, contracting a duplicate input, and
merging two output-free sibling brackets.  Each walks the proof once
with ``imseq.proof.rebuild`` (contraction also recurses on the
formula), rebuilding every rule instance; results re-check and are
never taller than the source.  What an input rule does to its
principal, which inversion and contraction replay, is read from the
nested rule table, ``nested._premise_edits``.

Occurrences are tracked by formula at a fixed node, not by position:
stored input order inside a rebuilt proof can drift from the order a
rule application would produce, but sequent equality is multiset-based,
so replacing or dropping any equal copy yields the same sequent.
Brackets have no such key, so merging aligns them against the premise
shapes a rule instance computes.
"""

from __future__ import annotations

from collections.abc import Sequence

from .formula import And, Dia, Imp, Or, render_formula
from .nested import (_INPUT_RULES, NestedProof, NestedSequent, _applied, _edit,
                     _premise_edits, _premises, map_node, match_children,
                     node_at, nseq, output_count, parse_path_id, path_id,
                     read_nested, replace_at)
from .proof import rebuild

# the input rule of each connective
_RULE_OF = {cls: rule for rule, cls in _INPUT_RULES.items()}


def _input_index(q: NestedProof, reading: tuple, at: tuple):
    """Position of q's principal input, given q's read_nested reading,
    if it sits at node `at`, else None (orO's principal is its output:
    its read index is the side kept)."""
    prin, index = reading[:2]
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


def _params_after(q: NestedProof, reading: tuple, edit: tuple) -> dict:
    """q's params once one node edit rewrites its conclusion: an edit
    that drops an input ahead of q's principal input moves its index."""
    at, i, fs = edit[:3]
    params = dict(q.params)
    k = _input_index(q, reading, at)
    if k is not None and not fs and i < k:
        params["index"] = k - 1
    return params


def _first_index(node: NestedSequent, f) -> int:
    for k, g in enumerate(node.inputs):
        if g == f:
            return k
    raise RuntimeError(f"lost the tracked input {render_formula(f)}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _address(at) -> tuple:
    """at as a tuple of child indices, or ValueError unless it is a
    sequence of ints."""
    if (not isinstance(at, Sequence) or isinstance(at, (str, bytes))
            or not all(map(_is_int, at))):
        raise ValueError(f"bad node address {at!r}")
    return tuple(at)


def _index_pair(i, j, what: str):
    """ValueError unless i and j are ints with 0 <= i < j."""
    for x in (i, j):
        if not _is_int(x):
            raise ValueError(f"{what} index must be an int, got {x!r}")
    if not 0 <= i < j:
        raise ValueError(f"need {what} indices i < j")


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
    at = _address(at)
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
    at = _address(at)
    _index_pair(i, j, "child")
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

        reading = read_nested(q.conclusion, q.rule, q.params)
        params = _remap_ids(q.params, remap)
        idx = _input_index(q, reading, at + (j,))
        if idx is not None:
            params["index"] = idx + len(ci.inputs)

        prems = []
        if q.premises:
            shapes = _premises(q.conclusion, q.rule, *reading)
            for sub, shape in zip(q.premises, shapes):
                pos = match_children(node_at(shape, at),
                                     node_at(sub.conclusion, at))
                prems.append((sub, tuple(sorted((pos[i], pos[j])))))
        return new_conc, q.rule, params, prems

    return rebuild(p, visit, (i, j))


def _invert(p: NestedProof, at: tuple, f, keep: int = 0) -> NestedProof:
    """Replace one copy of the input f at a node, through the proof, by
    what premise keep of its input rule makes of it (keep is the side
    of a disjunction, 1 for an implication's consequent premise, else
    0); an instance of that rule on the copy gives way to that premise.
    A diamond leaves no input but a new bracket, so later input indices
    at the node shift down by one."""
    rule = _RULE_OF[type(f)]
    # What that premise does to a lone copy of f at the root, it does to
    # a copy anywhere.  The copy's output gives impI's other premise,
    # which the table also computes, an output to prune.
    [(_, _, fs, out, kid)] = _premise_edits(nseq((f,), f), rule, (), 0, f, None)[keep]

    def visit(q, _):
        reading = read_nested(q.conclusion, q.rule, q.params)
        if q.rule == rule and reading[0] == at and reading[2] == f:
            return q.premises[keep]
        edit = _edit(at, _first_index(node_at(q.conclusion, at), f), fs, out, kid)
        return (_applied(q.conclusion, (edit,)), q.rule,
                _params_after(q, reading, edit), _unchanged(q))

    return rebuild(p, visit)


def _inverted_input(p: NestedProof, at, idx, cls, kind: str) -> tuple:
    """(at as _address reads it, input idx of that node of p's
    conclusion), or ValueError unless idx is an int naming one of its
    inputs and that input is a cls."""
    at = _address(at)
    inputs = node_at(p.conclusion, at).inputs
    if not _is_int(idx) or not 0 <= idx < len(inputs):
        raise ValueError(f"no input {idx!r} at {path_id(at)}")
    if not isinstance(inputs[idx], cls):
        raise ValueError(f"position does not hold {kind}")
    return at, inputs[idx]


def invert_and_input(p: NestedProof, at: tuple, idx: int) -> NestedProof:
    """Split a conjunctive input in place; height never grows."""
    return _invert(p, *_inverted_input(p, at, idx, And, "a conjunction"))


def invert_or_input(p: NestedProof, at: tuple, idx: int, side: str) -> NestedProof:
    at, f = _inverted_input(p, at, idx, Or, "a disjunction")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _invert(p, at, f, int(side == "right"))


def invert_imp_input(p: NestedProof, at: tuple, idx: int) -> NestedProof:
    """Replace an implicative input by its consequent; height never grows."""
    return _invert(p, *_inverted_input(p, at, idx, Imp, "an implication"), 1)


def invert_dia_input(p: NestedProof, at: tuple, idx: int) -> NestedProof:
    """Push a diamond input into a fresh bracket; height never grows."""
    return _invert(p, *_inverted_input(p, at, idx, Dia, "a diamond"))


def _absorbed(sub: NestedProof, at: tuple, f, m: int, edit: tuple) -> NestedProof:
    """Premise m of an instance whose edit replaced one copy of f at a
    node, contracted: the other copy is inverted the same way, and what
    the edit put in the copy's place (inputs, or a bracket, whose two
    copies are merged first) is contracted."""
    _, _, fs, _, kid = edit
    s = _invert(sub, at, f, m)
    for g in fs:
        s = _contract(s, at, g)
    if kid is not None:
        spots = [x for x, c in enumerate(node_at(s.conclusion, at).children)
                 if c == kid]
        s = merge_proof(s, at, spots[0], spots[1])
        for g in kid.inputs:
            s = _contract(s, at + (spots[0],), g)
    return s


def _contract(p: NestedProof, at: tuple, f) -> NestedProof:
    """Drop one of two copies of f at a node, through the proof.  Where a
    rule consumed a copy, the other copy goes instead, and each premise
    is contracted by _absorbed, a recursion on the formula, not the
    proof; a premise that kept the copy (impI's first) is contracted on
    f itself."""

    def visit(q, _):
        nd = node_at(q.conclusion, at)
        idxs = [k for k, g in enumerate(nd.inputs) if g == f]
        if len(idxs) < 2:
            raise RuntimeError(f"lost a copy of {render_formula(f)}")
        reading = read_nested(q.conclusion, q.rule, q.params)
        k = _input_index(q, reading, at)

        # an input rule consumed copy k, unless it is a leaf (botI, id)
        if q.rule in _INPUT_RULES and q.premises and k in idxs:
            keep = next(x for x in idxs if x != k)
            params = {"at": path_id(at), "index": keep - 1 if keep > k else keep}
            subs = []
            for m, (sub, edits) in enumerate(
                    zip(q.premises, _premise_edits(q.conclusion, q.rule, *reading))):
                made = [e for e in edits if e[:2] == (at, k)]
                subs.append(_absorbed(sub, at, f, m, made[0]) if made
                            else _contract(sub, at, f))
            return NestedProof(_applied(q.conclusion, (_edit(at, k),)), q.rule,
                               params, tuple(subs))

        drop = _edit(at, [x for x in idxs if x != k][-1])
        return (_applied(q.conclusion, (drop,)), q.rule,
                _params_after(q, reading, drop), _unchanged(q))

    return rebuild(p, visit)


def contract_proof(p: NestedProof, at: tuple, i: int, j: int) -> NestedProof:
    """Contract two equal inputs of one node down to a single copy.

    Recursion on the formula and the proof height; the inversions above
    absorb rule applications that consumed one copy.  The result is one
    copy lighter than the source and never taller.
    """
    at = _address(at)
    _index_pair(i, j, "input")
    node = node_at(p.conclusion, at)
    if j >= len(node.inputs):
        raise ValueError(f"no input {j} at {path_id(at)}")
    if node.inputs[i] != node.inputs[j]:
        raise ValueError("contracted inputs differ: "
                         f"{render_formula(node.inputs[i])} vs "
                         f"{render_formula(node.inputs[j])}")
    return _contract(p, at, node.inputs[i])
