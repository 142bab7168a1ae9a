"""Translations between labelled tree sequents and nested sequents.

A labelled sequent whose relational atoms form a tree over its labels
carries the same information as a full nested sequent: labels become
tree positions and relational atoms become brackets.  Both directions
are implemented on sequents and lifted to whole proofs, mapping rules
one-to-one and rewriting principal addresses, eigenvariables, and
witness paths through the tree correspondence.

Labelled-to-nested requires a propagation-only proof; run
``refine.eliminate_structural`` first if the proof uses diaR, boxL, or
the relational expansion rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .formula import MAX_NESTING, AxiomSet, Bot, parse_formula, render_formula
from .grammar import PropPath
from .labelled import (LabelledSequent, check_labelled, premises_of_labelled,
                       render_labelled_sequent)
from .nested import (NestedSequent, _params, _premises, check_nested, is_full,
                     match_children, node_at, output_position, parse_path_id,
                     path_id, read_nested)
from .proof import Proof, RuleError, rebuild


@dataclass(frozen=True)
class TreeCert:
    """Witness that a sequent's relation is a tree: the root label and
    the parent of every other label."""

    root: str
    parent: dict


def is_labelled_tree(seq: LabelledSequent) -> Optional[TreeCert]:
    """Certificate if the relational atoms form a tree covering every
    label of the sequent, else None.

    A repeated atom, a label with two parents, a self loop, a second
    root, or an unreachable label all disqualify.  A sequent with no
    relational atoms and a single label is the degenerate tree.
    """
    labels = seq.labels()
    parent: dict = {}
    children: dict = {}
    for w, u in seq.rel:
        if u in parent or w == u:
            return None
        parent[u] = w
        children.setdefault(w, []).append(u)
    roots = labels - parent.keys()
    if len(roots) != 1:
        return None
    root = roots.pop()
    seen = {root}
    todo = [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            seen.add(c)
            todo.append(c)
    if seen != labels:
        return None
    return TreeCert(root, parent)


def to_labelled_with_map(s: NestedSequent) -> tuple:
    """(labelled sequent, address-to-label map) for a full nested sequent.

    Labels are w0, w1, ... assigned in preorder, so the result is
    deterministic in the stored child order.
    """
    if not is_full(s):
        raise ValueError("translation needs exactly one output formula")
    names: dict = {}
    rel: list = []
    ante: list = []
    stack = [((), s, None)]
    while stack:
        addr, node, parent = stack.pop()
        lab = f"w{len(names)}"
        names[addr] = lab
        if parent is not None:
            rel.append((parent, lab))
        ante.extend((lab, f) for f in node.inputs)
        for i in reversed(range(len(node.children))):
            stack.append((addr + (i,), node.children[i], lab))
    pos, f = output_position(s)
    return LabelledSequent(tuple(rel), tuple(ante), (names[pos], f)), names


def to_labelled(s: NestedSequent) -> LabelledSequent:
    return to_labelled_with_map(s)[0]


def to_nested_with_map(seq: LabelledSequent) -> tuple:
    """(nested sequent, label-to-address map) for a labelled tree sequent.

    Children are ordered canonically, by the rendered key of the
    translated subtree, so label names and stored atom order cannot
    influence the result.  ValueError for a label tree deeper than
    MAX_NESTING, which parse_nested could not read back.
    """
    cert = is_labelled_tree(seq)
    if cert is None:
        raise ValueError("relational atoms do not form a tree over the labels")
    children: dict = {}
    for w, u in seq.rel:
        children.setdefault(w, []).append(u)
    inputs: dict = {}
    for w, f in seq.ante:
        inputs.setdefault(w, []).append(f)
    out_w, out_f = seq.succ

    def build(lab: str, depth: int) -> tuple:
        if depth > MAX_NESTING:
            raise ValueError(f"label tree deeper than {MAX_NESTING} levels")
        built = [build(c, depth + 1) for c in children.get(lab, ())]
        built.sort(key=lambda pair: pair[0]._key)
        node = NestedSequent(tuple(inputs.get(lab, ())),
                             out_f if lab == out_w else None,
                             tuple(sub for sub, _ in built))
        m = {lab: ()}
        for i, (_, sub_map) in enumerate(built):
            for l2, addr in sub_map.items():
                m[l2] = (i,) + addr
        return node, m

    return build(cert.root, 0)


def to_nested(seq: LabelledSequent) -> NestedSequent:
    return to_nested_with_map(seq)[0]


def canonical_relabel(seq: LabelledSequent) -> LabelledSequent:
    """Rename labels to w0, w1, ... breadth-first from the root, with
    siblings in the canonical child order.

    Two tree sequents that differ only by a label bijection relabel to
    equal sequents, so this is the normal form for comparisons.
    """
    n, m = to_nested_with_map(seq)
    order: dict = {}
    q = deque([((), n)])
    while q:
        addr, node = q.popleft()
        order[addr] = f"w{len(order)}"
        for j, c in enumerate(node.children):
            q.append((addr + (j,), c))
    ren = {lab: order[addr] for lab, addr in m.items()}
    return LabelledSequent(
        tuple((ren[w], ren[u]) for w, u in seq.rel),
        tuple((ren[w], f) for w, f in seq.ante),
        (ren[seq.succ[0]], seq.succ[1]))


_TO_NESTED_RULE = {
    "id": "id", "botL": "botI",
    "andL": "andI", "orL": "orI", "impL": "impI",
    "andR": "andO", "orR": "orO", "impR": "impO",
    "diaL": "diaI", "boxR": "boxO",
    "d": "d", "pdia": "pdia", "pbox": "pbox",
}
_TO_LABELLED_RULE = {v: k for k, v in _TO_NESTED_RULE.items()}


def _nested_params(L: LabelledSequent, n: NestedSequent, m: dict,
                   rule: str, params: dict) -> dict:
    """The nested params of a labelled refined instance, whose conclusion
    translates to n with label-to-address map m."""
    walk = None
    if rule in ("pdia", "pbox"):
        path = PropPath.from_list(params["path"])
        walk = PropPath(tuple(path_id(m[x]) for x in path.nodes),
                        path.steps).to_list()
    w, f = L.succ[0], None
    if rule == "id":
        f = L.succ[1]
    elif rule == "botL":
        w, f = next((w, f) for w, f in L.ante if isinstance(f, Bot))
    elif rule in ("andL", "orL", "impL", "diaL", "pbox"):
        w, f = params["world"], parse_formula(params["formula"])
    elif rule == "d":
        w = params["world"]
        if w not in m:
            raise ValueError(f"d at {w!r}, a label not in the conclusion, "
                             "has no nested counterpart")
    index = None if f is None else node_at(n, m[w]).inputs.index(f)
    if rule == "orR":
        index = int(params["side"] == "right")
    return _params(_TO_NESTED_RULE[rule], m[w], index, walk)


def _proof_to_nested(p: Proof, ax: AxiomSet) -> Proof:
    for node in p.nodes():
        if node.rule in ("S", "diaR", "boxL"):
            raise ValueError(f"rule {node.rule!r} has no nested counterpart; "
                             "eliminate the relational rules first")
    ok = check_labelled(p, ax, "refined")
    if not ok:
        raise ValueError(f"input proof fails the checker at {ok.at}: {ok.message}")
    cert = is_labelled_tree(p.conclusion)
    if cert is None:
        raise ValueError("conclusion is not a labelled tree sequent")
    root = cert.root

    def visit(q: Proof, _):
        n, m = to_nested_with_map(q.conclusion)
        if m.get(root) != ():
            raise ValueError(
                f"fixed root property failed at {render_labelled_sequent(q.conclusion)}")
        params = _nested_params(q.conclusion, n, m, q.rule, q.params)
        return n, _TO_NESTED_RULE[q.rule], params, [(sub, None) for sub in q.premises]

    return rebuild(p, visit)


def _labelled_params(q: Proof, inst: tuple, m: dict, fresh: int) -> tuple:
    """(params, extended map, next fresh index) for one rule instance,
    read by read_nested as inst."""
    rule, n = q.rule, q.conclusion
    at, index, f, target = inst

    def grew() -> tuple:
        new = at + (len(node_at(n, at).children),)
        lab = f"w{fresh}"
        return lab, {**m, new: lab}

    if rule in ("id", "botI", "andO", "impO"):
        return {}, m, fresh
    if rule == "orO":
        return {"side": "right" if index else "left"}, m, fresh
    if rule in ("andI", "orI", "impI"):
        return {"world": m[at], "formula": render_formula(f)}, m, fresh
    if rule == "diaI":
        lab, m2 = grew()
        return {"world": m[at], "formula": render_formula(f), "fresh": lab}, m2, fresh + 1
    if rule == "boxO":
        lab, m2 = grew()
        return {"fresh": lab}, m2, fresh + 1
    if rule == "d":
        lab, m2 = grew()
        return {"world": m[at], "fresh": lab}, m2, fresh + 1
    path = PropPath.from_list(q.params["path"])
    lab_path = PropPath(tuple(m[parse_path_id(x)] for x in path.nodes),
                        path.steps).to_list()
    if rule == "pdia":
        return {"path": lab_path}, m, fresh
    return {"world": m[at], "formula": render_formula(f), "to": m[target],
            "path": lab_path}, m, fresh


def _realign(stored: NestedSequent, shape: NestedSequent, m: dict) -> dict:
    """Labels of a stored premise's addresses, via a matching of its
    bracket tree against the rule-computed premise shape, labelled by m.

    The two trees are multiset-equal, so a greedy matching of equal
    children always completes, and any such matching is sound.
    """
    out = {}
    todo = [(stored, shape, (), ())]
    while todo:
        a, b, at_a, at_b = todo.pop()
        out[at_a] = m[at_b]
        for i, j in enumerate(match_children(a, b)):
            todo.append((a.children[i], b.children[j], at_a + (i,), at_b + (j,)))
    return out


def _proof_to_labelled(p: Proof, ax: AxiomSet) -> Proof:
    ok = check_nested(p, ax)
    if not ok:
        raise ValueError(f"input proof fails the checker at {ok.at}: {ok.message}")
    L0, names = to_labelled_with_map(p.conclusion)

    def visit(q: Proof, state) -> tuple:
        L, m, fresh = state
        if to_nested(L) != q.conclusion:
            raise ValueError(
                f"translation drifted at {render_labelled_sequent(L)}")
        rule = _TO_LABELLED_RULE[q.rule]
        inst = read_nested(q.conclusion, q.rule, q.params)
        params, m2, fresh2 = _labelled_params(q, inst, m, fresh)
        try:
            prems = premises_of_labelled(L, rule, params, ax)
        except RuleError as e:
            raise ValueError(f"translated instance of {rule} is invalid: {e}") from e
        shapes = _premises(q.conclusion, q.rule, *inst)
        return L, rule, params, [
            (sub, (prem, _realign(sub.conclusion, shape, m2), fresh2))
            for sub, prem, shape in zip(q.premises, prems, shapes)]

    return rebuild(p, visit, (L0, names, len(names)))


def translate_proof(p, direction: str, ax: AxiomSet):
    """Translate a whole proof into the other calculus.

    direction names the target: "nested" takes a propagation-only
    labelled proof of a tree sequent to a nested proof; "labelled" goes
    the other way.  The proof's conclusion must be a sequent of the other
    calculus.  The input is checked first and the rule-by-rule mapping
    keeps every witness path letter-for-letter.
    """
    source_of = {"nested": LabelledSequent, "labelled": NestedSequent}
    if direction not in source_of:
        raise ValueError(f"direction must be 'nested' or 'labelled', not {direction!r}")
    if not (isinstance(p, Proof) and isinstance(p.conclusion, source_of[direction])):
        other = "labelled" if direction == "nested" else "nested"
        raise ValueError(f"direction {direction!r} needs a {other} proof")
    if direction == "nested":
        return _proof_to_nested(p, ax)
    return _proof_to_labelled(p, ax)
