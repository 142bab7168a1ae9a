"""Translations between labelled tree sequents and nested sequents.

A labelled sequent whose relational atoms form a tree over its labels
carries the same information as a full nested sequent: labels become
tree positions and relational atoms become brackets.  Both directions
are implemented on sequents and lifted to whole proofs, mapping rules
one-to-one and rewriting principal addresses, eigenvariables, and
witness paths through the tree correspondence.  A proof goes through
one walk that checks it too; only its root conclusion is translated
whole, and each rule updates the correspondence where it edits.

Labelled-to-nested requires a propagation-only proof; run
``refine.eliminate_structural`` first if the proof uses diaR, boxL, or
the relational expansion rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter, is_, itemgetter
from typing import Optional

from .formula import MAX_NESTING, AxiomSet
from .grammar import PropPath
from .labelled import (REFINED_RULES, LabelledSequent, labelled_params,
                       premises_of_labelled, read_labelled_checked,
                       render_labelled_sequent)
from .labelled import _premises as _labelled_premises
from .nested import (NESTED_RULES, NestedSequent, _params, is_full,
                     match_children, node_at, output_position, path_id,
                     read_nested_checked)
from .nested import _premises as _nested_premises
from .proof import Proof, RuleError, checked_rebuild


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
    parent, children = {}, {}
    for w, u in seq.rel:
        if u in parent or w == u:
            return None
        parent[u] = w
        children.setdefault(w, []).append(u)
    roots = labels - parent.keys()
    if len(roots) != 1:
        return None
    root = roots.pop()
    seen, todo = {root}, [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            seen.add(c)
            todo.append(c)
    return TreeCert(root, parent) if seen == labels else None


def to_labelled_with_map(s: NestedSequent) -> tuple:
    """(labelled sequent, address-to-label map) for a full nested sequent,
    labels w0, w1, ... assigned in preorder, so the result is
    deterministic in the stored child order."""
    if not is_full(s):
        raise ValueError("translation needs exactly one output formula")
    names, rel, ante = {}, [], []
    stack = [((), s, None)]
    while stack:
        addr, node, parent = stack.pop()
        lab = names[addr] = f"w{len(names)}"
        if parent is not None:
            rel.append((parent, lab))
        ante.extend((lab, f) for f in node.inputs)
        stack.extend((addr + (i,), node.children[i], lab)
                     for i in reversed(range(len(node.children))))
    pos, f = output_position(s)
    return LabelledSequent(tuple(rel), tuple(ante), (names[pos], f)), names


def to_labelled(s: NestedSequent) -> LabelledSequent:
    return to_labelled_with_map(s)[0]


def _tnode(lab: str, inputs: tuple, output, kids: tuple) -> tuple:
    """A label tree node: (label, nested node, children in atom order).
    The nested node sorts its brackets by rendered key, ties in atom
    order, so label names cannot influence a translation."""
    return lab, NestedSequent(inputs, output, tuple(sorted(
        map(itemgetter(1), kids), key=attrgetter("_key")))), kids


def _label_tree(seq: LabelledSequent) -> tuple:
    """(label tree, label-to-address map) of a labelled tree sequent; the
    root's nested node is its translation.  ValueError past MAX_NESTING
    levels, which parse_nested could not read back."""
    cert = is_labelled_tree(seq)
    if cert is None:
        raise ValueError("relational atoms do not form a tree over the labels")
    children: dict = {}
    inputs: dict = {}
    m: dict = {}
    for w, u in seq.rel:
        children.setdefault(w, []).append(u)
    for w, f in seq.ante:
        inputs.setdefault(w, []).append(f)

    def build(lab: str, addr: tuple) -> tuple:
        if len(addr) > MAX_NESTING:
            raise ValueError(f"label tree deeper than {MAX_NESTING} levels")
        m[lab] = addr
        kids = enumerate(children.get(lab, ()))
        return _tnode(lab, tuple(inputs.get(lab, ())),
                      seq.succ[1] if lab == seq.succ[0] else None,
                      tuple(build(c, addr + (i,)) for i, c in kids))

    return build(cert.root, ()), m


def to_nested(seq: LabelledSequent) -> NestedSequent:
    return _label_tree(seq)[0][1]


def _place(t: tuple, addr: tuple) -> tuple:
    """The address in t's nested node of the node at address addr of t."""
    out = []
    for i in addr:
        keys = [k[1]._key for k in t[2]]
        out.append(sorted(range(len(keys)), key=keys.__getitem__).index(i))
        t = t[2][i]
    return tuple(out)


def _grown(t: tuple, m: dict, L: LabelledSequent, touched: set,
           P: LabelledSequent) -> tuple:
    """(label tree, label-to-address map) of P, a premise of a rule
    instance at L that edits the touched labels, from L's: the nodes of
    those labels and of a moved succedent are rebuilt from P, a new label
    a bracket under its parent, and so are the nodes above them."""
    new = P.rel[len(L.rel):]
    if P.succ != L.succ:
        touched = touched | {L.succ[0], P.succ[0]}

    def node(lab: str, kids: tuple = ()) -> tuple:
        return _tnode(lab, tuple(f for w, f in P.ante if w == lab),
                      P.succ[1] if P.succ[0] == lab else None, kids)

    for lab in touched - {u for _, u in new}:
        at, path = m[lab], [t]
        for i in at:
            path.append(path[-1][2][i])
        grow, kids = tuple(node(u) for w, u in new if w == lab), path.pop()[2]
        if grow:
            if len(at) >= MAX_NESTING:
                raise ValueError(f"label tree deeper than {MAX_NESTING} levels")
            m = {**m, **{k[0]: at + (len(kids) + j,) for j, k in enumerate(grow)}}
        t = node(lab, kids + grow)
        for i, up in zip(reversed(at), reversed(path)):
            t = _tnode(up[0], up[1].inputs, up[1].output, up[2][:i] + (t,) + up[2][i + 1:])
    return t, m


_TO_NESTED_RULE = {"id": "id", "botL": "botI", "andL": "andI", "orL": "orI",
                   "impL": "impI", "andR": "andO", "orR": "orO", "impR": "impO",
                   "diaL": "diaI", "boxR": "boxO", "d": "d", "pdia": "pdia",
                   "pbox": "pbox"}
_TO_LABELLED_RULE = {v: k for k, v in _TO_NESTED_RULE.items()}


def _proof_to_nested(p: Proof, ax: AxiomSet) -> Proof:
    for node in p.nodes():
        if node.rule in ("S", "diaR", "boxL"):
            raise ValueError(f"rule {node.rule!r} has no nested counterpart; "
                             "eliminate the relational rules first")
    if is_labelled_tree(p.conclusion) is None:
        raise ValueError("conclusion is not a labelled tree sequent")

    def premises(s: LabelledSequent, rule: str, params: dict) -> tuple:
        reading = read_labelled_checked(s, rule, params, ax)
        return _labelled_premises(s, rule, *reading), reading

    def visit(q: Proof, prems: list, reading: tuple, refit, parent) -> tuple:
        L, rule = q.conclusion, q.rule
        t, m = _label_tree(L) if parent is None or refit else _grown(*parent, L)
        w, f, i, _, walk = reading
        path = walk.to_list() if walk else [w]
        at = {x: _place(t, m[x]) for x in {w, *path[0::2]}}
        if i is not None and rule != "orR":  # the principal's place in its node
            i = node_at(t[1], at[w]).inputs.index(f)
        ids = [path_id(at[x]) if j % 2 == 0 else x for j, x in enumerate(path)]
        out = _TO_NESTED_RULE[rule]
        return (t[1], out, _params(out, at[w], i, ids),
                [(t, m, L, {path[-1]})] * len(prems))

    # a premise stored exactly as computed grows from its parent's tree
    return checked_rebuild(
        p, premises, REFINED_RULES, "rule {!r} not in refined mode", visit,
        lambda a, b: (a.rel, a.ante, a.succ) == (b.rel, b.ante, b.succ))


def _realign(stored: NestedSequent, shape: NestedSequent, m: dict) -> dict:
    """Labels of a stored premise's addresses, by a greedy matching of its
    bracket tree against the multiset-equal premise shape labelled by m,
    which always completes; any such matching is sound."""
    out, todo = {}, [(stored, shape, (), ())]
    while todo:
        a, b, at_a, at_b = todo.pop()
        out[at_a] = m[at_b]
        for i, j in enumerate(match_children(a, b)):
            todo.append((a.children[i], b.children[j], at_a + (i,), at_b + (j,)))
    return out


def _same(a: NestedSequent, b: NestedSequent) -> bool:
    """Whether two nested sequents are equal in their stored order too."""
    return a is b or (a.inputs == b.inputs and a.output is b.output
                      and len(a.children) == len(b.children)
                      and (all(map(is_, a.children, b.children))
                           or all(map(_same, a.children, b.children))))


def _proof_to_labelled(p: Proof, ax: AxiomSet) -> Proof:
    L0, names = to_labelled_with_map(p.conclusion)
    if to_nested(L0) != p.conclusion:
        raise ValueError(f"translation drifted at {render_labelled_sequent(L0)}")

    def premises(s: NestedSequent, rule: str, params: dict) -> tuple:
        reading = read_nested_checked(s, rule, params, ax)
        return _nested_premises(s, rule, *reading[0]), reading

    # m gains new brackets in place: a branch adds only addresses its own
    # sequents lack, so what an earlier branch added is never read.
    def visit(q: Proof, shapes: list, reading: tuple, refit, state) -> tuple:
        L, m, fresh = state
        if refit is not None:
            m = _realign(q.conclusion, refit, m)
        rule = _TO_LABELLED_RULE[q.rule]
        (at, index, f, _), walk = reading
        u = None
        if q.rule in ("diaI", "boxO", "d"):  # the new bracket is labelled in m
            new = at + (len(node_at(q.conclusion, at).children),)
            u = m[new] = f"w{fresh}"
            fresh += 1
        elif walk is not None:  # pdia, pbox
            walk = PropPath._trusted(tuple(m[x] for x in walk.nodes), walk.steps)
            u = walk.end
        params = labelled_params(rule, m[at], f, index, u, walk)
        try:
            prems = premises_of_labelled(L, rule, params, ax)
        except RuleError as e:
            raise ValueError(f"translated instance of {rule} is invalid: {e}") from e
        w = m[at]  # both calculi must make the same edit at the principal
        for prem, shape in zip(prems, shapes):
            node = node_at(shape, at)
            if (Counter(node.inputs) != Counter(f for u, f in prem.ante if u == w)
                    or node.output is not (prem.succ[1] if prem.succ[0] == w else None)):
                raise ValueError(f"translation drifted at {render_labelled_sequent(prem)}")
        return L, rule, params, [(prem, m, fresh) for prem in prems]

    return checked_rebuild(
        p, premises, NESTED_RULES, "unknown rule {!r}", visit, _same,
        (L0, names, len(names)))


def translate_proof(p, direction: str, ax: AxiomSet):
    """Translate a whole proof into the other calculus.

    direction names the target: "nested" takes a propagation-only
    labelled proof of a tree sequent to a nested proof; "labelled" goes
    the other way.  The proof's conclusion must be a sequent of the other
    calculus.  The input is checked in the same walk, a failure named at
    the checker's address; the rule-by-rule mapping keeps every witness
    path letter-for-letter.
    """
    source_of = {"nested": LabelledSequent, "labelled": NestedSequent}
    if direction not in source_of:
        raise ValueError(f"direction must be 'nested' or 'labelled', not {direction!r}")
    if not (isinstance(p, Proof) and isinstance(p.conclusion, source_of[direction])):
        other = "labelled" if direction == "nested" else "nested"
        raise ValueError(f"direction {direction!r} needs a {other} proof")
    return (_proof_to_nested if direction == "nested" else _proof_to_labelled)(p, ax)
