"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's algorithms: string derivability
is a breadth-first closure over one-step rewrites, path search is a naive
length-bounded enumeration, model evaluation expands quantifiers
without memoization, model generation and the structure checks scan a
whole relation for each world's successors, and proof translation
re-translates every node's whole sequent after a separate checker walk.
The reference prover builds every premise it searches and scans every
node of it for a leaf, and its failure cache can be switched off; the
one-step closers try every rule instance through premises_of_nested.
The one-world refutation evaluates the goal's labelled translation with
sat_sequent, one model per valuation.  Subformulas are collected by
plain recursion.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import product

from imseq.formula import (BOT, MAX_NESTING, And, Atom, AxiomSet, Bot, Box, Dia,
                           Formula, Imp, Or, parse_formula, render_formula)
from imseq.grammar import (Grammar, PropGraph, PropPath, Sym, _Saturator,
                           grammar_from_axioms, reach_all, syms)
from imseq.labelled import (LabelledSequent, check_labelled, premises_of_labelled,
                            render_labelled_sequent)
from imseq.models import (Model, Violation, check_frame_conditions, check_model,
                          model_of, sat_sequent)
from imseq.nested import (EMPTY, NestedProof, NestedSequent, _params, _positions,
                          _premises, _witness, all_paths,
                          check_nested, is_full, match_children, node_at,
                          parse_path_id, path_id, premises_of_nested,
                          prop_graph_nested, read_nested)
from imseq.proof import RuleError, rebuild
from imseq.translate import (_TO_LABELLED_RULE, _TO_NESTED_RULE, _label_tree,
                             _place, is_labelled_tree, to_labelled,
                             to_labelled_with_map)


def neg(a: Formula) -> Formula:
    return Imp(a, BOT)


def modal_count(a: Formula) -> int:
    """Number of <> and [] occurrences."""
    if isinstance(a, (Dia, Box)):
        return 1 + modal_count(a.body)
    if isinstance(a, (And, Or, Imp)):
        return modal_count(a.left) + modal_count(a.right)
    return 0


def converse_string(s) -> tuple:
    """The string of the converse walk: reversed, each letter flipped."""
    return tuple(c.converse() for c in reversed(tuple(s)))


def converse_path(p: PropPath) -> PropPath:
    """p walked backwards."""
    return PropPath(tuple(reversed(p.nodes)), converse_string(p.steps))


def path_in_graph(pg: PropGraph, path: PropPath) -> bool:
    if any(v not in pg.nodes for v in path.nodes):
        return False
    return all(
        (path.nodes[i], path.steps[i], path.nodes[i + 1]) in pg.edges
        for i in range(len(path.steps))
    )


def canonical_relabel(seq: LabelledSequent) -> LabelledSequent:
    """Rename labels to w0, w1, ... breadth-first from the root, with
    siblings in the canonical child order.

    Two tree sequents that differ only by a label bijection relabel to
    equal sequents, so this is the normal form for comparisons.
    """
    t, m = _label_tree(seq)
    at = {lab: _place(t, addr) for lab, addr in m.items()}
    order = sorted(at, key=lambda lab: (len(at[lab]), at[lab]))
    ren = {lab: f"w{i}" for i, lab in enumerate(order)}
    return LabelledSequent(
        tuple((ren[w], ren[u]) for w, u in seq.rel),
        tuple((ren[w], f) for w, f in seq.ante),
        (ren[seq.succ[0]], seq.succ[1]))


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


def ref_subformulas(roots) -> set:
    """Every subformula of roots, by plain recursion over the tree; a
    formula met again is not walked again, so shared sides cost once."""
    out: set = set()

    def walk(f):
        if f in out:
            return
        out.add(f)
        if isinstance(f, (Dia, Box)):
            walk(f.body)
        elif isinstance(f, (And, Or, Imp)):
            walk(f.left)
            walk(f.right)

    for f in roots:
        walk(f)
    return out


# --- reference proof translation ----------------------------------------
#
# The translation as it stood before the one-walk rewrite: the input is
# checked in a walk of its own, and every node's whole sequent is
# translated again, so it is quadratic in proof height.  Kept as the
# differential reference for imseq.translate.translate_proof.

def ref_to_nested_with_map(seq):
    """(nested sequent, label-to-address map), children sorted by key."""
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

    def build(lab, depth):
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


def _ref_nested_params(L, n, m, rule, params):
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


def ref_proof_to_nested(p, ax):
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

    def visit(q, _):
        n, m = ref_to_nested_with_map(q.conclusion)
        if m.get(root) != ():
            raise ValueError("fixed root property failed at "
                             f"{render_labelled_sequent(q.conclusion)}")
        params = _ref_nested_params(q.conclusion, n, m, q.rule, q.params)
        return n, _TO_NESTED_RULE[q.rule], params, [(sub, None) for sub in q.premises]

    return rebuild(p, visit)


def _ref_labelled_params(q, inst, m, fresh):
    rule, n = q.rule, q.conclusion
    at, index, f, target = inst

    def grew():
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


def _ref_realign(stored, shape, m):
    out = {}
    todo = [(stored, shape, (), ())]
    while todo:
        a, b, at_a, at_b = todo.pop()
        out[at_a] = m[at_b]
        for i, j in enumerate(match_children(a, b)):
            todo.append((a.children[i], b.children[j], at_a + (i,), at_b + (j,)))
    return out


def ref_proof_to_labelled(p, ax):
    ok = check_nested(p, ax)
    if not ok:
        raise ValueError(f"input proof fails the checker at {ok.at}: {ok.message}")
    L0, names = to_labelled_with_map(p.conclusion)

    def visit(q, state):
        L, m, fresh = state
        if ref_to_nested_with_map(L)[0] != q.conclusion:
            raise ValueError(f"translation drifted at {render_labelled_sequent(L)}")
        rule = _TO_LABELLED_RULE[q.rule]
        inst = read_nested(q.conclusion, q.rule, q.params)
        params, m2, fresh2 = _ref_labelled_params(q, inst, m, fresh)
        try:
            prems = premises_of_labelled(L, rule, params, ax)
        except RuleError as e:
            raise ValueError(f"translated instance of {rule} is invalid: {e}") from e
        shapes = _premises(q.conclusion, q.rule, *inst)
        return L, rule, params, [
            (sub, (prem, _ref_realign(sub.conclusion, shape, m2), fresh2))
            for sub, prem, shape in zip(q.premises, prems, shapes)]

    return rebuild(p, visit, (L0, names, len(names)))


def _ref_try_leaf(seq, positions):
    for path, node in positions:
        for idx, f in enumerate(node.inputs):
            if isinstance(f, Bot):
                return NestedProof(seq, "botI",
                                   {"at": path_id(path), "index": idx}, ())
            if isinstance(f, Atom) and node.output == f:
                return NestedProof(seq, "id",
                                   {"at": path_id(path), "index": idx}, ())
    return None


def ref_one_step_closers(seq: NestedSequent, ax: AxiomSet) -> set:
    """The rules with an instance on seq, a full sequent, whose premises
    are all leaves: empty if none closes seq in one step.  Every rule is
    tried through premises_of_nested at every node, with every input
    index, both orO sides, and every pdia/pbox walk that reach_all finds
    from the node; an instance whose params the rule refuses is skipped,
    and each premise is scanned whole for a leaf."""
    walks = reach_all(prop_graph_nested(seq), grammar_from_axioms(ax))
    closers = set()
    for path in all_paths(seq):
        at = path_id(path)
        node = node_at(seq, path)
        tries = [(rule, {"at": at}) for rule in ("andO", "impO", "boxO", "d")]
        tries += [("orO", {"at": at, "side": side}) for side in ("left", "right")]
        for idx in range(len(node.inputs)):
            tries += [(rule, {"at": at, "index": idx})
                      for rule in ("botI", "id", "andI", "orI", "impI", "diaI")]
        for (src, _), walk in walks.items():
            if src == at:
                tries.append(("pdia", {"path": walk.to_list()}))
                tries += [("pbox", {"path": walk.to_list(), "index": idx})
                          for idx in range(len(node.inputs))]
        for rule, params in tries:
            try:
                prems = premises_of_nested(seq, rule, params, ax)
            except RuleError:
                continue
            if all(_ref_try_leaf(prem, _positions(prem)) is not None
                   for prem in prems):
                closers.add(rule)
    return closers


def _ref_atom_names(seq: LabelledSequent) -> list:
    """The names of the atoms in a labelled sequent's formulas, sorted,
    by a recursive walk."""
    atoms = set()

    def walk(f):
        if isinstance(f, Atom):
            atoms.add(f.name)
        elif isinstance(f, (And, Or, Imp)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (Dia, Box)):
            walk(f.body)

    for _, f in seq.ante + (seq.succ,):
        walk(f)
    return sorted(atoms)


def ref_one_world_refutes(goal: NestedSequent) -> list:
    """The valuations that falsify goal, a full sequent, in the one-world
    model whose world sees itself, each as the sorted tuple of the atoms
    it makes true, in the order product() lists them: one model_of per
    valuation, with goal's labelled translation asked of sat_sequent
    with every label at the world.  Empty if no valuation falsifies it."""
    seq = to_labelled(goal)
    names = _ref_atom_names(seq)
    interp = {lab: "w" for lab in seq.labels()}
    out = []
    for bits in product((False, True), repeat=len(names)):
        true = tuple(a for a, b in zip(names, bits) if b)
        m = model_of(["w"], acc=[("w", "w")], val=[("w", a) for a in true])
        if not sat_sequent(m, interp, seq):
            out.append(true)
    return out


def ref_two_world_refutes(goal: NestedSequent, ax: AxiomSet) -> bool:
    """Whether goal, a full sequent, is false in some model on the worlds
    w0 and w1 that passes check_model and check_frame_conditions for ax:
    every preorder on the two worlds (w1 <= w0 and both ways included),
    every acc subset and every valuation of goal's atoms, each built by
    model_of, with goal's labelled translation asked of sat_sequent
    under every map of its labels to the worlds."""
    seq = to_labelled(goal)
    names = _ref_atom_names(seq)
    labels = sorted(seq.labels())
    worlds = ("w0", "w1")
    pairs = [(a, b) for a in worlds for b in worlds]
    cells = [(w, a) for w in worlds for a in names]
    for up, down in product(((), (("w0", "w1"),)), ((), (("w1", "w0"),))):
        leq = up + down
        for acc_bits in product((False, True), repeat=4):
            acc = [pr for pr, b in zip(pairs, acc_bits) if b]
            frame = model_of(worlds, leq, acc)
            if check_model(frame) or check_frame_conditions(frame, ax):
                continue
            interps = [dict(zip(labels, ws))
                       for ws in product(worlds, repeat=len(labels))]
            interps = [i for i in interps
                       if all((i[w], i[u]) in frame.acc for w, u in seq.rel)]
            for val_bits in product((False, True), repeat=len(cells)):
                m = model_of(worlds, leq, acc,
                             [c for c, b in zip(cells, val_bits) if b])
                if check_model(m):
                    continue
                if any(not sat_sequent(m, i, seq) for i in interps):
                    return True
    return False


def ref_polarities(seq: NestedSequent) -> tuple:
    """(the atoms, and BOT, at input polarity, those at output polarity,
    whether a [] stands at input or a <> at output polarity) of a
    sequent, by a recursive walk of every formula occurrence: an
    implication's left side flips the polarity, nothing else does."""
    ins, outs = set(), set()
    moves = False

    def walk(f, inp):
        nonlocal moves
        if isinstance(f, (Atom, Bot)):
            (ins if inp else outs).add(f)
        elif isinstance(f, Imp):
            walk(f.left, not inp)
            walk(f.right, inp)
        elif isinstance(f, (And, Or)):
            walk(f.left, inp)
            walk(f.right, inp)
        else:
            moves = moves or isinstance(f, Box) == inp
            walk(f.body, inp)

    def visit(node):
        for f in node.inputs:
            walk(f, True)
        if node.output is not None:
            walk(node.output, False)
        for c in node.children:
            visit(c)

    visit(seq)
    return ins, outs, moves


def ref_reach_targets(sat: _Saturator, shape: list) -> list:
    """For each node of a bracket tree given by its node paths in
    preorder (shape), the indices into shape of the nodes it reaches, in
    id order: the forward facts of sat, a saturation of the tree's
    graph, grouped by source in sorted order, as reach_all's pairs are."""
    index = {path_id(path): i for i, path in enumerate(shape)}
    grouped = [[] for _ in shape]
    for src, dst in sorted((sat.names[f[1]], sat.names[f[2]]) for f in sat.forward()):
        grouped[index[src]].append(index[dst])
    return grouped


def ref_prove_bounded(goal, ax, depth, cache=True):
    """prove_bounded's search as it stood before premises were decided at
    the nodes their rule touched: every call walks the whole sequent and
    scans it for a leaf, and every premise searched is built, also at
    budget 0.  Its targets come from the worklist saturation that also
    gives its witness walks, kept for this call only, not from the
    prover's reach tables.  cache=False never consults the failure
    cache."""
    if not is_full(goal):
        raise ValueError("goal must have exactly one output formula")
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    g = grammar_from_axioms(ax)
    fail: dict = {}
    # tree shape -> (its saturation, position index -> [target index])
    sat_by_shape: dict = {}

    def saturated(seq):
        shape = tuple(all_paths(seq))
        got = sat_by_shape.get(shape)
        if got is None:
            sat = _Saturator(prop_graph_nested(seq), g)
            got = sat_by_shape[shape] = sat, ref_reach_targets(sat, shape)
        return got

    def witness(seq, src, dst):
        return _witness(saturated(seq)[0], src, dst)

    def attempt(seq, rule, at, index, f, target, budget, seen):
        subs = []
        for prem in _premises(seq, rule, at, index, f, target):
            sub = search(prem, budget - 1, seen)
            if sub is None:
                return None
            subs.append(sub)
        walk = None if target is None else witness(seq, at, target)
        return NestedProof(seq, rule, _params(rule, at, index, walk), tuple(subs))

    def search(seq, budget, seen):
        positions = _positions(seq)
        leaf = _ref_try_leaf(seq, positions)
        if leaf is not None:
            return leaf
        if budget <= 0:
            return None
        key = seq._cls
        if key in seen or (cache and fail.get(key, -1) >= budget):
            return None
        seen = seen | {key}

        def commit(rule, at, index, f):
            got = attempt(seq, rule, at, index, f, None, budget, seen)
            if got is None:
                fail[key] = max(fail.get(key, -1), budget)
            return got

        # non-branching invertible rules, committed
        for path, node in positions:
            for idx, f in enumerate(node.inputs):
                if isinstance(f, And):
                    return commit("andI", path, idx, f)
                if isinstance(f, Dia):
                    return commit("diaI", path, idx, f)
            if isinstance(node.output, Imp):
                return commit("impO", path, None, node.output)
            if isinstance(node.output, Box):
                return commit("boxO", path, None, node.output)

        # branching invertible rules, committed
        for path, node in positions:
            if isinstance(node.output, And):
                return commit("andO", path, None, node.output)
            for idx, f in enumerate(node.inputs):
                if isinstance(f, Or):
                    return commit("orI", path, idx, f)

        # choice points, backtracking
        reach = None
        for i, (path, node) in enumerate(positions):
            f = node.output
            if isinstance(f, Or):
                for side in (0, 1):
                    got = attempt(seq, "orO", path, side, f, None, budget, seen)
                    if got is not None:
                        return got
            if isinstance(f, Dia):
                if reach is None:
                    reach = saturated(seq)[1]
                for j in reach[i]:
                    got = attempt(seq, "pdia", path, None, f, positions[j][0],
                                  budget, seen)
                    if got is not None:
                        return got
            for idx, f in enumerate(node.inputs):
                if isinstance(f, Imp):
                    got = attempt(seq, "impI", path, idx, f, None, budget, seen)
                    if got is not None:
                        return got
                if isinstance(f, Box):
                    if reach is None:
                        reach = saturated(seq)[1]
                    for j in reach[i]:
                        target, tnode = positions[j]
                        if f.body in tnode.inputs:
                            continue
                        got = attempt(seq, "pbox", path, idx, f, target, budget, seen)
                        if got is not None:
                            return got
        if ax.has_d:
            for path, node in positions:
                if EMPTY in node.children:
                    continue
                got = attempt(seq, "d", path, None, None, None, budget, seen)
                if got is not None:
                    return got

        fail[key] = max(fail.get(key, -1), budget)
        return None

    proof = search(goal, depth, frozenset())
    sat_by_shape.clear()
    fail.clear()
    if proof is not None:
        res = check_nested(proof, ax)
        if not res:
            raise RuntimeError("prover built a proof that fails to check: "
                               f"{res.message} at {res.at}")
    return proof


# --- reference model generation and structure checks --------------------
#
# random_model, check_model and check_frame_conditions as they stood
# before the successor-set rewrite: every world's successors are found by
# scanning, and re-sorting, a whole relation inside the loops.  Kept as
# the differential reference for imseq.models, which must give the same
# model for every (ax, max_worlds, seed) and the same violations, in the
# same order, for every model.

def ref_check_model(m: Model) -> list:
    # each relation sorted once; every loop scans a whole relation
    leq, acc, val = sorted(m.leq), sorted(m.acc), sorted(m.val)
    out = []
    for a, b in leq:
        if a not in m.worlds or b not in m.worlds:
            out.append(Violation("domain-leq", (a, b)))
    for a, b in acc:
        if a not in m.worlds or b not in m.worlds:
            out.append(Violation("domain-acc", (a, b)))
    for w, p in val:
        if w not in m.worlds:
            out.append(Violation("domain-val", (w, p)))
    if out:
        return out
    for w in sorted(m.worlds):
        if (w, w) not in m.leq:
            out.append(Violation("leq-reflexive", (w,)))
    for a, b in leq:
        for b2, c in leq:
            if b == b2 and (a, c) not in m.leq:
                out.append(Violation("leq-transitive", (a, b, c)))
    for w, v in acc:
        for v2, v_up in leq:
            if v2 != v:
                continue
            if not any((w, w_up) in m.leq and (w_up, v_up) in m.acc
                       for w_up in m.worlds):
                out.append(Violation("F1", (w, v, v_up)))
    for w, w_up in leq:
        for w2, v in acc:
            if w2 != w:
                continue
            if not any((w_up, v_up) in m.acc and (v, v_up) in m.leq
                       for v_up in m.worlds):
                out.append(Violation("F2", (w, w_up, v)))
    for w, p in val:
        for w2, w_up in leq:
            if w2 == w and (w_up, p) not in m.val:
                out.append(Violation("monotonicity", (w, w_up, p)))
    return out


def ref_power_pairs(m: Model, n: int) -> set:
    pairs = {(w, w) for w in m.worlds}
    for _ in range(n):
        pairs = {(a, c) for a, b in pairs for b2, c in m.acc if b == b2}
    return pairs


def ref_check_frame_conditions(m: Model, ax: AxiomSet) -> list:
    out = []
    if ax.has_d:
        for w in sorted(m.worlds):
            if not any(a == w for a, _ in m.acc):
                out.append(Violation("seriality", (w,)))
    for n, k in sorted(ax.hsl):
        rn = sorted(ref_power_pairs(m, n))
        rk = sorted(ref_power_pairs(m, k))
        for w in sorted(m.worlds):
            for w2, u in rn:
                if w2 != w:
                    continue
                for w3, v in rk:
                    if w3 == w and (u, v) not in m.acc:
                        out.append(Violation(f"hsl({n},{k})", (w, u, v)))
    return out


def ref_random_model(ax: AxiomSet, max_worlds: int, seed: int) -> Model:
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(1, max_worlds)
    worlds = [f"m{i}" for i in range(n)]
    leq = {(w, w) for w in worlds}
    for w in worlds:
        for u in worlds:
            if w != u and rng.random() < 0.25:
                leq.add((w, u))
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for b2, c in list(leq):
                if b == b2 and (a, c) not in leq:
                    leq.add((a, c))
                    changed = True
    acc = set()
    for w in worlds:
        for u in worlds:
            if rng.random() < 0.3:
                acc.add((w, u))
    changed = True
    while changed:
        changed = False
        before = len(acc)
        acc |= {(w2, v2) for w, v in list(acc)
                for w1, w2 in leq if w1 == w
                for v1, v2 in leq if v1 == v}
        for pn, pk in sorted(ax.hsl):
            m0 = Model(frozenset(worlds), frozenset(leq), frozenset(acc), frozenset())
            rn = ref_power_pairs(m0, pn)
            rk = ref_power_pairs(m0, pk)
            acc |= {(u, v) for w in worlds
                    for w2, u in rn if w2 == w
                    for w3, v in rk if w3 == w}
        if ax.has_d:
            for w in worlds:
                if not any(a == w for a, _ in acc):
                    acc.add((w, w))
        changed = len(acc) != before
    val = set()
    for w in worlds:
        for p in ("p", "q", "r"):
            if rng.random() < 0.4:
                val.add((w, p))
    val |= {(u, p) for w, p in list(val) for w2, u in leq if w2 == w}
    return Model(frozenset(worlds), frozenset(leq), frozenset(acc), frozenset(val))
