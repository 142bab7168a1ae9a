"""Rule instances read from params: pinned outcomes and hostile params.

A rule instance names its principal through params, and both checkers
turn whatever params a proof file holds into premises or a RuleError.
The first two tests pin each calculus's premise function's outcome on
seeded instances, valid and broken, so that its first-failure messages
and their order cannot drift; the third feeds both calculi arbitrary
JSON values under every param key.
"""

import hashlib
import random

from imseq.formula import (And, Atom, Bot, Box, Dia, Imp, Or, axiom_set,
                           render_formula)
from imseq.gen import random_formula, random_full_nested, random_tree_labelled
from imseq.grammar import Sym, grammar_from_axioms, reach_all
from imseq.labelled import (BASE_RULES, REFINED_RULES, LabelledSequent,
                            premises_of_labelled, prop_graph_of,
                            render_labelled_sequent)
from imseq.nested import (NESTED_RULES, NestedSequent, all_paths, map_node,
                          node_at, output_position, path_id,
                          premises_of_nested, prop_graph_nested, render_nested)
from imseq.proof import RuleError

AXIOM_SETS = (axiom_set(), axiom_set([(1, 1)], d=True), axiom_set([(2, 0)]),
              axiom_set([(0, 1), (1, 2)], d=True))
RULES = sorted(NESTED_RULES) + ["S", "diaR", "bogus"]
# the connective a rule's principal input (or output) must have
INPUT_CLS = {"botI": Bot, "id": Atom, "andI": And, "orI": Or, "impI": Imp,
             "diaI": Dia, "pbox": Box}
OUTPUT_CLS = {"andO": And, "orO": Or, "impO": Imp, "boxO": Box, "pdia": Dia}
BAD_IDS = ("x", "r.9", "r.0.", "r.a", "r.-1", "R", "r.0.0.0.0", "r..0")

OUTCOME_DIGEST = "de612ea9bc22abe2fe19afbd9cd286418545158b53afa7e305cd72a43a35f44e"


def _forced(rng, seq, rule):
    """seq, often changed so that the rule's principal exists somewhere."""
    if rng.random() < 0.4:
        return seq
    if rule in OUTPUT_CLS:
        cls = OUTPUT_CLS[rule]
        body = random_formula(rng, 1)
        f = cls(body) if cls in (Dia, Box) else cls(body, random_formula(rng, 1))
        at, _ = output_position(seq)
        return map_node(seq, at, lambda nd: NestedSequent(nd.inputs, f, nd.children))
    if rule in INPUT_CLS:
        cls = INPUT_CLS[rule]
        at = rng.choice(all_paths(seq))
        body = random_formula(rng, 1)
        if cls is Bot:
            f = Bot()
        elif cls is Atom:  # with the matching output, when it sits at the node
            f = node_at(seq, at).output or Atom("p")
        elif cls in (Dia, Box):
            f = cls(body)
        else:
            f = cls(body, random_formula(rng, 1))
        return map_node(seq, at, lambda nd: NestedSequent(
            nd.inputs + (f,), nd.output, nd.children))
    return seq


def _walk(rng, seq, rule, ax):
    """A walk param: a reach_all witness from a plausible start, often
    broken afterwards."""
    walks = reach_all(prop_graph_nested(seq), grammar_from_axioms(ax))
    if not walks or rng.random() < 0.05:
        ids = [path_id(p) for p in all_paths(seq)]
        return [rng.choice(ids), rng.choice("db"), rng.choice(ids)]
    keys = sorted(walks)
    cls = INPUT_CLS.get(rule) if rule == "pbox" else OUTPUT_CLS.get(rule)
    good = [k for k in keys if cls is not None and _holds(seq, k[0], rule, cls)]
    src_dst = rng.choice(good if good and rng.random() < 0.8 else keys)
    walk = walks[src_dst].to_list()
    kind = rng.randrange(8)
    if kind == 0 and len(walk) > 1:  # flip one letter
        i = rng.randrange(1, len(walk), 2)
        walk[i] = Sym(walk[i]).converse().value
    elif kind == 1 and len(walk) > 1:  # truncate by one step
        walk = walk[:-2]
    elif kind == 2:  # a bad node id
        walk[2 * rng.randrange(len(walk) // 2 + 1)] = rng.choice(BAD_IDS)
    elif kind == 3:  # an even-length list
        walk = walk + ["d"]
    elif kind == 4:  # an unknown letter
        walk = walk + ["x", walk[0]]
    elif kind == 5 and rng.random() < 0.3:
        return rng.choice(("r", ""))
    return walk


def _holds(seq, pid, rule, cls):
    node = node_at(seq, tuple(int(p) for p in pid.split(".")[1:]))
    if rule == "pbox":
        return any(isinstance(f, cls) for f in node.inputs)
    return isinstance(node.output, cls)


def _instance(rng):
    ax = rng.choice(AXIOM_SETS)
    rule = rng.choice(RULES)
    seq = random_full_nested(rng, rng.randint(1, 3), 3, 2)
    while rule in ("pdia", "pbox") and not seq.children:
        seq = random_full_nested(rng, rng.randint(1, 3), 3, 2)
    seq = _forced(rng, seq, rule)
    positions = [(path_id(p), nd) for p, nd in zip(all_paths(seq), _nodes(seq))]
    params = {}
    at, node = rng.choice(positions)
    cls = INPUT_CLS.get(rule) or OUTPUT_CLS.get(rule)
    hits = [(pid, nd) for pid, nd in positions
            if cls is not None and (isinstance(nd.output, cls)
                                    or any(isinstance(f, cls) for f in nd.inputs))]
    if hits and rng.random() < 0.7:
        at, node = rng.choice(hits)
    if rng.random() < 0.1:
        at = rng.choice(BAD_IDS)
    if rng.random() < 0.95:
        params["at"] = at
    idx = [i for i, f in enumerate(node.inputs)
           if cls is not None and isinstance(f, cls)]
    index = rng.choice(idx) if idx and rng.random() < 0.7 else rng.randrange(4)
    if rng.random() < 0.1:
        index = rng.choice((-1, "0", len(node.inputs) + 3))
    if rng.random() < 0.9:
        params["index"] = index
    if rule == "orO" or rng.random() < 0.1:
        params["side"] = rng.choice(("left", "right", "right", "left", "up"))
    if rule in ("pdia", "pbox") or rng.random() < 0.05:
        if rng.random() < 0.95:
            params["path"] = _walk(rng, seq, rule, ax)
    return seq, rule, params, ax


def _nodes(seq):
    out = [seq]
    for c in seq.children:
        out.extend(_nodes(c))
    return out


def _outcome(seq, rule, params, ax) -> str:
    try:
        prems = premises_of_nested(seq, rule, params, ax)
    except RuleError as e:
        return f"err {e}"
    return "ok " + " | ".join(render_nested(s) for s in prems)


def test_nested_premise_outcomes_match_frozen_digest():
    """premises_of_nested gives the same premises, or the same first
    RuleError message, on 4,000 seeded instances: every rule, four
    axiom sets, valid and broken params."""
    rng = random.Random(9009)
    h = hashlib.sha256()
    tally = {"ok": 0, "err": 0}
    for _ in range(4000):
        out = _outcome(*_instance(rng))
        tally[out[:out.index(" ")]] += 1
        h.update(out.encode() + b"\n")
    assert tally["ok"] > 800 and tally["err"] > 800
    assert h.hexdigest() == OUTCOME_DIGEST


LABELLED_RULES = sorted(BASE_RULES | REFINED_RULES) + ["bogus"]
# the connective a rule's principal antecedent member (or succedent) must have
ANTE_CLS = {"botL": Bot, "andL": And, "orL": Or, "impL": Imp, "diaL": Dia,
            "boxL": Box, "pbox": Box}
SUCC_CLS = {"id": Atom, "andR": And, "orR": Or, "impR": Imp, "diaR": Dia,
            "boxR": Box, "pdia": Dia}
LABELLED_DIGEST = "17310d58b22ae10b4993aa7a8e4613c0710595cab73281a5af2b7f9675651b78"


def _of_class(rng, cls):
    if cls is Bot:
        return Bot()
    if cls is Atom:
        return Atom(rng.choice("pqr"))
    body = random_formula(rng, 1)
    return cls(body) if cls in (Dia, Box) else cls(body, random_formula(rng, 1))


def _graph_sequent(rng):
    """A labelled sequent whose relational atoms need not form a tree:
    repeated atoms, self loops and labels with two parents."""
    labs = [f"x{i}" for i in range(rng.randint(1, 4))]
    rel = [(rng.choice(labs), rng.choice(labs))
           for _ in range(rng.randrange(2 * len(labs) + 1))]
    ante = [(rng.choice(labs), random_formula(rng, 2)) for _ in range(rng.randrange(4))]
    return LabelledSequent(tuple(rel), tuple(ante),
                           (rng.choice(labs), random_formula(rng, 2)))


def _labelled_forced(rng, seq, rule):
    """seq, often changed so that the rule's principal exists somewhere."""
    if rng.random() < 0.35:
        return seq
    rel, ante, succ = seq.rel, seq.ante, seq.succ
    labs = sorted(seq.labels())
    if rule in SUCC_CLS:
        succ = (succ[0], _of_class(rng, SUCC_CLS[rule]))
        if rule == "id" and rng.random() < 0.7:
            ante = ante + ((succ[0] if rng.random() < 0.8 else rng.choice(labs),
                            succ[1]),)
    elif rule in ANTE_CLS:
        ante = ante + ((rng.choice(labs), _of_class(rng, ANTE_CLS[rule])),)
    return LabelledSequent(rel, tuple(rng.sample(ante, len(ante))), succ)


def _chains(rng, seq, n, k):
    """Two chains of n + 1 and k + 1 labels from a common start, walked
    along the relational atoms when they allow it."""
    adj = {}
    for a, b in seq.rel:
        adj.setdefault(a, []).append(b)
    start = rng.choice(sorted(seq.labels()))
    out = []
    for length in (n, k):
        chain = [start]
        for _ in range(length):
            nxt = adj.get(chain[-1])
            chain.append(rng.choice(nxt) if nxt and rng.random() < 0.9
                         else rng.choice(sorted(seq.labels())))
        out.append(chain)
    return out


def _labelled_walk(rng, seq, start, ax):
    """A path param: a reach_all witness from start, often broken."""
    walks = reach_all(prop_graph_of(seq), grammar_from_axioms(ax))
    labs = sorted(seq.labels())
    keys = sorted(k for k in walks if k[0] == start or rng.random() < 0.1)
    if not keys or rng.random() < 0.05:
        return [start, rng.choice("db"), rng.choice(labs)]
    walk = walks[rng.choice(keys)].to_list()
    kind = rng.randrange(8)
    if kind == 0 and len(walk) > 1:  # flip one letter
        i = rng.randrange(1, len(walk), 2)
        walk[i] = Sym(walk[i]).converse().value
    elif kind == 1 and len(walk) > 1:  # truncate by one step
        walk = walk[:-2]
    elif kind == 2:  # an absent or empty node name
        walk[2 * rng.randrange(len(walk) // 2 + 1)] = rng.choice(("zz", ""))
    elif kind == 3:  # an even-length list
        walk = walk + ["d"]
    elif kind == 4:  # an unknown letter
        walk = walk + ["x", walk[0]]
    elif kind == 5 and rng.random() < 0.3:
        return rng.choice(("x0", 3))
    return walk


def _labelled_instance(rng):
    ax = rng.choice(AXIOM_SETS)
    rule = rng.choice(LABELLED_RULES)
    seq = (random_tree_labelled(rng, rng.randint(1, 2), 2, 2) if rng.random() < 0.6
           else _graph_sequent(rng))
    seq = _labelled_forced(rng, seq, rule)
    labs = sorted(seq.labels())
    cls = ANTE_CLS.get(rule)
    hits = [(w, f) for w, f in seq.ante if cls is not None and isinstance(f, cls)]
    w, f = rng.choice(hits) if hits and rng.random() < 0.9 else (
        rng.choice(seq.ante) if seq.ante else seq.succ)
    if rule != "d" and rng.random() < 0.08:
        w = rng.choice(("zz", "", 7))
    params = {}
    if rule == "d" or rng.random() < 0.95:
        params["world"] = rng.choice(labs) if rule == "d" else w
    if rule in ANTE_CLS and rng.random() < 0.97 or rng.random() < 0.3:
        params["formula"] = render_formula(f if rule in ANTE_CLS else seq.succ[1])
        if rng.random() < 0.15:
            params["formula"] = rng.choice((
                render_formula(random_formula(rng, 2)), "p &", 7))
    if rng.random() < 0.9:
        params["fresh"] = rng.choice(("u0", "u0", "u1", rng.choice(labs), ""))
    tos = sorted({b for a, b in seq.rel if a == (w if rule != "diaR" else seq.succ[0])})
    if rng.random() < 0.9:
        params["to"] = (rng.choice(tos) if tos and rng.random() < 0.8
                        else rng.choice(labs + ["zz"]))
    if rng.random() < 0.15:
        params["from"] = rng.choice((seq.succ[0], rng.choice(labs), 0))
    if rule == "orR" or rng.random() < 0.05:
        params["side"] = rng.choice(("left", "right", "right", "left", "up"))
    if rule == "S" or rng.random() < 0.05:
        pairs = sorted(ax.hsl)
        n, k = (rng.choice(pairs) if pairs and rng.random() < 0.8
                else (rng.randrange(3), rng.randrange(3)))
        cn, ck = _chains(rng, seq, n, k)
        if rng.random() < 0.1:
            n = rng.choice((n + 1, -1, "1"))
        params.update(n=n, k=k, chain_n=cn, chain_k=ck)
        if rng.random() < 0.1:
            del params[rng.choice(("n", "k", "chain_n", "chain_k"))]
    if rule in ("pdia", "pbox") or rng.random() < 0.05:
        start = seq.succ[0] if rule == "pdia" else w
        if rng.random() < 0.95 and isinstance(start, str):
            params["path"] = _labelled_walk(rng, seq, start, ax)
            if rule == "pbox" and isinstance(params["path"], list) and rng.random() < 0.8:
                params["to"] = params["path"][-1]
    return seq, rule, params, ax


def _labelled_outcome(seq, rule, params, ax) -> str:
    try:
        prems = premises_of_labelled(seq, rule, params, ax)
    except RuleError as e:
        return f"err {e}"
    return "ok " + " | ".join(render_labelled_sequent(s) for s in prems)


def test_labelled_premise_outcomes_match_frozen_digest():
    """premises_of_labelled gives the same premises, or the same first
    RuleError message, on 4,000 seeded instances: every rule of both
    modes, four axiom sets, tree and non-tree conclusions, valid and
    broken params.  A d instance names only labels of its conclusion."""
    rng = random.Random(4242)
    h = hashlib.sha256()
    tally = {"ok": 0, "err": 0}
    for _ in range(4000):
        out = _labelled_outcome(*_labelled_instance(rng))
        tally[out[:out.index(" ")]] += 1
        h.update(out.encode() + b"\n")
    assert tally["ok"] > 800 and tally["err"] > 800
    assert h.hexdigest() == LABELLED_DIGEST


NESTED_KEYS = ("at", "index", "side", "path")
LABELLED_KEYS = ("world", "formula", "fresh", "to", "from", "side", "n", "k",
                 "chain_n", "chain_k", "path")
STRINGS = ("r", "r.0", "r.1.0", "w0", "w1", "x0", "d", "b", "p", "<>p", "",
           "left", "right")


def _json(rng, depth=2):
    """A random JSON value: null, number, bool, string, list or object."""
    k = rng.randrange(7 if depth > 0 else 5)
    if k == 0:
        return None
    if k == 1:
        return rng.choice((-1, 0, 1, 2, 3, 10 ** 30))
    if k == 2:
        return rng.random() < 0.5
    if k == 3:
        return rng.random() * 4
    if k == 4:
        return rng.choice(STRINGS)
    if k == 5:
        return [_json(rng, depth - 1) for _ in range(rng.randrange(5))]
    return {rng.choice(STRINGS): _json(rng, depth - 1) for _ in range(rng.randrange(3))}


def _hostile(rng, params, keys):
    """params with random JSON under some keys; a path list keeps its
    shape but may get a non-string node or letter."""
    out = dict(params)
    for key in keys:
        if rng.random() < 0.35:
            out[key] = _json(rng)
    path = out.get("path")
    if isinstance(path, list) and path and rng.random() < 0.5:
        path = list(path)
        path[rng.randrange(len(path))] = _json(rng)
        out["path"] = path
    return out


def test_premise_functions_raise_only_rule_errors_on_hostile_params():
    """Random JSON under every param key: both premise functions return
    premises or raise RuleError, nothing else."""
    rng = random.Random(5150)
    for _ in range(2500):
        ax = rng.choice(AXIOM_SETS)
        seq = random_full_nested(rng, 2, 2, 2)
        ids = [path_id(p) for p in all_paths(seq)]
        walk = [rng.choice(ids), rng.choice("db"), rng.choice(ids)]
        params = {"at": rng.choice(ids), "index": rng.randrange(3),
                  "side": "left", "path": walk}
        rule = rng.choice(RULES)
        try:
            premises_of_nested(seq, rule, _hostile(rng, params, NESTED_KEYS), ax)
        except RuleError:
            pass

        lseq = random_tree_labelled(rng, 2, 2, 2)
        labs = sorted(lseq.labels())
        rule = rng.choice(sorted(BASE_RULES | REFINED_RULES) + ["bogus"])
        if rng.random() < 0.5:
            rule = rng.choice(("pdia", "pbox"))
        w, f = rng.choice(lseq.ante) if lseq.ante else lseq.succ
        start = w if rule == "pbox" else lseq.succ[0]
        walk = [start, rng.choice("db"), rng.choice(labs)]
        params = {"world": w, "formula": str(f), "fresh": "u9",
                  "to": walk[-1], "from": lseq.succ[0], "side": "right",
                  "n": 1, "k": 1, "chain_n": labs[:2], "chain_k": labs[:2],
                  "path": walk}
        try:
            premises_of_labelled(lseq, rule, _hostile(rng, params, LABELLED_KEYS), ax)
        except RuleError:
            pass
