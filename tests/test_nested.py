import copy
import gc
import hashlib
import json
import pickle
import random
import sys
import threading
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imseq.formula
import imseq.grammar
import imseq.models
import imseq.nested
from imseq import gen
from imseq.formula import (BOT, MAX_NESTING, And, Atom, BENCHMARKS, Bot, Box, Dia,
                           Imp, Or, ParseError, axiom_set, hsl_formula,
                           parse_formula, subformulas)
from imseq.grammar import Sym, _Saturator, grammar_from_axioms, reach_all
from imseq.nested import (_MOVES_IN, EMPTY, NESTED_RULES, REACH_MEMO_NODES,
                          REACH_MEMO_SIZE, NestedProof, _applied, _closable,
                          _local_leaf, _polarities, _positions, _premise_edits,
                          _reach_memo, _reach_table, _targets,
                          _try_leaf, _witness,
                          all_paths, check_nested, is_full, map_node,
                          match_children, node_at,
                          ONE_WORLD_BITS, nseq, one_world_countermodel, output_count,
                          output_position,
                          parse_nested, parse_path_id, path_id,
                          premises_of_nested, prop_graph_nested, prove_bounded,
                          prove_formula, render_nested, RuleError)
from imseq.models import (_one_world_valuation, _two_world_candidate, _two_world_model,
                          _two_world_tables, check_frame_conditions, check_model,
                          eval_formula, model_of, sat_sequent, two_world_countermodel)
from imseq.proofio import dump_proof
from imseq.translate import to_labelled

from oracles import (ref_one_step_closers, ref_one_world_refutes, ref_polarities,
                     ref_prove_bounded, ref_reach_targets, ref_two_world_refutes)

P, Q, R = Atom("p"), Atom("q"), Atom("r")
NOAX = axiom_set()


def test_parse_render_round_trip():
    text = "p -> q^o, [ p^i, [ []p^i ] ]"
    s = parse_nested(text)
    assert s.inputs == ()
    assert s.output == Imp(P, Q)
    assert len(s.children) == 1
    inner = s.children[0]
    assert inner.inputs == (P,)
    assert inner.children[0].inputs == (Box(P),)
    assert output_count(s) == 1 and is_full(s)
    assert render_nested(s) == text


def test_parse_box_vs_bracket():
    s = parse_nested("[]p^i, [ p^i ]")
    assert s.inputs == (Box(P),)
    assert s.children == (nseq(inputs=(P,)),)


def test_parse_empty_and_nested_brackets():
    assert parse_nested("") == EMPTY
    s = parse_nested("[ ]")
    assert s == nseq(children=(EMPTY,))
    assert render_nested(s) == "[ ]"
    deep = parse_nested("[ [ p^o ] ]")
    assert deep.children[0].children[0].output == P


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_nested("p^i, q")
    with pytest.raises(ParseError):
        parse_nested("p^x")
    with pytest.raises(ParseError):
        parse_nested("p^o, q^o")
    with pytest.raises(ParseError):
        parse_nested("[ p^i")
    with pytest.raises(ParseError):
        parse_nested("p^i ]")


def test_parse_bracket_nesting_limit():
    def brackets(n):
        return "[ " * n + "p^o" + " ]" * n

    s = parse_nested(brackets(MAX_NESTING))
    for _ in range(MAX_NESTING):
        s = s.children[0]
    assert s.output == P
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} bracket levels"):
        parse_nested(brackets(MAX_NESTING + 1))


def test_equality_is_recursive_multiset():
    a = parse_nested("p^i, q^i, [ r^i ], [ ]")
    b = parse_nested("q^i, p^i, [ ], [ r^i ]")
    assert a == b and hash(a) == hash(b)
    assert a != parse_nested("p^i, q^i, [ r^i ]")
    assert parse_nested("p^o") != parse_nested("p^i")


def test_addresses():
    s = parse_nested("p^i, [ q^i ], [ [ r^o ] ]")
    assert node_at(s, ()) is s
    assert node_at(s, (0,)).inputs == (Q,)
    assert node_at(s, (1, 0)).output == R
    assert path_id(()) == "r"
    assert path_id((1, 0)) == "r.1.0"
    assert parse_path_id("r.1.0") == (1, 0)
    with pytest.raises(ValueError):
        parse_path_id("x.1")
    with pytest.raises(ValueError):
        node_at(s, (5,))


def test_node_ids_are_canonical():
    """parse_path_id reads exactly what path_id writes: ASCII digits with
    no leading zero.  A leaf proof that names its node by another
    spelling of 0 fails the check with "bad node id"."""
    rng = random.Random(2512)
    for _ in range(500):
        width = rng.choice((3, 12, 1000))
        path = tuple(rng.randrange(width) for _ in range(rng.randrange(6)))
        assert parse_path_id(path_id(path)) == path
    for bad in ("", "r.", "r..1", "r.1.", "R.1", " r", "r.01", "r.-1", "r.+1",
                "r. 1", "r.1_0", "r.\u0660", "r.\u00b2", "r.\uff11"):
        with pytest.raises(ValueError, match="bad node id"):
            parse_path_id(bad)
    seq = parse_nested("q^i, [ p^i, p^o ]")
    assert check_nested(NestedProof(seq, "id", {"at": "r.0", "index": 0}, ()), NOAX)
    for bad in ("r.\u0660", "r.\u00b2", "r.00"):
        res = check_nested(NestedProof(seq, "id", {"at": bad, "index": 0}, ()), NOAX)
        assert not res and res.message == f"id: bad node id {bad!r}"


def test_output_position_and_pruning():
    s = parse_nested("p^i, [ q^i ], [ [ r^o ] ]")
    assert output_position(s) == ((1, 0), R)
    assert output_position(parse_nested("p^i, [ q^i ]")) is None
    # impI's first premise prunes the output and puts the antecedent in
    # its place at the principal node
    t = parse_nested("p -> q^i, [ q^i ], [ [ r^o ] ]")
    first, _ = premises_of_nested(t, "impI", {"at": "r", "index": 0}, NOAX)
    assert output_position(first) == ((), P)
    assert node_at(first, (1, 0)) == nseq()


def test_prop_graph_nested():
    s = parse_nested("p^o, [ q^i ], [ [ r^i ] ]")
    pg = prop_graph_nested(s)
    assert pg.nodes == {"r", "r.0", "r.1", "r.1.0"}
    assert ("r", Sym.FWD, "r.0") in pg.edges
    assert ("r.0", Sym.BWD, "r") in pg.edges
    assert ("r.1", Sym.FWD, "r.1.0") in pg.edges
    assert len(pg.edges) == 6


# rule schemes, one minimal instance each


def prem(seq, rule, params, ax=NOAX):
    return premises_of_nested(seq, rule, params, ax)


def test_leaf_rules():
    assert prem(parse_nested("false^i, p^o"), "botI", {"at": "r", "index": 0}) == []
    assert prem(parse_nested("p^i, p^o"), "id", {"at": "r", "index": 0}) == []
    with pytest.raises(RuleError):
        prem(parse_nested("p^i, q^o"), "id", {"at": "r", "index": 0})
    with pytest.raises(RuleError):
        # output at a different node does not close
        prem(parse_nested("p^i, [ p^o ]"), "id", {"at": "r", "index": 0})
    with pytest.raises(RuleError):
        prem(parse_nested("p & q^i, p^o"), "id", {"at": "r", "index": 0})


def test_and_rules():
    [s] = prem(parse_nested("p & q^i, r^o"), "andI", {"at": "r", "index": 0})
    assert s == parse_nested("p^i, q^i, r^o")
    l, r = prem(parse_nested("p & q^o"), "andO", {"at": "r"})
    assert l == parse_nested("p^o") and r == parse_nested("q^o")


def test_or_rules():
    l, r = prem(parse_nested("p | q^i, r^o"), "orI", {"at": "r", "index": 0})
    assert l == parse_nested("p^i, r^o")
    assert r == parse_nested("q^i, r^o")
    [s] = prem(parse_nested("p | q^o"), "orO", {"at": "r", "side": "right"})
    assert s == parse_nested("q^o")
    with pytest.raises(RuleError):
        prem(parse_nested("p | q^o"), "orO", {"at": "r", "side": "up"})


def test_imp_output():
    [s] = prem(parse_nested("p -> q^o"), "impO", {"at": "r"})
    assert s == parse_nested("p^i, q^o")


def test_imp_input_prunes_the_output():
    """The first premise drops the output wherever it sits in the tree."""
    seq = parse_nested("p -> q^i, [ r^o ]")
    left, right = prem(seq, "impI", {"at": "r", "index": 0})
    assert left == parse_nested("p -> q^i, p^o, [ ]")
    assert right == parse_nested("q^i, [ r^o ]")
    with pytest.raises(RuleError):
        prem(parse_nested("p -> q^i"), "impI", {"at": "r", "index": 0})


def test_box_output_and_dia_input():
    [s] = prem(parse_nested("[]p^o, q^i"), "boxO", {"at": "r"})
    assert s == parse_nested("q^i, [ p^o ]")
    [s] = prem(parse_nested("<>p^i, q^o"), "diaI", {"at": "r", "index": 0})
    assert s == parse_nested("q^o, [ p^i ]")


def test_d_rule():
    seq = parse_nested("p^o")
    [s] = prem(seq, "d", {"at": "r"}, axiom_set(d=True))
    assert s == parse_nested("p^o, [ ]")
    with pytest.raises(RuleError):
        prem(seq, "d", {"at": "r"})


def test_pdia_direct_edge():
    # the plain bracket step needs no axioms: its string is the start letter
    seq = parse_nested("<>p^o, [ q^i ]")
    [s] = prem(seq, "pdia", {"path": ["r", "d", "r.0"]})
    assert s == parse_nested("[ q^i, p^o ]")


def test_pdia_across_the_tree():
    # diamond sits in one bracket, lands in the sibling: string "bd"
    seq = parse_nested("[ <>p^o ], [ q^i ]")
    path = ["r.0", "b", "r", "d", "r.1"]
    [s] = prem(seq, "pdia", {"path": path}, axiom_set([(1, 1)]))
    assert s == parse_nested("[ ], [ q^i, p^o ]")
    with pytest.raises(RuleError):
        prem(seq, "pdia", {"path": path}, NOAX)


def test_pdia_empty_path():
    seq = parse_nested("<>p^o")
    [s] = prem(seq, "pdia", {"path": ["r"]}, axiom_set([(0, 0)]))
    assert s == parse_nested("p^o")
    with pytest.raises(RuleError):
        prem(seq, "pdia", {"path": ["r"]}, axiom_set([(1, 1)]))


def test_pbox():
    seq = parse_nested("[]p^i, [ q^o ]")
    [s] = prem(seq, "pbox", {"path": ["r", "d", "r.0"], "index": 0})
    assert s == parse_nested("[]p^i, [ q^o, p^i ]")
    with pytest.raises(RuleError):
        prem(seq, "pbox", {"path": ["r", "d", "r.0"], "index": 1})


def test_path_must_lie_in_the_tree():
    seq = parse_nested("<>p^o, [ q^i ]")
    with pytest.raises(RuleError):
        prem(seq, "pdia", {"path": ["r", "d", "r.3"]})
    with pytest.raises(RuleError):
        prem(seq, "pdia", {"path": ["r.0", "d", "r"]})


def test_check_nested_small_proof():
    goal = parse_nested("p -> p^o")
    sub = NestedProof(parse_nested("p^i, p^o"), "id", {"at": "r", "index": 0}, ())
    proof = NestedProof(goal, "impO", {"at": "r"}, (sub,))
    assert check_nested(proof, NOAX)
    bad = NestedProof(goal, "impO", {"at": "r"},
                      (NestedProof(parse_nested("q^i, p^o"), "id",
                                   {"at": "r", "index": 0}, ()),))
    res = check_nested(bad, NOAX)
    assert not res and res.at == "root" and "premise 0" in res.message
    res = check_nested(NestedProof(goal, "impO", {"at": "r"}, ()), NOAX)
    assert not res and "premises" in res.message
    res = check_nested(NestedProof(goal, "spin", {}, ()), NOAX)
    assert not res and "unknown rule" in res.message


def test_check_reports_inner_address():
    goal = parse_nested("p -> (q -> q)^o")
    inner_goal = parse_nested("p^i, q -> q^o")
    wrong = NestedProof(parse_nested("p^i, q^i, q^o"), "id",
                        {"at": "r", "index": 0}, ())
    proof = NestedProof(goal, "impO", {"at": "r"},
                        (NestedProof(inner_goal, "impO", {"at": "r"}, (wrong,)),))
    res = check_nested(proof, NOAX)
    assert not res and res.at == "0.0"


def proved(text_or_formula, ax=NOAX, depth=12):
    f = (parse_formula(text_or_formula)
         if isinstance(text_or_formula, str) else text_or_formula)
    p = prove_formula(f, ax, depth)
    assert p is not None, f"no proof found for {f}"
    res = check_nested(p, ax)
    assert res, f"{res.message} at {res.at}"
    return p


def test_prove_propositional():
    proved("p -> p")
    proved("false -> p")
    proved("p & q -> q & p")
    proved("p -> p | q")
    proved("(p -> q) -> (q -> r) -> p -> r")
    proved("~(p & ~p)")


def test_prove_unprovable():
    assert prove_formula(P, NOAX, 8) is None
    assert prove_formula(parse_formula("<>p -> []p"), NOAX, 6) is None
    assert prove_formula(parse_formula("p | ~p"), NOAX, 8) is None


def test_prove_box_k():
    proved(BENCHMARKS["A1"])
    proved(BENCHMARKS["A2"])
    proved(BENCHMARKS["A3"])


def test_prove_axiom_instances():
    proved(hsl_formula(0, 0, P), axiom_set([(0, 0)]))
    proved(hsl_formula(1, 1, P), axiom_set([(1, 1)]))
    proved("[]p -> <>p", axiom_set(d=True))
    assert prove_formula(hsl_formula(1, 1, P), NOAX, 8) is None


def test_prove_deterministic():
    a = proved("<>[]p -> []p", axiom_set([(1, 1)]))
    b = proved("<>[]p -> []p", axiom_set([(1, 1)]))

    def shape(n):
        return (n.rule, sorted(n.params.items(), key=str),
                [shape(s) for s in n.premises])

    assert shape(a) == shape(b)


def test_prove_height_bound():
    p = proved("p & q & r -> r", depth=9)
    assert p.height() <= 10


def test_prove_needs_budget():
    f = parse_formula("p & q & r -> r")
    assert prove_formula(f, NOAX, 1) is None


def test_prove_rejects_negative_depth():
    f = parse_formula("p -> p")
    with pytest.raises(ValueError):
        prove_formula(f, NOAX, -1)
    with pytest.raises(ValueError):
        prove_bounded(nseq(output=f), NOAX, -3)
    assert prove_formula(f, NOAX, 0) is None


def test_prove_rejects_a_depth_that_is_not_an_int():
    """A fractional depth once searched budget-0.5 premises in full and
    returned a proof taller than depth + 1."""
    goal = parse_nested("p & q^i, q & p^o")
    for depth in (1.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="depth must be an int"):
            prove_bounded(goal, NOAX, depth)
    assert prove_bounded(goal, NOAX, 1) is None
    assert prove_bounded(goal, NOAX, 2).height() == 3


def random_full_nested(rng, depth, live):
    """A random full sequent; `live` atoms keep it occasionally provable."""
    def forms(n):
        out = []
        for _ in range(n):
            k = rng.randrange(6)
            if k == 0:
                out.append(Imp(rng.choice(live), rng.choice(live)))
            elif k == 1:
                out.append(And(rng.choice(live), rng.choice(live)))
            elif k == 2:
                out.append(Dia(rng.choice(live)))
            elif k == 3:
                out.append(Box(rng.choice(live)))
            else:
                out.append(rng.choice(live))
        return out

    def tree(d):
        kids = tuple(tree(d - 1) for _ in range(rng.randrange(3)) if d > 0)
        return nseq(forms(rng.randrange(3)), None, kids)

    base = tree(depth)
    at = rng.choice(all_paths(base))
    return map_node(base, at,
                    lambda nd: nseq(nd.inputs, rng.choice(live), nd.children))


def test_prover_results_always_check():
    rng = random.Random(20260824)
    ax = axiom_set([(1, 1)], d=True)
    found = 0
    for _ in range(80):
        goal = random_full_nested(rng, 2, [P, Q])
        p = prove_bounded(goal, ax, 6)
        if p is not None:
            found += 1
            assert check_nested(p, ax)
            assert p.conclusion == goal
    assert found > 5


def test_prove_rejects_non_full_goal():
    with pytest.raises(ValueError):
        prove_bounded(parse_nested("p^i"), NOAX, 4)
    with pytest.raises(ValueError):
        prove_bounded(parse_nested("p^o, [ q^o ]"), NOAX, 4)


PROVE_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "prove.json"


def test_prover_output_matches_frozen_corpus():
    """Byte-identical prover output on the frozen 300-goal benchmark corpus."""
    spec = json.loads(PROVE_CORPUS.read_text())
    mismatches = []
    for i, g in enumerate(spec["goals"]):
        ax = axiom_set([tuple(p) for p in g["axioms"]["hsl"]], d=g["axioms"]["d"])
        proof = prove_bounded(parse_nested(g["goal"]), ax, spec["depth"])
        digest = (None if proof is None else
                  hashlib.sha256(dump_proof(proof).encode()).hexdigest())
        if (proof is not None, digest) != (g["proved"], g["digest"]):
            mismatches.append(i + 1)
    assert len(spec["goals"]) == 300
    assert mismatches == []


# One sha256 over the per-goal sha256 of each outcome's dump_proof text
# ("-" for no proof), one line per goal, on the same corpus at depth 7.
# Frozen before premises were decided at the nodes their rule touched.
PROVE_CORPUS_DEPTH7 = "d53e44a341f6f8fe84918246bab002c3c3443ffdd7e67299e3b64d584db8bdaf"


def corpus_digest(depth):
    """(digest, goals proved) of the prove corpus searched at depth."""
    spec = json.loads(PROVE_CORPUS.read_text())
    h = hashlib.sha256()
    proved = 0
    for g in spec["goals"]:
        ax = axiom_set([tuple(p) for p in g["axioms"]["hsl"]], d=g["axioms"]["d"])
        proof = prove_bounded(parse_nested(g["goal"]), ax, depth)
        proved += proof is not None
        text = "-" if proof is None else dump_proof(proof)
        h.update(hashlib.sha256(text.encode()).hexdigest().encode() + b"\n")
    return h.hexdigest(), proved


def test_prover_output_matches_frozen_corpus_at_depth_7():
    assert corpus_digest(7) == (PROVE_CORPUS_DEPTH7, 80)


# As PROVE_CORPUS_DEPTH7, at depth 8; frozen before d was pruned at
# nodes with an output-free child.
PROVE_CORPUS_DEPTH8 = "609e4c42e35574c3ec01bc0443e7aee6b46199ac1b9ae9a0cd7d2fad2729233b"


def test_prover_output_matches_frozen_corpus_at_depth_8():
    assert corpus_digest(8) == (PROVE_CORPUS_DEPTH8, 80)


# As PROVE_CORPUS_DEPTH7, at depth 9; frozen before the last level was
# decided without keying its sequents.
PROVE_CORPUS_DEPTH9 = "3630ef00aeb33c2b408041a5c4813a1e3aa59e0d1c00ebfc7b11d7ec2c6996a5"


def test_prover_output_matches_frozen_corpus_at_depth_9():
    assert corpus_digest(9) == (PROVE_CORPUS_DEPTH9, 82)


# no axiom, the erasing (0, 0), single pairs, two pairs together, and
# seriality alone and with pairs
AXIOM_MIXES = [axiom_set(), axiom_set([(0, 0)]), axiom_set([(1, 1)]),
               axiom_set([(0, 1)]), axiom_set([(1, 0)]), axiom_set([(2, 0)]),
               axiom_set([(0, 2)]), axiom_set([(1, 2), (2, 1)]),
               axiom_set(d=True), axiom_set([(1, 1)], d=True),
               axiom_set([(0, 0), (0, 2)], d=True)]


def _dumped(proof):
    return None if proof is None else dump_proof(proof)


def test_prover_output_matches_the_reference_search():
    """Byte-identical proofs against the search that builds and scans
    every premise, on random goals under every axiom mix and on goals
    whose premises close at diaI's new bracket, at a pdia target (also
    through an erasing production, at the walk's start) and at a pbox
    target."""
    rng = random.Random(13013)
    runs = proved = 0
    for k in range(400):
        goal = gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q"))
        ax = AXIOM_MIXES[k % len(AXIOM_MIXES)]
        for depth in (0, 1, 2, 4, 6):
            got = _dumped(prove_bounded(goal, ax, depth))
            assert got == _dumped(ref_prove_bounded(goal, ax, depth)), (k, depth)
            runs += 1
            proved += got is not None
    assert runs == 2000 and 200 < proved < 1800

    hand = [("<>false^i, p^o", axiom_set(), "r.0"),
            ("[ ], <>false^i, [ <>p^i ], p^o", axiom_set(), "r.2"),
            ("[ p^i ], <>p^o", axiom_set(), "r.0"),
            ("[ [ p^i ] ], <>p^o", axiom_set([(0, 2)]), "r.0.0"),
            ("p^i, <>p^o", axiom_set([(0, 0)]), "r"),
            ("[]p^i, [ p^o ]", axiom_set(), "r.0"),
            ("[ []p^i, [ ] ], [ q^i, [ p^o ] ]", axiom_set([(1, 2)]), "r.1.0")]
    for text, ax, at in hand:
        goal = parse_nested(text)
        for depth in (1, 2, 3):
            assert (_dumped(prove_bounded(goal, ax, depth))
                    == _dumped(ref_prove_bounded(goal, ax, depth)))
        proof = prove_bounded(goal, ax, 1)
        assert proof is not None
        (leaf,) = proof.premises
        assert leaf.premises == () and leaf.params["at"] == at


def test_last_level_matches_the_reference_search():
    """Byte-identical proofs against the search that keys, walks and
    scans every sequent, at every depth from 1 to 5, where each proof's
    last level is decided by _closable and closing-only attempts: random
    goals over three atoms under every axiom mix, with and without d,
    and goals that close at the last level by orO's right side, impI, a
    pdia target that is not the first, and pbox's false."""
    rng = random.Random(20003)
    runs = proved = 0
    for k in range(600):
        goal = gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q", "r"))
        ax = AXIOM_MIXES[k % len(AXIOM_MIXES)]
        for depth in range(1, 6):
            got = _dumped(prove_bounded(goal, ax, depth))
            assert got == _dumped(ref_prove_bounded(goal, ax, depth)), (k, depth)
            runs += 1
            proved += got is not None
    assert (runs, proved) == (3000, 568)

    hand = [("p^i, q | p^o", axiom_set()),
            ("p^i, p -> q^i, q^o", axiom_set()),
            ("[ q^i ], [ p^i ], <>p^o", axiom_set()),
            ("[]false^i, [ p^o ]", axiom_set([(1, 1)], d=True))]
    for text, ax in hand:
        goal = parse_nested(text)
        proof = prove_bounded(goal, ax, 1)
        assert proof is not None and proof.height() == 2, text
        assert _dumped(proof) == _dumped(ref_prove_bounded(goal, ax, 1))


SERIAL_MIXES = [axiom_set(d=True), axiom_set([(1, 1)], d=True),
                axiom_set([(0, 1)], d=True), axiom_set([(0, 0), (0, 2)], d=True),
                axiom_set([(1, 2), (2, 1)], d=True)]


def test_d_prune_loses_no_proof():
    """The search tries d only at nodes with no output-free child, the
    reference search at every node without an empty one.  Under
    seriality, each proves the same goals, the pruned search's proof
    checks and is no taller, and the goals whose proofs differ in bytes
    are these."""
    rng = random.Random(16020)
    runs = proved = 0
    differ = []
    for k in range(500):
        goal = gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q"))
        ax = SERIAL_MIXES[k % len(SERIAL_MIXES)]
        for depth in (3, 4, 5, 6):
            got = prove_bounded(goal, ax, depth)
            want = ref_prove_bounded(goal, ax, depth)
            assert (got is None) == (want is None), (k, depth)
            runs += 1
            if got is None:
                continue
            proved += 1
            assert check_nested(got, ax)
            assert got.height() <= want.height(), (k, depth)
            if dump_proof(got) != dump_proof(want):
                differ.append((k, depth, want.height(), got.height()))
    assert runs == 2000 and proved == 583
    # one goal, [ p | q | q^i, <>(q -> q)^o ], [ p^i ] under {d}: at
    # depth 5 a proof as tall with one d step fewer (3 against 4), at
    # depth 6 one a level shorter with three fewer (3 against 6)
    assert differ == [(430, 5, 6, 6), (430, 6, 7, 6)]


def test_serial_search_answers_at_depth_50():
    """Under seriality alone p has no proof.  Tried at every node with no
    empty child, d would build every bracket tree within the budget,
    about 3.2 times more per level; pruned, it extends one chain."""
    t0 = time.perf_counter()
    assert prove_formula(P, axiom_set(d=True), 50) is None
    assert time.perf_counter() - t0 < 5.0


# true in every model of one or two worlds, though not valid (a chain of
# three worlds refutes it), and escapes both polarity prunes
UNREFUTED = "[](p -> p) -> (q | (q -> (r | (r -> false))))"


def test_serial_search_answers_an_unrefuted_goal_at_depth_20():
    """UNREFUTED is refuted by neither root test, and it holds p, q and r
    at both polarities and a [] at input, so neither polarity prune
    applies and d is tried."""
    goal = nseq(output=parse_formula(UNREFUTED))
    assert one_world_countermodel(goal) is None
    assert two_world_countermodel(goal, axiom_set(d=True)) is None
    ins, outs, moves = _polarities(_positions(goal))
    assert not ins.isdisjoint(outs) and moves
    t0 = time.perf_counter()
    assert prove_bounded(goal, axiom_set(d=True), 20) is None
    assert time.perf_counter() - t0 < 5.0


def test_a_depth_too_deep_to_search_raises_value_error():
    """The search recurses once per level, so on a goal that no root
    test refutes and no prune cuts, a depth past Python's recursion
    limit fails with ValueError naming it, and the next search runs as
    before."""
    goal = nseq(output=parse_formula(UNREFUTED))
    assert one_world_countermodel(goal) is None
    assert two_world_countermodel(goal, axiom_set(d=True)) is None
    with pytest.raises(ValueError, match="depth 300 is too deep to search"):
        prove_bounded(goal, axiom_set(d=True), 300)
    assert prove_bounded(goal, axiom_set(d=True), 5) is None
    assert prove_formula(parse_formula("p -> p"), NOAX, 2) is not None


def _bracket_chain(levels, inner):
    """inner under levels nested brackets, built through the API."""
    for _ in range(levels):
        inner = nseq(children=(inner,))
    return inner


def test_a_goal_nested_too_deeply_raises_value_error():
    """A goal whose brackets nest past Python's recursion limit fails with
    ValueError, not RecursionError; 400 levels still answer."""
    leaf, refuted = nseq((P,), P), nseq((), Q)
    for inner in (leaf, refuted):
        with pytest.raises(ValueError, match="goal is nested too deeply to search"):
            prove_bounded(_bracket_chain(3000, inner), NOAX, 3)
    assert check_nested(prove_bounded(_bracket_chain(400, leaf), NOAX, 3), NOAX)
    assert prove_bounded(_bracket_chain(400, refuted), NOAX, 3) is None


def test_a_goal_deeper_than_its_depth_blames_the_goal():
    """Class interning recurses once per bracket level inside the search,
    so on 400 levels around p^i, p | q^o the search runs past Python's
    limit at depth 3; the error then names the goal, whose bracket height
    is at least the depth, not the depth.  300 levels still answer."""
    inner = nseq((P,), Or(P, Q))
    with pytest.raises(ValueError,
                       match="goal is nested too deeply to search at depth 3"):
        prove_bounded(_bracket_chain(400, inner), NOAX, 3)
    assert check_nested(prove_bounded(_bracket_chain(300, inner), NOAX, 3), NOAX)


def test_prover_leaves_no_cyclic_garbage():
    """With the cycle collector off, no prove_bounded call on the prove
    corpus at depth 5, nor UNREFUTED under seriality at depth 6, leaves
    an object that only the collector can free."""
    spec = json.loads(PROVE_CORPUS.read_text())
    assert spec["depth"] == 5
    runs = [(parse_nested(g["goal"]),
             axiom_set([tuple(p) for p in g["axioms"]["hsl"]], d=g["axioms"]["d"]),
             spec["depth"]) for g in spec["goals"]]
    runs.append((nseq(output=parse_formula(UNREFUTED)), axiom_set(d=True), 6))
    left = []
    gc.collect()
    gc.disable()
    try:
        for goal, ax, depth in runs:
            prove_bounded(goal, ax, depth)
            left.append(gc.collect())
    finally:
        gc.enable()
    assert left == [0] * 301


def _refuted(seq):
    ins, outs, _ = _polarities(_positions(seq))
    return BOT not in ins and ins.isdisjoint(outs)


def _unpruned(positions):
    """_polarities' answer for a sequent with false at input polarity
    and a formula that can propagate: under it, prove_bounded refutes no
    sequent and tries d wherever the output-free-child prune allows, as
    it did before the polarity prunes."""
    return {BOT}, set(), _MOVES_IN


def _ungated(positions):
    """_polarities' answer with every sequent able to propagate: under
    it, prove_bounded refutes as it does, but tries d without the gate."""
    return _polarities(positions)[:2] + (_MOVES_IN,)


def _prove_as(polarities, goal, ax, depth):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(imseq.nested, "_polarities", polarities)
        return prove_bounded(goal, ax, depth)


def test_premise_polarities_are_subsets_of_their_conclusions():
    """Each premise of every rule instance holds subformulas of its
    conclusion's formulas at their polarities, so its atoms at input and
    at output polarity are subsets of its conclusion's, and it can
    propagate only if its conclusion can.  The refutation and the d gate
    rest on this.  The signatures agree with a walk of every formula
    occurrence."""
    rng = random.Random(17001)
    rules = set()
    premises = 0
    while premises < 6000:
        seq = gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q", "r"))
        ins, outs, moves = _polarities(_positions(seq))
        assert (ins, outs, bool(moves)) == ref_polarities(seq), str(seq)
        for inst in _instances(seq):
            rules.add(inst[0])
            for edits in _premise_edits(seq, *inst):
                prem = _applied(seq, edits)
                pins, pouts, pmoves = _polarities(_positions(prem))
                assert (pins, pouts, bool(pmoves)) == ref_polarities(prem)
                assert pins <= ins and pouts <= outs, (str(seq), inst)
                assert moves or not pmoves, (str(seq), inst)
                premises += 1
    assert rules == NESTED_RULES


_goal_formulas = st.recursive(
    st.sampled_from([P, Q, R, Bot()]),
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Imp, sub, sub), st.builds(Dia, sub),
                          st.builds(Box, sub)),
    max_leaves=4)
_goal_trees = st.recursive(
    st.builds(nseq, st.lists(_goal_formulas, max_size=2)),
    lambda sub: st.builds(nseq, st.lists(_goal_formulas, max_size=2), st.none(),
                          st.lists(sub, max_size=2)),
    max_leaves=4)


@st.composite
def _goals(draw):
    base = draw(_goal_trees)
    at = draw(st.sampled_from(all_paths(base)))
    out = draw(_goal_formulas)
    return map_node(base, at, lambda nd: nseq(nd.inputs, out, nd.children))


def _polarized(f, inp):
    """f standing at input polarity if inp, else at output, with each
    atom at output polarity renamed (p to po) and false at input
    polarity turned into p."""
    if isinstance(f, Bot):
        return P if inp else f
    if isinstance(f, Atom):
        return f if inp else Atom(f.name + "o")
    if isinstance(f, Imp):
        return Imp(_polarized(f.left, not inp), _polarized(f.right, inp))
    if isinstance(f, (And, Or)):
        return type(f)(_polarized(f.left, inp), _polarized(f.right, inp))
    return type(f)(_polarized(f.body, inp))


def _polarized_goal(seq):
    """seq with its formulas polarized: a goal that is refuted."""
    return nseq([_polarized(f, True) for f in seq.inputs],
                None if seq.output is None else _polarized(seq.output, False),
                [_polarized_goal(c) for c in seq.children])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_goals(), st.sampled_from(AXIOM_MIXES), st.integers(0, 6))
def test_refuted_goals_have_no_proof(goal, ax, depth):
    """A goal with no false at input polarity and no atom at both
    polarities has no proof from the search without the prunes: the
    goal drawn, if it is refuted, and the goal polarized, which is."""
    polarized = _polarized_goal(goal)
    assert _refuted(polarized)
    assert ref_prove_bounded(polarized, ax, depth) is None
    if _refuted(goal):
        assert ref_prove_bounded(goal, ax, depth) is None


def test_refutation_changes_no_proof():
    """Refuting a sequent that no leaf above can close changes no proof:
    with d ungated, byte-identical proofs with and without the
    refutation, on random goals under every axiom mix."""
    rng = random.Random(17003)
    runs = proved = refuted = 0
    for k in range(1000):
        goal = gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q", "r"))
        ax = AXIOM_MIXES[k % len(AXIOM_MIXES)]
        refuted += _refuted(goal)
        for depth in (2, 4, 5, 6):
            got = _dumped(_prove_as(_ungated, goal, ax, depth))
            assert got == _dumped(_prove_as(_unpruned, goal, ax, depth)), (k, depth)
            runs += 1
            proved += got is not None
    assert (runs, proved, refuted) == (4000, 902, 289)


def test_d_gate_loses_no_proof():
    """d is tried only where some formula can propagate, else its new
    bracket would stay empty in any proof above it.  Against the search
    without the gate, under seriality, each proves the same goals, the
    gated proof checks and is no taller, and the goals whose proofs
    differ in bytes are these."""
    rng = random.Random(17005)
    mixes = SERIAL_MIXES + [axiom_set([(2, 1)], d=True)]
    cases = []
    for k in range(600):
        goal = gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q", "r"))
        cases.append((goal, mixes[k % len(mixes)]))
    # a proof of height 7 with one useless d at depth 6, of 4 when gated
    cases.append((parse_nested("[ q | r -> <>false^i, r^i, [](false | p)^o ]"),
                  axiom_set([(2, 1)], d=True)))
    runs = proved = 0
    differ = []
    for k, (goal, ax) in enumerate(cases):
        for depth in (3, 4, 5, 6):
            got = prove_bounded(goal, ax, depth)
            want = _prove_as(_ungated, goal, ax, depth)
            assert (got is None) == (want is None), (k, depth)
            runs += 1
            if got is None:
                continue
            proved += 1
            assert check_nested(got, ax)
            assert got.height() <= want.height(), (k, depth)
            if dump_proof(got) != dump_proof(want):
                differ.append((k, depth, want.height(), got.height()))
    assert (runs, proved) == (2404, 576)
    assert differ == [(600, 6, 7, 4)]


def _no_countermodel(front, ax=None):
    """A root test's verdict switched off, in the names prove_bounded
    calls, _one_world_valuation or _two_world_candidate: prove_bounded
    searches every goal that is no leaf and that the other test, if on,
    does not refute."""
    return None


def test_polarity_prunes_cut_the_corpus_search():
    """Search calls, d attempts and the budget-1 calls that _closable
    decides, before any key, in one pass over the prove corpus at depth
    5, and the goals the one-world test and the two-world test refute at
    the root: with both root tests and both polarity prunes, then with
    the one-world test alone and both prunes, then without root tests,
    with both prunes, with the refutation alone, and with neither.  The
    outcomes are the frozen ones in all five."""
    spec = json.loads(PROVE_CORPUS.read_text())
    goals = [(parse_nested(g["goal"]),
              axiom_set([tuple(p) for p in g["axioms"]["hsl"]], d=g["axioms"]["d"]),
              g["digest"]) for g in spec["goals"]]
    calls = {"search": 0, "d": 0, "unkeyed": 0, "roots": 0, "two": 0}
    files = (imseq.nested.__file__, imseq.models.__file__)

    def count(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return
        name = frame.f_code.co_name
        if event == "call":
            if name == "search":
                calls["search"] += 1
            elif name == "attempt" and frame.f_locals["rule"] == "d":
                calls["d"] += 1
        elif event == "return" and name == "_closable" and arg is False:
            calls["unkeyed"] += 1
        elif event == "return" and name == "_one_world_valuation" and arg is not None:
            calls["roots"] += 1
        elif event == "return" and name == "_two_world_candidate" and arg is not None:
            calls["two"] += 1

    counts = []
    two_world = []
    for root_tests, polarities in (
            ((_one_world_valuation, _two_world_candidate), _polarities),
            ((_one_world_valuation, _no_countermodel), _polarities),
            ((_no_countermodel, _no_countermodel), _polarities),
            ((_no_countermodel, _no_countermodel), _ungated),
            ((_no_countermodel, _no_countermodel), _unpruned)):
        calls.update(search=0, d=0, unkeyed=0, roots=0, two=0)
        outcomes = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(imseq.nested, "_one_world_valuation", root_tests[0])
            m.setattr(imseq.nested, "_two_world_candidate", root_tests[1])
            m.setattr(imseq.nested, "_polarities", polarities)
            for goal, ax, _ in goals:
                sys.setprofile(count)
                try:
                    proof = prove_bounded(goal, ax, spec["depth"])
                finally:
                    sys.setprofile(None)
                outcomes.append(None if proof is None else
                                hashlib.sha256(dump_proof(proof).encode()).hexdigest())
        assert outcomes == [digest for _, _, digest in goals]
        counts.append((calls["roots"], calls["search"], calls["d"], calls["unkeyed"]))
        two_world.append(calls["two"])
    assert counts == [(141, 353, 3, 48),
                      (141, 1047, 99, 335), (0, 1830, 177, 599), (0, 2060, 344, 748),
                      (0, 2914, 788, 1206)]
    assert two_world == [68, 0, 0, 0, 0]


def test_closable_holds_wherever_one_step_closes():
    """_closable answers False only where no rule instance closes every
    premise in one step, against ref_one_step_closers: on random full
    sequents that are no leaf, under every axiom mix, and on the
    sequents the prove corpus searches at budget 1 at depth 5 with both
    root tests off."""
    rng = random.Random(20005)
    cases = []
    while len(cases) < 3000:
        # two atoms and shallow formulas, so that many close in one step
        seq = gen.random_full_nested(rng, rng.randrange(3), 2, rng.randrange(1, 3),
                                     ("p", "q"))
        if _try_leaf(seq, _positions(seq)) is None:
            cases.append((seq, AXIOM_MIXES[len(cases) % len(AXIOM_MIXES)]))
    spec = json.loads(PROVE_CORPUS.read_text())
    met = []

    def recorded(seq):
        met.append((seq, ax))  # ax: the axioms of the goal being proved
        return _closable(seq)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(imseq.nested, "_one_world_valuation", _no_countermodel)
        m.setattr(imseq.nested, "_two_world_candidate", _no_countermodel)
        m.setattr(imseq.nested, "_closable", recorded)
        for g in spec["goals"]:
            ax = axiom_set([tuple(p) for p in g["axioms"]["hsl"]], d=g["axioms"]["d"])
            prove_bounded(parse_nested(g["goal"]), ax, spec["depth"])
    shares = []
    rules = set()
    for group in (cases, met):
        closing = rejected = 0
        for seq, ax in group:
            closers = ref_one_step_closers(seq, ax)
            kept = _closable(seq)
            assert kept or not closers, (str(seq), ax)
            rules |= closers
            closing += bool(closers)
            rejected += not kept
        print(f"_closable rejects {rejected} of {len(group)} "
              f"({rejected / len(group):.0%}); {closing} close in one step")
        shares.append((len(group), closing, rejected))
    assert rules == NESTED_RULES - {"botI", "id", "boxO", "d"}
    assert shares == [(3000, 426, 2502), (701, 55, 599)]


def _one_world_goals():
    """3,000 seeded random goals over p, q and r, each with an axiom mix."""
    rng = random.Random(22001)
    return [(gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q", "r")),
             AXIOM_MIXES[k % len(AXIOM_MIXES)]) for k in range(3000)]


def test_one_world_model_meets_every_frame_condition():
    """The one world that sees itself is a model of every axiom set of one
    or two hsl(n, k) pairs with n, k <= 3, with and without seriality,
    and of every mix: the premise of one_world_countermodel's soundness."""
    m = model_of(["w"], acc=[("w", "w")])
    assert check_model(m) == []
    pairs = [(n, k) for n in range(4) for k in range(4)]
    sets = [[a] for a in pairs] + [[a, b] for i, a in enumerate(pairs) for b in pairs[i + 1:]]
    axes = [axiom_set(ps, d=d) for ps in sets for d in (False, True)] + AXIOM_MIXES
    assert len(axes) == 272 + 11
    for ax in axes:
        assert check_frame_conditions(m, ax) == [], ax


def test_one_world_test_matches_the_models_layer():
    """one_world_countermodel refutes a goal iff some valuation falsifies
    its labelled translation in the one-world model under sat_sequent,
    and the valuation it names is one of those."""
    refuted = 0
    for goal, _ in _one_world_goals():
        got = one_world_countermodel(goal)
        want = ref_one_world_refutes(goal)
        assert (got is None) == (not want), str(goal)
        assert got is None or got in want, str(goal)
        refuted += got is not None
    print(f"one-world test refutes {refuted} of 3000 goals")
    assert refuted == 1579
    for text in ("p^i", "p^o, [ q^o ]"):
        with pytest.raises(ValueError, match="exactly one output"):
            one_world_countermodel(parse_nested(text))


def test_one_world_refuted_goals_have_no_proof():
    """Wherever the one-world test refutes a goal, the reference search,
    which has no such test, finds no proof at depths 0-6."""
    for k, (goal, ax) in enumerate(_one_world_goals()):
        if one_world_countermodel(goal) is not None:
            for depth in range(7):
                assert ref_prove_bounded(goal, ax, depth) is None, (k, depth)


def test_one_world_test_changes_no_proof():
    """prove_bounded gives byte-identical output with the one-world test
    switched off."""
    goals = _one_world_goals()
    outputs = []
    for root_test in (_one_world_valuation, _no_countermodel):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(imseq.nested, "_one_world_valuation", root_test)
            outputs.append([_dumped(prove_bounded(goal, ax, depth))
                            for goal, ax in goals for depth in (3, 5)])
    assert outputs[0] == outputs[1]
    assert sum(out is not None for out in outputs[0]) == 1234


def test_one_world_test_runs_without_recursion_on_a_deep_chain():
    """A 5,000-level implication chain built through the API, too deep
    for a recursive walk, is tested and answered at depth 2 as with the
    test off."""
    refuted, valid = Q, P
    for _ in range(5000):
        refuted, valid = Imp(P, refuted), Imp(P, valid)
    for f, want in ((refuted, ("p",)), (valid, None)):
        goal = nseq(output=f)
        assert one_world_countermodel(goal) == want
        got = prove_bounded(goal, NOAX, 2)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(imseq.nested, "_one_world_valuation", _no_countermodel)
            assert _dumped(got) == _dumped(prove_bounded(goal, NOAX, 2))


def test_one_world_test_skips_tables_past_the_bound():
    """With 40 distinct atoms the tables would pass ONE_WORLD_BITS, so
    the test is skipped and the goal is searched as with the test off:
    the conjunction of p0..p38 implies p0 at depth 40, and not p39."""
    atoms = [Atom(f"p{i}") for i in range(40)]
    conj = atoms[0]
    for a in atoms[1:-1]:
        conj = And(conj, a)
    proved = []
    for f in (Imp(conj, atoms[-1]), Imp(conj, atoms[0])):
        goal = nseq(output=f)
        assert one_world_countermodel(goal) is None
        got = prove_bounded(goal, NOAX, 40)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(imseq.nested, "_one_world_valuation", _no_countermodel)
            assert _dumped(got) == _dumped(prove_bounded(goal, NOAX, 40))
        proved.append(got is not None)
    assert proved == [False, True]
    # a chain over k atoms has 2k - 1 distinct subformulas: 29 tables of
    # 2^15 bits fit in ONE_WORLD_BITS, 31 of 2^16 do not
    for k, tested in ((15, True), (16, False)):
        chain = atoms[k - 1]
        for a in reversed(atoms[:k - 1]):
            chain = Imp(a, chain)
        assert ((2 * k - 1) << k <= ONE_WORLD_BITS) == tested
        assert one_world_countermodel(nseq(output=chain)) == (
            tuple(sorted(a.name for a in atoms[:k - 1])) if tested else None)


def _two_world_goals():
    """330 seeded random goals over p and q, 30 under each axiom mix."""
    rng = random.Random(27001)
    return [(gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q")),
             AXIOM_MIXES[k % len(AXIOM_MIXES)]) for k in range(330)]


def _falsified_at(goal, model, world):
    """Whether some map of goal's labels to model's worlds that puts the
    root's label, w0, at world falsifies goal's labelled translation
    under sat_sequent."""
    seq = to_labelled(goal)
    labels = sorted(seq.labels() - {"w0"})
    return any(not sat_sequent(model, {"w0": world, **dict(zip(labels, ws))}, seq)
               for ws in product(sorted(model.worlds), repeat=len(labels)))


def test_two_world_test_matches_the_brute_force():
    """two_world_countermodel refutes a goal iff ref_two_world_refutes
    finds a model on two worlds that meets the axioms and falsifies it,
    and the model it returns passes both structure checks and falsifies
    the goal's labelled translation with the root at the world named."""
    refuted = fresh = 0
    for goal, ax in _two_world_goals():
        got = two_world_countermodel(goal, ax)
        assert (got is not None) == ref_two_world_refutes(goal, ax), (str(goal), ax)
        if got is None:
            continue
        model, world = got
        assert model.worlds == {"w0", "w1"} and world in model.worlds
        assert check_model(model) == [] and check_frame_conditions(model, ax) == []
        assert _falsified_at(goal, model, world), (str(goal), ax, model, world)
        refuted += 1
        fresh += one_world_countermodel(goal) is None
    print(f"two-world test refutes {refuted} of 330 goals, {fresh} past the one-world test")
    assert (refuted, fresh) == (218, 85)
    for text in ("p^i", "p^o, [ q^o ]"):
        with pytest.raises(ValueError, match="exactly one output"):
            two_world_countermodel(parse_nested(text), NOAX)


def test_two_world_refuted_goals_have_no_proof():
    """Wherever the two-world test refutes a goal that the one-world
    test does not, the reference search, which has neither test, finds
    no proof at depths 0-6."""
    refuted = 0
    for k, (goal, ax) in enumerate(_one_world_goals() + _two_world_goals()):
        if (one_world_countermodel(goal) is None
                and two_world_countermodel(goal, ax) is not None):
            refuted += 1
            for depth in range(7):
                assert ref_prove_bounded(goal, ax, depth) is None, (k, depth)
    assert refuted == 675


def test_two_world_test_changes_no_proof():
    """prove_bounded gives byte-identical output with the two-world test
    switched off, on the goals of the brute-force comparison."""
    goals = _two_world_goals()
    outputs = []
    for root_test in (_two_world_candidate, _no_countermodel):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(imseq.nested, "_two_world_candidate", root_test)
            outputs.append([_dumped(prove_bounded(goal, ax, depth))
                            for goal, ax in goals for depth in (3, 5)])
    assert outputs[0] == outputs[1]
    assert sum(out is not None for out in outputs[0]) == 174


def test_root_tests_share_one_front_end(monkeypatch):
    """Each prove_bounded call on the prove corpus at depth 5 lists the
    goal's subformulas at most once and builds its front end,
    _goal_formulas, at most once, and no two-world model is decoded: with
    _two_world_model raising, the corpus gives its frozen outcomes, 69
    proofs, and 141 goals refuted in one world and 68 in two."""
    spec = json.loads(PROVE_CORPUS.read_text())
    goals = [(parse_nested(g["goal"]),
              axiom_set([tuple(p) for p in g["axioms"]["hsl"]], d=g["axioms"]["d"]),
              g["digest"]) for g in spec["goals"]]
    for _, ax, _ in goals:  # each axiom set's frame mask, made once and kept
        imseq.models._two_world_frames(ax)

    def no_model(v, atoms):
        raise AssertionError("a two-world model was built")
    monkeypatch.setattr(imseq.models, "_two_world_model", no_model)
    calls = {}
    names = {("subformulas", imseq.formula.__file__), ("_goal_formulas", imseq.models.__file__),
             ("_one_world_valuation", imseq.models.__file__),
             ("_two_world_candidate", imseq.models.__file__)}

    def count(frame, event, arg):
        key = (frame.f_code.co_name, frame.f_code.co_filename)
        if key in names and (event == "call" or arg is not None):
            calls[event, key[0]] = calls.get((event, key[0]), 0) + 1

    refuted = [0, 0]
    for rounds in range(2):  # the first pass leaves every signature stored
        outcomes = []
        for goal, ax, _ in goals:
            calls.clear()
            sys.setprofile(count)
            try:
                proof = prove_bounded(goal, ax, spec["depth"])
            finally:
                sys.setprofile(None)
            outcomes.append(None if proof is None else
                            hashlib.sha256(dump_proof(proof).encode()).hexdigest())
            if rounds:
                assert calls.get(("call", "subformulas"), 0) <= 1, str(goal)
                assert calls.get(("call", "_goal_formulas"), 0) <= 1, str(goal)
                refuted[0] += calls.get(("return", "_one_world_valuation"), 0)
                refuted[1] += calls.get(("return", "_two_world_candidate"), 0)
        assert outcomes == [digest for _, _, digest in goals]
    assert sum(out is not None for out in outcomes) == 69
    assert refuted == [141, 68]


def test_two_world_test_skips_tables_past_the_bound():
    """The bound counts two tables of 2^11 bits, over three atoms, for
    each subformula and each node: (p -> q) | r at the root, 5
    subformulas, is refuted with 250 empty brackets beside it, and the
    test is skipped with 251."""
    out = parse_formula("(p -> q) | r")
    for brackets, tested in ((250, True), (251, False)):
        goal = nseq(output=out, children=[EMPTY] * brackets)
        assert ((5 + 1 + brackets) << 12 <= ONE_WORLD_BITS) == tested
        assert (two_world_countermodel(goal, NOAX) is not None) == tested


def test_two_world_tables_match_eval_formula():
    """Bit v of the truth tables at w0 and at w1 is eval_formula's answer
    at that world in _two_world_model(v), well formed or not, for every
    candidate and every subformula of seeded random formulas over p and
    q and of one that holds every connective."""
    rng = random.Random(27002)
    roots = [gen.random_formula(rng, 3, ("p", "q")) for _ in range(12)]
    roots.append(parse_formula("[](p -> <>q) & (false | <>[]p -> q)"))
    for root in roots:
        order = subformulas([root])
        atoms = sorted([f for f in order if type(f) is Atom], key=lambda a: a.name)
        full, _, t0, t1 = _two_world_tables(order, atoms)
        for v in range(full.bit_length()):
            m = _two_world_model(v, [a.name for a in atoms])
            for f in order:
                assert (t0[f] >> v & 1, t1[f] >> v & 1) == (
                    eval_formula(m, "w0", f), eval_formula(m, "w1", f)), (root, v, f)


def test_failure_cache_changes_no_verdict():
    """The failure cache is keyed on the sequent alone while the loop
    check depends on the branch; whether a goal is proved does not
    depend on it."""
    rng = random.Random(13017)
    runs = proved = 0
    for k in range(300):
        goal = gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q"))
        ax = AXIOM_MIXES[k % len(AXIOM_MIXES)]
        for depth in (3, 5):
            got = prove_bounded(goal, ax, depth) is not None
            assert got == (ref_prove_bounded(goal, ax, depth, cache=False)
                           is not None), (k, depth)
            runs += 1
            proved += got
    assert runs == 600 and 60 < proved < 540


def _instances(seq):
    """(rule, at, index, f, target) of every instance of the 13 rules
    whose principal seq holds, with every node as a pdia/pbox target."""
    paths = all_paths(seq)
    for at in paths:
        node = node_at(seq, at)
        for idx, f in enumerate(node.inputs):
            if isinstance(f, Bot):
                yield "botI", at, idx, f, None
            if isinstance(f, Atom) and f is node.output:
                yield "id", at, idx, f, None
            for cls, rule in ((And, "andI"), (Or, "orI"), (Imp, "impI"), (Dia, "diaI")):
                if isinstance(f, cls):
                    yield rule, at, idx, f, None
            if isinstance(f, Box):
                for target in paths:
                    yield "pbox", at, idx, f, target
        f = node.output
        for cls, rule in ((And, "andO"), (Imp, "impO"), (Box, "boxO")):
            if isinstance(f, cls):
                yield rule, at, None, f, None
        if isinstance(f, Or):
            yield "orO", at, 0, f, None
            yield "orO", at, 1, f, None
        if isinstance(f, Dia):
            for target in paths:
                yield "pdia", at, None, f, target
        yield "d", at, None, None, None


def test_local_leaf_test_agrees_with_the_full_scan():
    """On sequents that are no leaf, each premise of every rule instance
    closes at its touched node exactly where a preorder scan of the
    built premise closes it, and only there."""
    rng = random.Random(13019)
    rules = set()
    closing = set()  # rules with a premise that closes
    premises = 0
    while premises < 6000:
        seq = gen.random_full_nested(rng, rng.randrange(3), 2, 1, ("p", "q"))
        if _try_leaf(seq, _positions(seq)) is not None:
            continue
        for inst in _instances(seq):
            rules.add(inst[0])
            for edits in _premise_edits(seq, *inst):
                prem = _applied(seq, edits)
                full = _try_leaf(prem, _positions(prem))
                local = _local_leaf(seq, edits)
                assert (None if full is None else
                        (parse_path_id(full.params["at"]), full.rule,
                         full.params["index"])) == local, (str(seq), inst)
                premises += 1
                if local is not None:
                    closing.add(inst[0])
    # no instance of botI or id applies to a sequent that is no leaf
    assert rules == NESTED_RULES - {"botI", "id"}
    assert closing == rules - {"boxO", "d"}


def test_prover_rejects_a_proof_built_from_a_bad_witness(monkeypatch):
    """The final check guards the trusted premises: a witness outside the
    sequent's graph raises instead of yielding a proof that fails to check."""
    def flipped(sat, src, dst):
        walk = _witness(sat, src, dst)
        if len(walk) > 1:
            walk[1] = Sym(walk[1]).converse().value
        return walk

    goal = parse_nested("[ p^i ], <>p^o")
    assert check_nested(prove_bounded(goal, NOAX, 4), NOAX)
    monkeypatch.setattr(imseq.nested, "_witness", flipped)
    with pytest.raises(RuntimeError, match="fails to check"):
        prove_bounded(goal, NOAX, 4)


def test_prover_rejects_a_bad_walk_from_a_stopped_saturation(monkeypatch):
    """As above for walks of two letters, which unfold from a saturation
    stopped at their fact with facts still waiting: the pbox steps of
    [ []p^i ], [ p^o ] under hsl(1,1) at depth 4."""
    ax = axiom_set([(1, 1)])
    goal = parse_nested("[ []p^i ], [ p^o ]")
    walks = []

    def recorded(sat, src, dst):
        walk = _witness(sat, src, dst)
        walks.append((walk, len(sat.queue) > 0))
        return walk

    def flipped(sat, src, dst):
        walk = _witness(sat, src, dst)
        walk[1] = Sym(walk[1]).converse().value
        return walk

    monkeypatch.setattr(imseq.nested, "_witness", recorded)
    assert check_nested(prove_bounded(goal, ax, 4), ax)
    assert walks == [(["r.0", "b", "r", "d", "r.1"], True),
                     (["r.0", "b", "r", "d", "r.0"], True)]
    monkeypatch.setattr(imseq.nested, "_witness", flipped)
    with pytest.raises(RuntimeError, match="fails to check"):
        prove_bounded(goal, ax, 4)


def random_tree(rng, n):
    """A bracket tree of n nodes, each after the first under a random
    earlier one."""
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        kids[rng.randrange(i)].append(i)

    def build(i):
        return nseq(children=tuple(build(j) for j in kids[i]))
    return build(0)


def test_stopped_saturation_matches_reach_all():
    """A saturation made by _Saturator.paused, asked for every pair
    reach_all gives, in a seeded random order, stops and resumes and
    unfolds reach_all's walk for each; it answers None for every other
    pair, and run on to the end it holds a full run's derivations, key
    for key and in the same order: on random bracket trees under every
    axiom mix."""
    rng = random.Random(28001)
    stops = 0  # asks that ran the worklist and stopped with facts waiting
    for k in range(66):
        seq = random_tree(rng, rng.randint(1, 16))
        g = grammar_from_axioms(AXIOM_MIXES[k % len(AXIOM_MIXES)])
        pg = prop_graph_nested(seq)
        walks = reach_all(pg, g)
        sat = _Saturator.paused(pg, g)
        pairs = sorted(walks)
        rng.shuffle(pairs)
        for src, dst in pairs:
            known = len(sat.why)
            fact = sat.full(Sym.FWD, src, dst)
            assert sat.path_of(fact) == walks[src, dst], (str(seq), k, src, dst)
            stops += len(sat.why) > known and len(sat.queue) > 0
        for src in sorted(pg.nodes):
            for dst in sorted(pg.nodes):
                if (src, dst) not in walks:
                    assert sat.full(Sym.FWD, src, dst) is None
        sat._run(None)
        assert list(sat.why.items()) == list(_Saturator(pg, g).why.items())
    assert stops == 129


def test_prover_reach_table_matches_reach_all(monkeypatch):
    """The prover's per-shape targets are reach_all's pairs grouped by
    source in sorted order, found with no worklist saturation, from a
    memo miss and from the hit after it (a tree past REACH_MEMO_NODES
    is never stored), and each rendered witness is reach_all's; the
    reference search's targets are the same pairs."""
    built = []
    init = _Saturator.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(imseq.grammar._Saturator, "__init__", counted)

    def agrees(seq, pairs, walks):
        g = grammar_from_axioms(axiom_set(pairs))
        positions = _positions(seq)
        shape = tuple(path for path, _ in positions)
        reach = reach_all(prop_graph_nested(seq), g)
        index = {path_id(path): i for i, path in enumerate(shape)}
        grouped = [[] for _ in shape]
        for src, dst in sorted(reach):
            grouped[index[src]].append(index[dst])
        built.clear()
        _reach_memo.cache_clear()
        for _ in range(2):  # a miss, then a hit
            table = _reach_table(positions, g)
            assert [_targets(table, i) for i in range(len(shape))] == grouped
        info = _reach_memo.cache_info()
        stored = len(shape) <= REACH_MEMO_NODES
        assert (info.hits, info.misses, info.currsize) == ((1, 1, 1) if stored else (0, 0, 0))
        assert built == []
        if walks:
            sat = _Saturator(prop_graph_nested(seq), g)
            assert ref_reach_targets(sat, shape) == grouped
            for (src, dst), walk in reach.items():
                assert _witness(sat, parse_path_id(src),
                                parse_path_id(dst)) == walk.to_list()

    # unit and erasing productions next to the longer ones
    grammars = ([(1, 1)], [(2, 0)], [(0, 2)], [(1, 1), (2, 1)], [(0, 0)],
                [(0, 1)], [(1, 0)], [(1, 2)], [(0, 0), (1, 1)])
    rng = random.Random(4242)
    for k in range(40):
        seq = random_full_nested(rng, 2, [P, Q])
        if k % 8 == 0:  # a wide node, so that 'r.10' sorts before 'r.2'
            seq = nseq(seq.inputs, seq.output, seq.children + (EMPTY,) * 11)
        for pairs in grammars:
            agrees(seq, pairs, True)
    for _ in range(12):
        seq = random_tree(rng, rng.randint(1, 40))
        for pairs in grammars:
            agrees(seq, pairs, False)
    chain = EMPTY
    for _ in range(59):
        chain = nseq(children=(chain,))
    for seq in (chain, random_tree(rng, 60)):
        for pairs in ([(1, 1)], [(2, 0)], [(0, 2)], [(1, 2)]):
            agrees(seq, pairs, False)
    _reach_memo.cache_clear()


def test_reach_memo_changes_no_proof():
    """dump_proof bytes are the same with the reach memo cleared before
    every search and with it warm from every search before, on the
    frozen corpus at depth 5 and on random goals under every axiom mix."""
    spec = json.loads(PROVE_CORPUS.read_text())
    corpus = [(parse_nested(g["goal"]),
               axiom_set([tuple(p) for p in g["axioms"]["hsl"]], d=g["axioms"]["d"]),
               spec["depth"]) for g in spec["goals"]]
    rng = random.Random(13019)
    for k in range(200):
        goal = gen.random_full_nested(rng, rng.randrange(3), 2, 2, ("p", "q"))
        corpus += [(goal, AXIOM_MIXES[k % len(AXIOM_MIXES)], depth) for depth in (2, 4)]
    cold = []
    for goal, ax, depth in corpus:
        _reach_memo.cache_clear()
        cold.append(_dumped(prove_bounded(goal, ax, depth)))
    misses = _reach_memo.cache_info().misses
    warm = [_dumped(prove_bounded(goal, ax, depth)) for goal, ax, depth in corpus]
    info = _reach_memo.cache_info()
    assert warm == cold
    assert info.misses > misses and info.hits > 0
    assert len(corpus) == 700 and 100 < sum(p is not None for p in cold) < 600
    _reach_memo.cache_clear()


def test_reach_memo_stays_bounded():
    """The memo holds at most REACH_MEMO_SIZE tables, the most recent,
    and never stores the table of a tree past REACH_MEMO_NODES nodes,
    whose targets are still right."""
    def forests(n):
        # every ordered forest of n nodes, as tuples of trees
        if n == 0:
            return [()]
        return [(nseq(children=kids),) + rest for m in range(1, n + 1)
                for kids in forests(m - 1) for rest in forests(n - m)]

    trees = [nseq(children=kids) for kids in forests(9)]  # of 10 nodes
    assert len(trees) == 4862 > REACH_MEMO_SIZE and 10 <= REACH_MEMO_NODES
    g = grammar_from_axioms(axiom_set([(1, 1)]))
    _reach_memo.cache_clear()
    for s in trees:
        _reach_table(_positions(s), g)
        assert _reach_memo.cache_info().currsize <= REACH_MEMO_SIZE
    info = _reach_memo.cache_info()
    assert (info.misses, info.currsize) == (len(trees), REACH_MEMO_SIZE)
    # the last table made is still stored; the first has been dropped
    _reach_table(_positions(trees[-1]), g)
    _reach_table(_positions(trees[0]), g)
    info = _reach_memo.cache_info()
    assert (info.hits, info.misses) == (1, len(trees) + 1)

    chain = EMPTY
    for _ in range(REACH_MEMO_NODES):
        chain = nseq(children=(chain,))
    positions = _positions(chain)
    assert len(positions) == REACH_MEMO_NODES + 1
    table = _reach_table(positions, g)
    assert _reach_memo.cache_info() == info
    sat = _Saturator(prop_graph_nested(chain), g)
    assert ([_targets(table, i) for i in range(len(positions))]
            == ref_reach_targets(sat, [path for path, _ in positions]))
    _reach_memo.cache_clear()


def _fresh(s, rng=None):
    """An equal sequent of new nodes, with no class or key stored; rng,
    when given, shuffles the inputs and brackets of every node."""
    inputs, kids = list(s.inputs), [_fresh(c, rng) for c in s.children]
    if rng is not None:
        rng.shuffle(inputs)
        rng.shuffle(kids)
    return nseq(inputs, s.output, kids)


def _edited(rng, s):
    """s with one input formula of one node replaced, added or dropped,
    or its output moved to a bracket, as new nodes."""
    at = rng.choice(all_paths(s))
    f = rng.choice([P, Q, R, Dia(P), Imp(Q, R)])

    def edit(nd):
        k = rng.randrange(4)
        if k == 0 and nd.inputs:
            i = rng.randrange(len(nd.inputs))
            return nseq(nd.inputs[:i] + (f,) + nd.inputs[i + 1:], nd.output, nd.children)
        if k == 1 and nd.inputs:
            return nseq(nd.inputs[1:], nd.output, nd.children)
        if k == 2 and nd.output is not None and nd.children:
            kid = nd.children[0]
            return nseq(nd.inputs, None, (nseq(kid.inputs, nd.output, kid.children),)
                        + nd.children[1:])
        return nseq(nd.inputs + (f,), nd.output, nd.children)
    return _fresh(map_node(s, at, edit))


def test_equality_and_hash_agree_with_the_key():
    """Classes against rendered keys on a few thousand pairs: equal
    reorderings, one-formula edits, independent draws, and the same pair
    compared with and without stored classes."""
    rng = random.Random(6007)
    pairs = 0
    for _ in range(800):
        a = random_full_nested(rng, rng.randrange(4), [P, Q, R])
        for b in (_fresh(a), _fresh(a, rng), _edited(rng, a),
                  random_full_nested(rng, rng.randrange(3), [P, Q])):
            a2 = _fresh(a)
            same = a._key == b._key
            assert (a2 == b) is same and (b == a2) is same
            assert (a2 != b) is not same
            assert (hash(a) == hash(b)) is same  # classes stored now
            assert (a == b) is same and (a2 == b) is same
            if same:
                assert match_children(a, b) is not None
            pairs += 1
    assert pairs == 3200


def test_sequents_survive_pickle_and_copy():
    rng = random.Random(6011)
    for _ in range(50):
        s = random_full_nested(rng, 3, [P, Q, R])
        h = hash(s)  # a class stored on the node must not travel
        for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert twin == s and s == twin and hash(twin) == h
            assert render_nested(twin) == render_nested(s)
            assert _fresh(s, rng) == twin


def test_sequents_are_immutable_and_copies_share_their_class():
    """Setting or deleting a field raises AttributeError; a pickle round
    trip and a deep copy give an equal sequent, a new object that interns
    the same class token."""
    text = "p^i, q -> p^o, [ []p^i, [ ] ], [ q^i ]"
    s = parse_nested(text)
    for name in ("inputs", "output", "children"):
        with pytest.raises(AttributeError):
            setattr(s, name, ())
        with pytest.raises(AttributeError):
            delattr(s, name)
    with pytest.raises(AttributeError):
        s.extra = 1
    assert render_nested(s) == text
    for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert twin is not s and twin == s
        assert (twin.inputs, twin.output) == (s.inputs, s.output)
        assert twin._cls is s._cls
        assert [c._cls for c in twin.children] == [c._cls for c in s.children]


def test_class_table_shrinks_after_collection():
    gc.collect()
    before = len(imseq.nested._CLASSES)
    made = [nseq((Atom(f"fresh{i}"),), None, (nseq((P,)),)) for i in range(5000)]
    assert len({hash(s) for s in made}) == 5000
    assert len(imseq.nested._CLASSES) >= before + 5000
    del made
    gc.collect()
    assert len(imseq.nested._CLASSES) == before


def test_threads_share_one_class_per_sequent():
    results = [None] * 4

    def build(slot):
        results[slot] = [nseq((Atom(f"t{i}"),), P, (nseq((Q,)), EMPTY))._cls
                         for i in range(3000)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    first = results[0]
    for other in results[1:]:
        assert all(a is b for a, b in zip(first, other, strict=True))
