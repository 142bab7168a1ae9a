"""The four structural steps must re-check and never grow proofs."""

import random

import pytest

from imseq.formula import Atom, axiom_set, parse_formula
from imseq.nested import (NestedProof, check_nested, node_at, nseq,
                          parse_nested, prove_bounded, prove_formula)
from imseq.structural import (contract_proof, invert_and_input,
                              invert_dia_input, invert_imp_input,
                              invert_or_input, merge_proof, nest_proof,
                              weaken_proof)

P, Q = Atom("p"), Atom("q")
NOAX = axiom_set()


def checked(p, ax=NOAX):
    res = check_nested(p, ax)
    assert res, f"{res.message} at {res.at}"
    return p


def base_proof(text="p -> p", ax=NOAX, depth=10):
    p = prove_formula(parse_formula(text), ax, depth)
    assert p is not None
    return p


def test_nest_proof():
    p = base_proof()
    n = checked(nest_proof(p))
    assert n.conclusion == parse_nested("[ p -> p^o ]")
    assert n.height() == p.height()


def test_nest_remaps_every_address():
    ax = axiom_set([(1, 1)])
    p = base_proof("<>[]p -> []p", ax)
    n = checked(nest_proof(p), ax)
    for node in n.nodes():
        for key in ("at",):
            if key in node.params:
                assert node.params[key].startswith("r.0")


def test_weaken_at_root():
    p = base_proof()
    delta = parse_nested("q^i, [ q^i ]")
    w = checked(weaken_proof(p, (), delta))
    assert w.conclusion == parse_nested("p -> p^o, q^i, [ q^i ]")
    assert w.height() == p.height()


def test_weaken_inside_bracket():
    goal = parse_nested("[ p^i, p -> p^o ]")
    p = prove_bounded(goal, NOAX, 6)
    w = checked(weaken_proof(p, (0,), parse_nested("q^i, [ q^i ]")))
    assert w.conclusion == parse_nested("[ p^i, p -> p^o, q^i, [ q^i ] ]")
    assert w.height() == p.height()


def test_weaken_rejects_output_context():
    p = base_proof()
    with pytest.raises(ValueError):
        weaken_proof(p, (), parse_nested("q^o"))


def test_invert_and():
    goal = parse_nested("p & q^i, p^o")
    p = prove_bounded(goal, NOAX, 6)
    inv = checked(invert_and_input(p, (), 0))
    assert inv.conclusion == parse_nested("p^i, q^i, p^o")
    assert inv.height() <= p.height()


def test_invert_or():
    goal = parse_nested("p | q^i, p | q^o")
    p = prove_bounded(goal, NOAX, 8)
    for side, want in (("left", "p^i, p | q^o"), ("right", "q^i, p | q^o")):
        inv = checked(invert_or_input(p, (), 0, side))
        assert inv.conclusion == parse_nested(want)
        assert inv.height() <= p.height()


def test_invert_imp():
    goal = parse_nested("p -> q^i, p^i, q^o")
    p = prove_bounded(goal, NOAX, 8)
    inv = checked(invert_imp_input(p, (), 0))
    assert inv.conclusion == parse_nested("q^i, p^i, q^o")
    assert inv.height() <= p.height()


def test_invert_dia():
    ax = axiom_set([(1, 1)])
    goal = parse_nested("<>p^i, <>p^o")
    p = prove_bounded(goal, ax, 8)
    inv = checked(invert_dia_input(p, (), 0), ax)
    assert inv.conclusion == parse_nested("<>p^o, [ p^i ]")
    assert inv.height() <= p.height()

    # orO's side is no input position: dropping input 0 shifts id's
    # index, not the side
    leaf = NestedProof(parse_nested("<>q^i, p^i, p^o"), "id",
                       {"at": "r", "index": 1}, ())
    p = NestedProof(parse_nested("<>q^i, p^i, q | p^o"), "orO",
                    {"at": "r", "side": "right"}, (leaf,))
    inv = checked(invert_dia_input(checked(p), (), 0))
    assert inv.params == {"at": "r", "side": "right"}
    assert inv.premises[0].params == {"at": "r", "index": 0}


def test_contract_simple():
    goal = parse_nested("p & q^i, p & q^i, p & q^o")
    p = prove_bounded(goal, NOAX, 10)
    c = checked(contract_proof(p, (), 0, 1))
    assert c.conclusion == parse_nested("p & q^i, p & q^o")
    assert c.height() <= p.height()


def test_contract_through_dia():
    """Contracting diamonds exercises inversion, bracket merge, and the
    inner contraction in one go."""
    goal = parse_nested("<>p^i, <>p^i, <>p^o")
    p = prove_bounded(goal, NOAX, 10)
    c = checked(contract_proof(p, (), 0, 1))
    assert c.conclusion == parse_nested("<>p^i, <>p^o")
    assert c.height() <= p.height()


def test_contract_through_imp():
    goal = parse_nested("p -> q^i, p -> q^i, p^i, q^o")
    p = prove_bounded(goal, NOAX, 10)
    c = checked(contract_proof(p, (), 0, 1))
    assert c.conclusion == parse_nested("p -> q^i, p^i, q^o")
    assert c.height() <= p.height()


def test_contract_through_or():
    goal = parse_nested("p | q^i, p | q^i, q | p^o")
    p = prove_bounded(goal, NOAX, 10)
    c = checked(contract_proof(p, (), 0, 1))
    assert c.conclusion == parse_nested("p | q^i, q | p^o")
    assert c.height() <= p.height()


def test_contract_weakened_copy_of_a_consumed_input():
    """One copy of each input is consumed by its rule and the other was
    added by weakening, so the two copies sit at different positions in
    the premise than in the conclusion."""
    ax = axiom_set([(1, 1)])
    for text in ("p & q^i, p^o", "p | q^i, p | q^o", "p -> q^i, p^i, q^o",
                 "<>p^i, <>p^o"):
        p = prove_bounded(parse_nested(text), ax, 8)
        f = p.conclusion.inputs[0]
        w = weaken_proof(p, (), nseq(inputs=(f,)))
        c = checked(contract_proof(w, (), 0, len(p.conclusion.inputs)), ax)
        assert c.conclusion == p.conclusion
        assert c.height() <= w.height()


def test_contract_rejects_unequal_inputs():
    goal = parse_nested("p^i, q^i, p^o")
    p = prove_bounded(goal, NOAX, 4)
    with pytest.raises(ValueError):
        contract_proof(p, (), 0, 1)


def test_merge_brackets():
    goal = parse_nested("[ p^i ], [ q^i ], <>p^o")
    p = prove_bounded(goal, NOAX, 8)
    m = checked(merge_proof(p, (), 0, 1))
    assert m.conclusion == parse_nested("[ p^i, q^i ], <>p^o")
    assert m.height() <= p.height()


def test_merge_rejects_output_bracket():
    goal = parse_nested("[ p^i, p^o ], [ q^i ]")
    p = prove_bounded(goal, NOAX, 8)
    assert p is not None
    with pytest.raises(ValueError):
        merge_proof(p, (), 0, 1)


def test_structural_random_round():
    """Weaken-then-contract and weaken-twice-then-merge leave provable
    sequents provable with the same conclusion and height."""
    rng = random.Random(11)
    ax = axiom_set([(1, 1)], d=True)
    goals = ["p -> p", "p & q -> q", "<>[]p -> []p", "[](p -> q) -> []p -> []q"]
    for text in goals:
        p = base_proof(text, ax)
        for _ in range(5):
            f = rng.choice([P, Q, parse_formula("<>p"), parse_formula("[]q")])
            w = weaken_proof(p, (), nseq(inputs=(f, f)))
            back = contract_proof(w, (),
                                  len(p.conclusion.inputs),
                                  len(p.conclusion.inputs) + 1)
            checked(back, ax)
            assert back.height() <= w.height() == p.height()

            d1 = nseq(inputs=(f,))
            w2 = weaken_proof(p, (), nseq(children=(d1, d1)))
            k = len(p.conclusion.children)
            merged = merge_proof(w2, (), k, k + 1)
            checked(merged, ax)
            assert merged.height() == p.height()
