"""The four structural steps must re-check and never grow proofs."""

import hashlib
import random

import pytest

from imseq.formula import (And, Atom, Dia, Imp, Or, axiom_set, parse_formula,
                           render_formula)
from imseq.gen import random_formula, random_full_nested
from imseq.nested import (NestedProof, NestedSequent, all_paths, check_nested,
                          map_node, node_at, nseq, parse_nested, path_id,
                          prove_bounded, prove_formula, read_nested,
                          render_nested)
from imseq.proofio import dump_proof
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


def test_inversions_refuse_bad_positions_and_sides():
    """An index outside 0..len(inputs)-1, or not an int, and a side other
    than left and right are ValueErrors, not a silent inversion of
    another input or an IndexError."""
    p = prove_bounded(parse_nested("q^i, p & q^i, p^o"), NOAX, 6)
    assert invert_and_input(p, (), 1).conclusion == parse_nested("q^i, p^i, q^i, p^o")
    for idx in (-1, 2, 7, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="no input"):
            invert_and_input(p, (), idx)
    with pytest.raises(ValueError, match="does not hold a conjunction"):
        invert_and_input(p, (), 0)

    p = prove_bounded(parse_nested("p | q^i, p | q^o"), NOAX, 8)
    for side in ("middle", "Left", None, 1):
        with pytest.raises(ValueError, match="side must be"):
            invert_or_input(p, (), 0, side)
    for invert in (invert_imp_input, invert_dia_input):
        with pytest.raises(ValueError, match="no input"):
            invert(p, (), -1)
        with pytest.raises(ValueError, match="does not hold"):
            invert(p, (), 0)


def test_every_entry_point_takes_list_addresses():
    """An address given as a list acts as the tuple of its items; one
    that is no sequence of ints is a ValueError."""
    p = prove_bounded(parse_nested("p & q^i, p^o"), NOAX, 6)
    assert (checked(invert_and_input(p, [], 0)).conclusion
            == invert_and_input(p, (), 0).conclusion
            == parse_nested("p^i, q^i, p^o"))
    p = prove_bounded(parse_nested("[ p | q^i, q -> p^i, <>p^i ], [ ], <>p^o"),
                      NOAX, 10)
    assert p is not None
    for invert, idx, extra in ((invert_or_input, 0, ("right",)),
                               (invert_imp_input, 1, ()),
                               (invert_dia_input, 2, ())):
        got = checked(invert(p, [0], idx, *extra))
        assert dump_proof(got) == dump_proof(invert(p, (0,), idx, *extra))
    p = prove_bounded(parse_nested("[ p & q^i, p & q^i, [ ], [ ] ], <>p^o"),
                      axiom_set([(1, 1)]), 10)
    assert p is not None
    assert (dump_proof(checked(contract_proof(p, [0], 0, 1)))
            == dump_proof(contract_proof(p, (0,), 0, 1)))
    assert (dump_proof(checked(merge_proof(p, [0], 0, 1)))
            == dump_proof(merge_proof(p, (0,), 0, 1)))
    assert (dump_proof(checked(weaken_proof(p, [0, 1], parse_nested("q^i"))))
            == dump_proof(weaken_proof(p, (0, 1), parse_nested("q^i"))))

    calls = [lambda at: invert_and_input(p, at, 0),
             lambda at: invert_or_input(p, at, 0, "left"),
             lambda at: invert_imp_input(p, at, 0),
             lambda at: invert_dia_input(p, at, 0),
             lambda at: contract_proof(p, at, 0, 1),
             lambda at: merge_proof(p, at, 0, 1),
             lambda at: weaken_proof(p, at, parse_nested("q^i"))]
    for call in calls:
        for at in ("0", b"\x00", 0, None, [0.0], (True,), ["0"], {0}, iter([0])):
            with pytest.raises(ValueError, match="bad node address"):
                call(at)


@pytest.mark.parametrize("text", [
    "[ q^i ], [ p^i ], <>p^o",
    "[ q^i ], [ r^i, [ p^i ] ], <><>p^o",
    "[ q^i ], [ r^i ], [ p^i ], <>p^o",
    "[ q^i ], [ p & r^i ], <>p^o",
    "[ q^i, [ s^i ] ], [ r^i, [ p^i ] ], <><>p^o",
])
def test_merge_remaps_addresses_in_and_past_the_second_bracket(text):
    """Merging brackets 0 and 1 moves addresses inside bracket 1 into
    bracket 0, past its own children, and shifts later brackets down
    one; a principal input of bracket 1 moves past bracket 0's inputs."""
    p = prove_bounded(parse_nested(text), NOAX, 6)
    assert p is not None
    m = checked(merge_proof(p, (), 0, 1))
    assert m.height() <= p.height()


def test_contract_and_merge_refuse_indices_that_are_not_ints():
    """An index that is not an int, a bool among them, is a ValueError,
    not a TypeError."""
    p = prove_bounded(parse_nested("[ p & q^i, p & q^i, [ ], [ ] ], <>p^o"),
                      axiom_set([(1, 1)]), 10)
    for step in (contract_proof, merge_proof):
        for i, j in ((0, 1.0), (0.0, 1), (False, 1), (0, True), ("0", 1), (0, None)):
            with pytest.raises(ValueError, match="must be an int"):
                step(p, (0,), i, j)
        with pytest.raises(ValueError, match="i < j"):
            step(p, (0,), 1, 0)
    assert contract_proof(p, (0,), 0, 1).conclusion == parse_nested(
        "[ p & q^i, [ ], [ ] ], <>p^o")


def test_invert_an_output_free_proof():
    """A proof whose conclusion has no output still inverts: its rule
    instances have none to prune."""
    p = checked(NestedProof(parse_nested("false^i, p -> q^i, [ <>p^i ]"), "botI",
                            {"at": "r", "index": 0}, ()))
    assert (invert_imp_input(p, (), 1).conclusion
            == parse_nested("false^i, q^i, [ <>p^i ]"))
    assert (checked(invert_dia_input(p, (0,), 0)).conclusion
            == parse_nested("false^i, p -> q^i, [ [ p^i ] ]"))


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


STRUCTURAL_DIGEST = "3c511dd3bff1935159013327187d26f421a013fbd98acbdf0432b66acd334b70"
INVERSIONS = {And: invert_and_input, Imp: invert_imp_input,
              Dia: invert_dia_input}
COPY_CLASSES = (And, Or, Imp, Dia)


def _without_output(s):
    return NestedSequent(s.inputs, None, tuple(map(_without_output, s.children)))


def _duplicate_goal(rng, cls):
    """A full sequent with two copies of an input of connective cls at a
    random node, and that node's address and the input.  Half the time
    the output moves to that node and asks for what a copy gives, so
    that proofs often consume a copy."""
    base = random_full_nested(rng, depth=1, width=2, fdepth=1)
    at = rng.choice(all_paths(base))
    f = (Dia(random_formula(rng, 1)) if cls is Dia
         else cls(random_formula(rng, 1), random_formula(rng, 1)))

    def add(nd):
        ins = list(nd.inputs)
        for _ in range(2):
            ins.insert(rng.randrange(len(ins) + 1), f)
        return NestedSequent(tuple(ins), nd.output, nd.children)

    goal = map_node(base, at, add)
    if rng.random() < 0.5:
        out = (f if cls is Dia else f.left if cls is And
               else Or(f.right, f.left) if cls is Or else f.right)
        extra = (f.left,) if cls is Imp else ()
        goal = map_node(_without_output(goal), at, lambda nd: NestedSequent(
            nd.inputs + extra, out, nd.children))
    return goal, at, f


def _consumes(p, at, f) -> bool:
    """Whether some instance of p applies its input rule to f at at."""
    for q in p.nodes():
        if q.rule in ("andI", "orI", "impI", "diaI"):
            prin, _, g, _ = read_nested(q.conclusion, q.rule, q.params)
            if prin == at and g == f:
                return True
    return False


def test_structural_outputs_match_frozen_digest():
    """contract_proof on the two copies, and every inversion of every
    conjunctive, disjunctive (both sides), implicative and diamond input
    of the conclusion, write the same proof files on 300 seeded goals
    with a duplicated input, proved at depth 5 under {} and {(1,1), d}."""
    rng = random.Random(1414)
    axes = (NOAX, axiom_set([(1, 1)], d=True))
    h = hashlib.sha256()
    consumed = dict.fromkeys(COPY_CLASSES, 0)
    for k in range(300):
        cls = COPY_CLASSES[k % 4]
        goal, at, f = _duplicate_goal(rng, cls)
        i, j = [x for x, g in enumerate(node_at(goal, at).inputs) if g == f][:2]
        for ax in axes:
            p = prove_bounded(goal, ax, 5)
            if p is None:
                continue
            consumed[cls] += _consumes(p, at, f)
            h.update(f"{ax} {render_nested(goal)}\n".encode())
            h.update(dump_proof(checked(contract_proof(p, at, i, j), ax)).encode())
            for path in all_paths(p.conclusion):
                for idx, g in enumerate(node_at(p.conclusion, path).inputs):
                    if isinstance(g, Or):
                        outs = [invert_or_input(p, path, idx, side)
                                for side in ("left", "right")]
                    elif type(g) in INVERSIONS:
                        outs = [INVERSIONS[type(g)](p, path, idx)]
                    else:
                        continue
                    for out in outs:
                        h.update(f"{path_id(path)} {idx} {render_formula(g)}\n".encode())
                        h.update(dump_proof(checked(out, ax)).encode())
    assert all(n >= 10 for n in consumed.values()), consumed
    assert h.hexdigest() == STRUCTURAL_DIGEST
