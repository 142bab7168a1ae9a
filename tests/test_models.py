import random
import time
from itertools import count

import pytest

from imseq.formula import axiom_set, parse_formula
from imseq.labelled import parse_labelled_sequent
from imseq.models import (Model, check_frame_conditions, check_model,
                          eval_formula, globally_true, model_of, random_model,
                          sat_sequent)
from oracles import (eval_naive, rand_formula, ref_check_frame_conditions,
                     ref_check_model, ref_random_model)


def test_check_model_trivial():
    m = model_of(["w"])
    assert check_model(m) == []


def test_check_model_monotonicity_violation():
    m = model_of(["w", "u"], leq=[("w", "u")], val=[("w", "p")])
    viols = check_model(m)
    assert any(v.condition == "monotonicity" and v.witness == ("w", "u", "p")
               for v in viols)


def test_check_model_f2_violation():
    m = model_of(["w", "w2", "v"], leq=[("w", "w2")], acc=[("w", "v")])
    conds = {v.condition for v in check_model(m)}
    assert "F2" in conds


def test_check_model_f1_violation():
    # vRv' fails upward: wRv, v <= v2, but no w' >= w reaching v2
    m = model_of(["w", "v", "v2"], leq=[("v", "v2")], acc=[("w", "v")])
    conds = {v.condition for v in check_model(m)}
    assert "F1" in conds


def test_check_model_preorder():
    worlds = ["a", "b", "c"]
    broken = Model(frozenset(worlds),
                   frozenset([("a", "b"), ("b", "c"), ("a", "a"), ("b", "b"), ("c", "c")]),
                   frozenset(), frozenset())
    assert any(v.condition == "leq-transitive" for v in check_model(broken))
    no_refl = Model(frozenset(worlds), frozenset([("a", "a")]), frozenset(), frozenset())
    assert any(v.condition == "leq-reflexive" for v in check_model(no_refl))
    stray = model_of(["a"], acc=[("a", "zz")])
    assert any(v.condition == "domain-acc" for v in check_model(stray))


def test_frame_conditions():
    one = model_of(["w"])
    assert any(v.condition == "seriality"
               for v in check_frame_conditions(one, axiom_set(d=True)))
    refl = model_of(["w", "u"], acc=[("w", "w"), ("u", "u")])
    assert check_frame_conditions(refl, axiom_set([(0, 0)])) == []
    fork = model_of(["w", "u", "v"], acc=[("w", "u"), ("w", "v")])
    viols = check_frame_conditions(fork, axiom_set([(1, 1)]))
    assert any(v.witness == ("w", "u", "v") for v in viols)


def test_frame_degenerate_readings():
    # n = 0: wR^k v implies wRv; k = 0: wR^n u implies uRw
    chain = model_of(["a", "b", "c"], acc=[("a", "b"), ("b", "c")])
    v02 = check_frame_conditions(chain, axiom_set([(0, 2)]))
    assert any(v.witness == ("a", "a", "c") for v in v02)
    v10 = check_frame_conditions(chain, axiom_set([(1, 0)]))
    assert any(v.witness == ("a", "b", "a") for v in v10)


def test_eval_clauses():
    m = model_of(["w"])
    assert eval_formula(m, "w", parse_formula("[]p"))
    assert not eval_formula(m, "w", parse_formula("<>p"))
    assert eval_formula(m, "w", parse_formula("p -> q"))
    two = model_of(["w", "v"], acc=[("w", "v")], val=[("v", "p")])
    assert eval_formula(two, "w", parse_formula("<>p"))
    assert not eval_formula(two, "w", parse_formula("p"))
    with pytest.raises(ValueError):
        eval_formula(two, "zz", parse_formula("p"))


def test_eval_box_quantifies_leq():
    # w <= u and uRv with p false at v refutes []p at w
    m = model_of(["w", "u", "v"], leq=[("w", "u")], acc=[("u", "v")])
    assert not eval_formula(m, "w", parse_formula("[]p"))


def test_eval_agrees_with_naive():
    rng = random.Random(5)
    for seed in range(80):
        m = random_model(axiom_set(), 4, seed)
        f = rand_formula(rng, 3)
        for w in sorted(m.worlds):
            assert eval_formula(m, w, f) == eval_naive(m, w, f)


def test_random_model_well_formed():
    for ax in (axiom_set(), axiom_set([(0, 0)]), axiom_set([(1, 1), (2, 1)]),
               axiom_set([(0, 2)], d=True), axiom_set([(2, 2)]),
               axiom_set([(1, 0)], d=True)):
        for seed in range(12):
            m = random_model(ax, 5, seed)
            assert check_model(m) == [], (ax, seed)
            assert check_frame_conditions(m, ax) == [], (ax, seed)


def test_random_model_examples():
    m = random_model(axiom_set(), 1, 3)
    assert len(m.worlds) == 1 and check_model(m) == []
    refl = random_model(axiom_set([(0, 0)]), 4, 9)
    assert all((w, w) in refl.acc for w in refl.worlds)
    serial = random_model(axiom_set(d=True), 4, 9)
    assert all(any(a == w for a, _ in serial.acc) for w in serial.worlds)
    same = random_model(axiom_set([(1, 1)]), 5, 77)
    assert same == random_model(axiom_set([(1, 1)]), 5, 77)
    with pytest.raises(ValueError):
        random_model(axiom_set(), 0, 1)


def test_truth_monotone_along_leq():
    rng = random.Random(13)
    for seed in range(40):
        m = random_model(axiom_set([(1, 1)]) if seed % 2 else axiom_set(), 4, seed)
        f = rand_formula(rng, 3)
        for w, u in sorted(m.leq):
            if eval_formula(m, w, f):
                assert eval_formula(m, u, f), (seed, f, w, u)


def test_globally_true():
    m = model_of(["a", "b"], val=[("a", "p"), ("b", "p")])
    assert globally_true(m, parse_formula("p"))
    assert not globally_true(m, parse_formula("q"))


def test_sat_sequent():
    m = model_of(["w"], val=[("w", "p")])
    seq = parse_labelled_sequent("; |- w: p")
    assert sat_sequent(m, {"w": "w"}, seq)
    bot = parse_labelled_sequent("; w: false |- u: q")
    assert sat_sequent(m, {"w": "w", "u": "w"}, bot)
    with pytest.raises(ValueError):
        sat_sequent(m, {}, seq)
    with pytest.raises(ValueError):
        sat_sequent(m, {"w": "nope"}, seq)


def test_sat_sequent_relational():
    m = model_of(["w", "v"], acc=[("w", "v")])
    seq = parse_labelled_sequent("w R u ; |- w: <>p")
    # u interpreted outside acc: antecedent fails, sequent holds
    assert sat_sequent(m, {"w": "w", "u": "w"}, seq)
    # u at the successor: <>p must hold at w, but p is false everywhere
    assert not sat_sequent(m, {"w": "w", "u": "v"}, seq)


# The differential of random_model and the structure checks against the
# whole-relation scans they replaced, in tests/oracles.py.
DIFF_AXIOM_SETS = (axiom_set(), axiom_set(d=True), axiom_set([(0, 0)]),
                   axiom_set([(0, 2)]), axiom_set([(1, 0)]), axiom_set([(2, 2)]),
                   axiom_set([(1, 1)], d=True), axiom_set([(1, 1), (2, 1)]),
                   axiom_set([(0, 2), (1, 0)], d=True))
DIFF_SEEDS = 300
WIDE_SEEDS = 16


def _mutated(m: Model, rng: random.Random) -> Model:
    """m with one to three leq, acc or val pairs toggled; now and then a
    pair names the world zz, which is outside the model."""
    worlds = sorted(m.worlds)
    leq, acc, val = set(m.leq), set(m.acc), set(m.val)

    def world():
        return "zz" if rng.random() < 0.05 else rng.choice(worlds)

    for _ in range(rng.randint(1, 3)):
        rel = rng.choice((leq, acc, val))
        rel ^= {(world(), rng.choice("pqr") if rel is val else world())}
    return Model(m.worlds, frozenset(leq), frozenset(acc), frozenset(val))


def _wide_seeds() -> list:
    """The first WIDE_SEEDS seeds whose random_model(ax, 12, seed) has 11
    or 12 worlds, named so that m10 and m11 sort between m1 and m2: a
    row index taken in creation order would misplace them.  The number
    of worlds does not depend on ax."""
    seeds = []
    for seed in count():
        if len(random_model(axiom_set(), 12, seed).worlds) > 10:
            seeds.append(seed)
            if len(seeds) == WIDE_SEEDS:
                return seeds


def _rebuilt(m: Model) -> Model:
    """m built again from its four sets, without the rows random_model
    left on it, so that its first check builds its own."""
    return Model(m.worlds, m.leq, m.acc, m.val)


def _random_models_match(max_worlds: int, seeds) -> None:
    for ax in DIFF_AXIOM_SETS:
        for seed in seeds:
            m = random_model(ax, max_worlds, seed)
            assert m == ref_random_model(ax, max_worlds, seed), (ax, max_worlds, seed)
            # the rows random_model hands over are those a check would build
            assert m._rows == _rebuilt(m)._rows, (ax, max_worlds, seed)


def _structure_checks_match(max_worlds: int, seeds, rng: random.Random) -> tuple:
    """Each model and a mutant of it, under the model's own axiom set and
    the next one, so every axiom set checks models made for another.
    Each model is checked on the rows random_model left on it and,
    rebuilt, on rows of its own.  Returns the kinds of violation seen,
    and whether a frame check walked through the stray world zz."""
    kinds, stray = set(), False
    for i, ax in enumerate(DIFF_AXIOM_SETS):
        other = DIFF_AXIOM_SETS[(i + 1) % len(DIFF_AXIOM_SETS)]
        for seed in seeds:
            m = random_model(ax, max_worlds, seed)
            for same in ((m, _rebuilt(m)), (_mutated(m, rng),)):
                ref = ref_check_model(same[0])
                frames = [(a, ref_check_frame_conditions(same[0], a)) for a in (ax, other)]
                for x in same:
                    assert check_model(x) == ref, (ax, seed, x)
                    for a, frame in frames:
                        assert check_frame_conditions(x, a) == frame, (a, seed, x)
                for v in ref + frames[0][1] + frames[1][1]:
                    kinds.add(v.condition.split("(")[0])
                    stray |= v.condition.startswith("hsl") and "zz" in v.witness
    return kinds, stray


ALL_KINDS = {"domain-leq", "domain-acc", "domain-val", "leq-reflexive",
             "leq-transitive", "F1", "F2", "monotonicity", "seriality", "hsl"}


def test_random_model_matches_the_reference():
    _random_models_match(5, range(DIFF_SEEDS))


def test_random_model_past_ten_worlds_matches_the_reference():
    _random_models_match(12, _wide_seeds())


def test_structure_checks_match_the_reference():
    assert _structure_checks_match(5, range(DIFF_SEEDS), random.Random(18)) == (ALL_KINDS, True)


def test_structure_checks_past_ten_worlds_match_the_reference():
    assert _structure_checks_match(12, _wide_seeds(), random.Random(19)) == (ALL_KINDS, True)
    # names outside the worlds that sort before, between and after them:
    # the frame checks walk through them in sorted name order
    m = model_of(["b", "d"], acc=[("b", "a"), ("b", "d"), ("a", "c"), ("a", "e"),
                                  ("c", "d"), ("d", "b"), ("e", "b")])
    for ax in (axiom_set([(1, 0)]), axiom_set([(2, 1)]), axiom_set([(3, 0)], d=True),
               axiom_set([(2, 2)])):
        assert check_frame_conditions(m, ax) == ref_check_frame_conditions(m, ax) != [], ax
    assert check_model(m) == ref_check_model(m) != []


def test_structure_checks_on_a_large_model_are_fast():
    # an 80-world total preorder, two worlds to a rank, with acc = leq:
    # well formed, reflexive and transitive, but not euclidean
    worlds = [f"w{i:02d}" for i in range(80)]
    rank = {w: i // 2 for i, w in enumerate(worlds)}
    leq = [(a, b) for a in worlds for b in worlds if rank[a] <= rank[b]]
    m = model_of(worlds, leq=leq, acc=leq, val=[(w, "p") for w in worlds[40:]])
    t0 = time.perf_counter()
    assert check_model(m) == []
    viols = check_frame_conditions(m, axiom_set([(0, 0), (0, 2), (1, 1)], d=True))
    assert time.perf_counter() - t0 < 5
    # hsl(1,1): wRu and wRv need uRv, which fails exactly when v ranks below u
    assert len(viols) == sum(rank[w] <= rank[v] < rank[u]
                             for w in worlds for u in worlds for v in worlds)
    assert {v.condition for v in viols} == {"hsl(1,1)"}
