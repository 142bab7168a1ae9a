import copy
import gc
import pickle
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imseq import formula
from imseq.formula import (And, Atom, AxiomSet, BENCHMARKS, BOT, Bot, Box,
                           Dia, Imp, Or, ParseError, axiom_set, hsl_formula,
                           parse_formula, render_formula, subformulas)

from oracles import modal_count, neg, rand_formula, ref_subformulas

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_parse_precedence():
    assert parse_formula("p & q | r -> s") == Imp(Or(And(P, Q), R), Atom("s"))
    assert parse_formula("p -> q -> r") == Imp(P, Imp(Q, R))
    assert parse_formula("p & q & r") == And(And(P, Q), R)
    assert parse_formula("p | q | r") == Or(Or(P, Q), R)
    assert parse_formula("<>p -> []q") == Imp(Dia(P), Box(Q))
    assert parse_formula("[](p -> q)") == Box(Imp(P, Q))
    assert parse_formula("<> [] p") == Dia(Box(P))


def test_parse_sugar():
    assert parse_formula("~p") == Imp(P, BOT)
    assert parse_formula("~<>false") == Imp(Dia(BOT), BOT)
    assert parse_formula("p <-> q") == And(Imp(P, Q), Imp(Q, P))
    assert parse_formula("false") == BOT
    assert neg(P) == Imp(P, BOT)


def test_parse_atom_names():
    assert parse_formula("abc_1") == Atom("abc_1")
    assert parse_formula("pQ2") == Atom("pQ2")


@pytest.mark.parametrize("bad", ["", "p &", "(p", "p q", "&p", "p -> ", "P"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


def test_render_minimal_parens():
    cases = [
        "p & q -> r",
        "(p -> q) & r",
        "p & (q | r)",
        "p | q & r",
        "<>(p | q) -> <>p | <>q",
        "[](p -> q) -> []p -> []q",
        "<>[]p",
        "p -> q -> r",
        "(p -> q) -> r",
        "p & (q & r)",
        "false",
    ]
    for s in cases:
        assert render_formula(parse_formula(s)) == s
    # redundant parens parse to the same tree and re-print without them
    assert parse_formula("[](p -> q) -> ([]p -> []q)") == \
        parse_formula("[](p -> q) -> []p -> []q")


def test_render_parse_round_trip():
    import random
    from oracles import rand_formula
    rng = random.Random(42)
    for _ in range(300):
        f = rand_formula(rng, 4)
        assert parse_formula(render_formula(f)) == f


def test_hsl_formula_shape():
    assert hsl_formula(0, 0, P) == parse_formula("([]p -> p) & (p -> <>p)")
    assert hsl_formula(1, 1, P) == parse_formula("(<>[]p -> []p) & (<>p -> []<>p)")
    assert hsl_formula(2, 1, P) == parse_formula(
        "(<><>[]p -> []p) & (<>p -> [][]<>p)")
    with pytest.raises(ValueError):
        hsl_formula(-1, 0, P)


def test_hsl_modal_count():
    for n, k, a in [(0, 0, P), (1, 1, P), (2, 1, Dia(P)), (0, 3, Box(Q)), (3, 2, P)]:
        assert modal_count(hsl_formula(n, k, a)) == 2 * (n + k + 1) + 4 * modal_count(a)


def test_benchmark_catalog():
    assert BENCHMARKS["A1"] == parse_formula("[](p -> q) -> ([]p -> []q)")
    assert BENCHMARKS["A3"] == parse_formula("<>false -> false")
    assert BENCHMARKS["D"] == Imp(Box(P), Dia(P))
    assert BENCHMARKS["T"] == hsl_formula(0, 0, P)
    assert BENCHMARKS["4"] == parse_formula("([]p -> [][]p) & (<><>p -> <>p)")
    assert BENCHMARKS["B"] == parse_formula("(<>[]p -> p) & (p -> []<>p)")
    assert BENCHMARKS["5"] == parse_formula("(<>[]p -> []p) & (<>p -> []<>p)")


def test_axiom_set():
    ax = axiom_set([(1, 2), (1, 2), (0, 0)], d=True)
    assert ax.has_d and ax.hsl == frozenset({(1, 2), (0, 0)})
    assert str(ax) == "{(0,0), (1,2), d}"
    with pytest.raises(ValueError):
        AxiomSet(hsl=frozenset({(-1, 2)}))


def test_formula_identity():
    assert Bot() == BOT
    assert And(P, Q) != And(Q, P)
    assert str(Imp(Dia(P), Box(Q))) == "<>p -> []q"


def test_formulas_are_interned():
    assert And(P, Q) is And(P, Q)
    assert Atom(name="p") is P and Bot() is BOT
    for text in ["[](p -> q) -> []p", "p <-> q", "p" + " " * formula.PARSE_MEMO_TEXT]:
        assert parse_formula(text) is parse_formula(text)
    assert parse_formula("p" + " " * formula.PARSE_MEMO_TEXT) is P
    f = parse_formula("<>(p | q) -> ~[]r")
    assert copy.deepcopy(f) is f and copy.copy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert pickle.loads(pickle.dumps(BOT)) is BOT


def test_formulas_are_immutable():
    with pytest.raises(AttributeError):
        P.name = "q"
    with pytest.raises(AttributeError):
        del P.name
    with pytest.raises(AttributeError):
        And(P, Q).left = Q
    assert P.name == "p"


def test_formula_repr_is_dataclass_style():
    assert repr(Atom("p")) == "Atom(name='p')"
    assert repr(Bot()) == "Bot()"
    assert repr(Imp(Dia(P), BOT)) == \
        "Imp(left=Dia(body=Atom(name='p')), right=Bot())"


def test_intern_table_shrinks_after_collection():
    gc.collect()
    before = len(formula._INTERNED)
    made = [And(Atom(f"fresh{i}"), P) for i in range(10_000)]
    assert len(formula._INTERNED) == before + 20_000
    del made
    gc.collect()
    assert len(formula._INTERNED) == before


def test_threads_share_one_node_per_formula():
    results = [None] * 4

    def build(slot):
        results[slot] = [And(Atom(f"t{i}"), Imp(P, Atom(f"t{i}")))
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


def test_equivalence_chain_hash_and_eq_take_constant_time():
    # A chain of n <-> shares each link twice, so a walk of its tree
    # takes 2^n steps; a 40-link chain must not be walked.
    def chain(bottom):
        f = bottom
        for _ in range(40):
            f = And(Imp(P, f), Imp(f, P))
        return f

    f, g, h = chain(Q), chain(Q), chain(R)
    t0 = time.perf_counter()
    assert hash(f) == hash(g) and f == g and f != h
    assert {f: 1}[g] == 1
    assert time.perf_counter() - t0 < 1.0


_formulas = st.recursive(
    st.sampled_from([P, Q, Atom("abc_1"), BOT]),
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Imp, sub, sub), st.builds(Dia, sub),
                          st.builds(Box, sub)),
    max_leaves=24)

_pieces = st.sampled_from(["p", "q", "false", "P", "&", "|", "~", "(", ")",
                           "->", "<->", "<>", "[]", "<", "-", "!", " "])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_formulas)
def test_parse_inverts_render(f):
    assert parse_formula(render_formula(f)) is f


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(_pieces, max_size=12).map("".join))
def test_parse_errors_repeat_and_are_not_memoized(text):
    try:
        first = parse_formula(text)
    except ParseError as e:
        with pytest.raises(ParseError) as again:
            parse_formula(text)
        assert again.value is not e
        assert (str(again.value), again.value.pos) == (str(e), e.pos)
    else:
        assert parse_formula(text) is first


def _iff_chain(atoms):
    """a0 <-> (a1 <-> (... <-> an)), built through the API: each link
    holds the rest of the chain twice, so the tree doubles per link."""
    f = atoms[-1]
    for a in reversed(atoms[:-1]):
        f = And(Imp(a, f), Imp(f, a))
    return f


def test_subformulas_matches_a_recursive_oracle():
    """subformulas lists the oracle's set, each formula once and after
    its immediate subformulas, on seeded random root lists and on <->
    chains that share their sides, alone and under shared roots."""
    rng = random.Random(2511)
    cases = [[rand_formula(rng, rng.randrange(7)) for _ in range(rng.randrange(1, 5))]
             for _ in range(400)]
    for n in (2, 5, 40):
        chain = _iff_chain([Atom(f"a{i}") for i in range(n)])
        cases += [[chain], [chain, chain.left, Box(chain), chain], [Dia(P), chain, P]]
    cases.append([parse_formula("p <-> q <-> r <-> (p & q) <-> ~r")])
    for roots in cases:
        order = subformulas(roots)
        assert len(order) == len(set(order))
        assert set(order) == ref_subformulas(roots)
        rank = {f: i for i, f in enumerate(order)}
        for f in order:
            if isinstance(f, (Dia, Box)):
                assert rank[f.body] < rank[f]
            elif isinstance(f, (And, Or, Imp)):
                assert rank[f.left] < rank[f] and rank[f.right] < rank[f]
    assert subformulas([]) == []
