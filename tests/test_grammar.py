import hashlib
import itertools
import random

import pytest

import imseq.grammar
from imseq.formula import axiom_set
from imseq.grammar import (Grammar, Production, PropGraph, PropPath, Sym,
                           _Saturator, derives, grammar_from_axioms,
                           MAX_REACH_NODES, graph_from_pairs, reach_all, reachable,
                           syms)
from imseq.nested import nseq, prop_graph_nested
from oracles import (closure_strings, converse_path, converse_string, one_step,
                     oracle_derives, oracle_reachable, path_in_graph)

D, B = Sym.FWD, Sym.BWD


def g_of(*pairs):
    return grammar_from_axioms(axiom_set(pairs))


def test_grammar_from_axioms():
    g = g_of((2, 1))
    assert g.productions == frozenset({
        Production(D, (B, B, D)),
        Production(B, (B, D, D)),
    })
    assert g_of((1, 1)).productions == frozenset({
        Production(D, (B, D)),
        Production(B, (B, D)),
    })
    assert g_of((0, 0)).productions == frozenset({
        Production(D, ()),
        Production(B, ()),
    })
    assert g_of((1, 0)).productions == frozenset({
        Production(D, (B,)),
        Production(B, (D,)),
    })
    assert grammar_from_axioms(axiom_set(d=True)).productions == frozenset()


def test_one_step():
    g = g_of((2, 1))
    assert one_step(g, (D,)) == {(B, B, D)}
    assert one_step(g, (B,)) == {(B, D, D)}
    assert one_step(g, syms("bd")) == {syms("bddd"), syms("bbbd")}
    assert one_step(Grammar(frozenset()), (D,)) == set()


def test_derives_basics():
    g = g_of((2, 1))
    assert derives(g, D, "d")
    assert derives(g, D, "bbd")
    assert derives(g, D, syms("bbd"))
    assert not derives(g, D, "b")
    assert not derives(g, D, "")
    assert not derives(g, D, "db")
    assert derives(g, B, "bdd")


def test_derives_empty_and_units():
    g = g_of((0, 0))
    assert derives(g, D, "")
    assert derives(g, B, "")
    assert derives(g, D, "d")
    # one-letter left-hand sides rewrite anywhere inside a string
    g10 = g_of((1, 0))
    assert derives(g10, D, "b")
    assert derives(g10, B, "d")
    assert derives(g10, D, "d")
    assert not derives(g10, D, "bd")


def test_derives_nested():
    g = g_of((1, 1))
    assert derives(g, D, "bd")
    assert derives(g, D, "bdd")
    assert derives(g, D, "bdbd")
    assert not derives(g, D, "bb")
    assert not derives(g, D, "dbd")


def test_derives_generic_grammar():
    # not an axiom-induced grammar; the engine accepts any productions
    g = Grammar(frozenset({Production(D, (D, B))}))
    assert derives(g, D, "db")
    assert derives(g, D, "dbb")
    assert not derives(g, D, "bd")


def test_derives_against_closure_oracle():
    rng = random.Random(7)
    for _ in range(150):
        pairs = [(rng.randint(0, 2), rng.randint(0, 2))
                 for _ in range(rng.randint(1, 2))]
        g = grammar_from_axioms(axiom_set(pairs))
        s = "".join(rng.choice("db") for _ in range(rng.randint(0, 5)))
        got = derives(g, D, s)
        if oracle_derives(g, D, s):
            assert got, (pairs, s)
        if (0, 0) not in pairs:
            # no erasing productions: the bounded closure is exact
            assert got == (s in closure_strings(g, D, max(len(s), 1))), (pairs, s)


# axiom sets without erasing productions: closure_strings is exact for them
NON_ERASING = [[(1, 1)], [(2, 0)], [(0, 2)], [(1, 1), (2, 1)], [(1, 2)]]


def test_derives_exhaustive_short_strings():
    for pairs in NON_ERASING:
        g = grammar_from_axioms(axiom_set(pairs))
        for start in (D, B):
            lang = closure_strings(g, start, 7)
            for n in range(8):
                for letters in itertools.product("db", repeat=n):
                    s = "".join(letters)
                    assert derives(g, start, s) == (s in lang), (pairs, start, s)


def test_derives_accepts_long_rewrites():
    rng = random.Random(2024)
    for pairs in NON_ERASING:
        g = grammar_from_axioms(axiom_set(pairs))
        prods = g.sorted_productions()
        length = rng.randint(40, 120)
        s = (D,)
        while len(s) < length:
            p = rng.choice(prods)
            spots = [i for i, c in enumerate(s) if c == p.lhs]
            if spots:
                i = rng.choice(spots)
                s = s[:i] + p.rhs + s[i + 1:]
        assert derives(g, D, s), (pairs, "".join(c.value for c in s))


def test_reachable_long_witness():
    # the line graph of the string: its only walk from 0 to 501 spells it
    text = "b" * 500 + "d"
    line = PropGraph(frozenset(range(502)),
                     frozenset((i, c, i + 1) for i, c in enumerate(syms(text))))
    p = reachable(line, g_of((1, 1)), 0, 501)
    assert p is not None
    assert len(p.steps) == 501 and p.string == text
    assert p.nodes == tuple(range(502))


def test_prop_path():
    p = PropPath(("w", "u", "v", "u"), syms("bbd"))
    assert p.start == "w" and p.end == "u"
    assert p.string == "bbd"
    assert p.to_list() == ["w", "b", "u", "b", "v", "d", "u"]
    assert PropPath.from_list(["w", "b", "u", "b", "v", "d", "u"]) == p
    q = converse_path(p)
    assert q.nodes == ("u", "v", "u", "w") and q.string == "bdd"
    assert converse_string(syms("bbd")) == syms("bdd")
    single = PropPath(("w",), ())
    assert single.string == "" and single.start == single.end == "w"
    with pytest.raises(ValueError):
        PropPath(("w", "u"), ())
    with pytest.raises(ValueError):
        PropPath.from_list(["w", "b"])


def test_graph_from_pairs():
    pg = graph_from_pairs([("v", "u"), ("u", "w")])
    assert pg.nodes == frozenset({"v", "u", "w"})
    assert pg.edges == frozenset({
        ("v", D, "u"), ("u", B, "v"), ("u", D, "w"), ("w", B, "u"),
    })
    assert path_in_graph(pg, PropPath(("w", "u", "v", "u"), syms("bbd")))
    assert not path_in_graph(pg, PropPath(("w", "v"), (D,)))
    assert path_in_graph(pg, PropPath(("v",), ()))
    assert not path_in_graph(pg, PropPath(("z",), ()))


def test_reachable_worked_example():
    pg = graph_from_pairs([("v", "u"), ("u", "w")])
    g = g_of((2, 1))
    p = reachable(pg, g, "w", "u")
    assert p is not None
    assert p.start == "w" and p.end == "u"
    assert path_in_graph(pg, p)
    assert derives(g, D, p.steps)
    assert p.string == "bbd"
    assert p.nodes == ("w", "u", "v", "u")


def test_reachable_none_and_errors():
    pg = graph_from_pairs([("v", "u")])
    g = g_of((2, 1))
    assert reachable(pg, g, "u", "v") is None
    direct = reachable(pg, g, "v", "u")
    assert direct is not None and direct.string == "d"
    with pytest.raises(ValueError):
        reachable(pg, g, "z", "u")
    with pytest.raises(ValueError):
        reachable(pg, g, "v", "z")


def test_witness_saturation_stops_past_its_fact_limit(monkeypatch):
    """reachable's witness step and reach_all refuse a graph whose
    saturation records more than MAX_SATURATION_FACTS facts, with
    ValueError; the fact limit does not bound reachable's bitmask
    decision, so a pair with no walk still answers None; derives is not
    limited."""
    G = imseq.grammar
    g = g_of((1, 1))
    chain = graph_from_pairs([(f"w{i}", f"w{i + 1}") for i in range(12)])
    facts = len(G._Saturator(chain, g).why)
    walk, walks = reachable(chain, g, "w1", "w12"), reach_all(chain, g)
    monkeypatch.setattr(G, "MAX_SATURATION_FACTS", facts)
    assert reachable(chain, g, "w1", "w12") == walk is not None
    assert reach_all(chain, g) == walks
    monkeypatch.setattr(G, "MAX_SATURATION_FACTS", facts - 1)
    with pytest.raises(ValueError, match=f"saturation passed {facts - 1} facts"):
        reachable(chain, g, "w1", "w12")
    with pytest.raises(ValueError, match="graph of 13 nodes too large"):
        reach_all(chain, g)
    assert reachable(chain, g, "w0", "w12") is None
    assert G._derives(g, D, syms("b" + "d" * 40))


def test_reachability_refuses_graphs_past_the_node_limit():
    """reachable and reach_all refuse a graph of more than MAX_REACH_NODES
    nodes before any work, and answer one of exactly that many."""
    g = g_of((1, 1))
    at_limit = graph_from_pairs([("w0", "w1")], extra_nodes=[
        f"w{i}" for i in range(MAX_REACH_NODES)])
    assert reachable(at_limit, g, "w0", "w1").string == "d"
    assert reach_all(at_limit, g) == reach_all(graph_from_pairs([("w0", "w1")]), g)
    past = graph_from_pairs([("w0", "w1")], extra_nodes=[
        f"w{i}" for i in range(MAX_REACH_NODES + 1)])
    too_large = f"graph of {MAX_REACH_NODES + 1} nodes too large"
    with pytest.raises(ValueError, match=too_large):
        reachable(past, g, "w0", "w1")
    with pytest.raises(ValueError, match=too_large):
        reach_all(past, g)


def test_reachable_empty_path():
    pg = graph_from_pairs([], extra_nodes=["w"])
    assert reachable(pg, g_of((0, 0)), "w", "w").string == ""
    assert reachable(pg, g_of((1, 1)), "w", "w") is None


def test_reachable_deterministic():
    pg = graph_from_pairs([("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")])
    g = g_of((1, 1), (0, 2))
    first = {pair: p.to_list() for pair, p in reach_all(pg, g).items()}
    for _ in range(3):
        again = {pair: p.to_list() for pair, p in reach_all(pg, g).items()}
        assert again == first


def test_reach_all_agrees_with_reachable():
    pg = graph_from_pairs([("a", "b"), ("c", "b")])
    g = g_of((1, 1))
    table = reach_all(pg, g)
    for x in sorted(pg.nodes):
        for y in sorted(pg.nodes):
            p = reachable(pg, g, x, y)
            assert ((x, y) in table) == (p is not None)
            if p is not None:
                q = table[(x, y)]
                assert path_in_graph(pg, q) and derives(g, D, q.steps)
                assert q.start == x and q.end == y


def test_reachable_against_oracle_small():
    rng = random.Random(11)
    for _ in range(60):
        nodes = [f"n{i}" for i in range(rng.randint(1, 4))]
        rel = set()
        for _ in range(rng.randint(0, 5)):
            rel.add((rng.choice(nodes), rng.choice(nodes)))
        pg = graph_from_pairs(rel, extra_nodes=nodes)
        pairs = [(rng.randint(0, 2), rng.randint(0, 2))
                 for _ in range(rng.randint(0, 2))]
        g = grammar_from_axioms(axiom_set(pairs))
        x, y = rng.choice(nodes), rng.choice(nodes)
        got = reachable(pg, g, x, y)
        want = oracle_reachable(pg, g, x, y)
        if want:
            assert got is not None, (rel, pairs, x, y)
        if got is not None:
            assert path_in_graph(pg, got) and derives(g, D, got.steps)


def test_reachable_answers_as_the_saturator():
    """reachable decides each pair by the bitmask closure before it
    saturates; its answers and witnesses are still the saturator's, also
    on graphs whose edges come without their converse."""
    rng = random.Random(16021)
    grammars = [Grammar(frozenset())] + [g_of(*pairs) for pairs in REACH_GRAMMARS]
    walks = 0
    for k in range(120):
        nodes = [f"n{i}" for i in range(rng.randint(1, 7))]
        if k % 2:
            edges = {(rng.choice(nodes), rng.choice((D, B)), rng.choice(nodes))
                     for _ in range(rng.randint(0, 9))}
            pg = PropGraph(frozenset(nodes), frozenset(edges))
        else:
            rel = {(rng.choice(nodes), rng.choice(nodes))
                   for _ in range(rng.randint(0, 7))}
            pg = graph_from_pairs(rel, extra_nodes=nodes)
        g = grammars[k % len(grammars)]
        sat = _Saturator(pg, g)
        for x in nodes:
            for y in nodes:
                fact = sat.full(D, x, y)
                want = None if fact is None else sat.path_of(fact).to_list()
                got = reachable(pg, g, x, y)
                assert (None if got is None else got.to_list()) == want, (k, x, y)
                walks += want is not None
    assert 400 < walks < 600


REACH_GRAMMARS = ({(1, 1)}, {(2, 0)}, {(0, 2)}, {(1, 1), (2, 1)}, {(0, 0)})


def _random_tree(rng, depth):
    return nseq((), None, tuple(_random_tree(rng, depth - 1)
                                for _ in range(rng.randrange(3) if depth else 0)))


def _digest_graphs(rng):
    for k in range(25):
        tree = _random_tree(rng, 2)
        if k % 5 == 0:  # a wide root, so that 'r.10' sorts before 'r.2'
            tree = nseq((), None, tuple(_random_tree(rng, 1) for _ in range(11)))
        yield prop_graph_nested(tree)
        names = [f"n{i}" for i in range(rng.randint(1, 12))]
        rel = {(rng.choice(names), rng.choice(names))
               for _ in range(rng.randint(0, len(names) + 2))}
        yield graph_from_pairs(rel, extra_nodes=names)


def test_reach_witnesses_match_frozen_digest():
    """reach_all and reachable witnesses, and reach_all's order, are frozen."""
    rng = random.Random(60601)
    h = hashlib.sha256()
    for pg in _digest_graphs(rng):
        nodes = sorted(pg.nodes)
        for pairs in REACH_GRAMMARS:
            g = g_of(*sorted(pairs))
            for pair, path in reach_all(pg, g).items():
                h.update(f"{pair} {path.to_list()}\n".encode())
            for _ in range(3):
                x, y = rng.choice(nodes), rng.choice(nodes)
                p = reachable(pg, g, x, y)
                h.update(f"{x} {y} {None if p is None else p.to_list()}\n".encode())
    assert h.hexdigest() == (
        "3190748dc22b0e323e2f1fa98f918d20865f778584002863f48d4cf83aba3ead")


def test_memos_answer_as_fresh_work_and_stay_bounded():
    """derives answers from its memo as a fresh saturation does, keeps
    no target past DERIVES_MEMO_TEXT letters and at most
    DERIVES_MEMO_SIZE questions; equal axiom sets share one grammar."""
    G = imseq.grammar
    assert g_of((2, 1)) is grammar_from_axioms(axiom_set([(2, 1), (2, 1)]))
    assert g_of((2, 1)) == grammar_from_axioms(axiom_set([(2, 1)], d=True))
    info = G._derives_memo.cache_info()
    assert info.maxsize == G.DERIVES_MEMO_SIZE
    rng = random.Random(9103)
    grammars = [g_of((1, 1)), g_of((2, 0)), g_of((0, 1), (1, 2))]
    for n in list(range(12)) + [G.DERIVES_MEMO_TEXT, G.DERIVES_MEMO_TEXT + 1, 90]:
        for _ in range(4):
            g, t = rng.choice(grammars), "".join(rng.choice("db") for _ in range(n))
            want = G._derives(g, D, syms(t))
            assert derives(g, D, t) is want and derives(g, D, syms(t)) is want
    G._derives_memo.cache_clear()
    derives(grammars[0], D, "d" * (G.DERIVES_MEMO_TEXT + 1))
    assert G._derives_memo.cache_info().currsize == 0
    with pytest.raises(ValueError, match="'x' is not a valid Sym"):
        derives(grammars[0], D, "dxb")
    with pytest.raises(ValueError, match="is not a valid Sym"):
        syms(["d", ["b"]])
