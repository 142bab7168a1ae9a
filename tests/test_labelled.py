import copy
import pickle
import random

import pytest

from imseq.formula import axiom_set, parse_formula
from imseq.gen import random_formula, random_labelled_proof, random_tree_labelled
from imseq.grammar import PropPath, Sym
from imseq.labelled import (CheckResult, LabelledProof, LabelledSequent,
                            RuleError, check_labelled,
                            parse_labelled_sequent, premises_of_labelled,
                            prop_graph_of, render_labelled_sequent)

from oracles import path_in_graph

AX11 = axiom_set([(1, 1)])
AX21 = axiom_set([(2, 1)])
NOAX = axiom_set()


def seq(text):
    return parse_labelled_sequent(text)


def leaf(rule, text, **params):
    return LabelledProof(seq(text), rule, params, ())


def node(rule, text, premises, **params):
    return LabelledProof(seq(text), rule, params, tuple(premises))


def test_parse_render_round_trip():
    s = "w R u, u R v ; w: <>p, u: p |- v: q"
    parsed = seq(s)
    assert render_labelled_sequent(parsed) == s
    assert parsed.rel == (("w", "u"), ("u", "v"))
    assert parsed.ante[0] == ("w", parse_formula("<>p"))
    assert parsed.succ == ("v", parse_formula("q"))
    assert seq(render_labelled_sequent(parsed)) == parsed


def test_parse_empty_segments():
    s = seq("; |- w: p")
    assert s.rel == () and s.ante == ()
    assert render_labelled_sequent(s) == "; |- w: p"
    assert seq(" ;  |- w: p -> q").succ == ("w", parse_formula("p -> q"))


def test_parse_errors():
    for bad in ["w: p", "; w: p", "; |- w: p |- u: q", "w u ; |- w: p",
                "; w p |- w: p", "w R u ; |- w:"]:
        with pytest.raises(ValueError):
            seq(bad)


def test_multiset_equality():
    a = seq("w R u, u R v ; w: p, w: q |- v: r")
    b = seq("u R v, w R u ; w: q, w: p |- v: r")
    c = seq("w R u ; w: p, w: q |- v: r")
    dup = seq("w R u, w R u ; w: p, w: q |- v: r")
    assert a == b and hash(a) == hash(b)
    assert a != c and a != dup
    assert a.labels() == {"w", "u", "v"}


def test_initial_rules():
    assert premises_of_labelled(seq("; w: p |- w: p"), "id", {}, NOAX) == []
    assert premises_of_labelled(seq("; u: false |- w: p"), "botL", {}, NOAX) == []
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; w: p |- u: p"), "id", {}, NOAX)
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; w: p -> p |- w: p -> p"), "id", {}, NOAX)
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; w: p |- w: q"), "botL", {}, NOAX)


def test_conjunction_rules():
    [p] = premises_of_labelled(seq("; w: p & q |- u: r"), "andL",
                               {"world": "w", "formula": "p & q"}, NOAX)
    assert p == seq("; w: p, w: q |- u: r")
    prems = premises_of_labelled(seq("; |- w: p & q"), "andR", {}, NOAX)
    assert prems == [seq("; |- w: p"), seq("; |- w: q")]


def test_disjunction_rules():
    prems = premises_of_labelled(seq("; w: p | q |- u: r"), "orL",
                                 {"world": "w", "formula": "p | q"}, NOAX)
    assert prems == [seq("; w: p |- u: r"), seq("; w: q |- u: r")]
    [p] = premises_of_labelled(seq("; |- w: p | q"), "orR", {"side": "right"}, NOAX)
    assert p == seq("; |- w: q")
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; |- w: p | q"), "orR", {"side": "both"}, NOAX)


def test_implication_rules():
    prems = premises_of_labelled(seq("; w: p -> q |- u: r"), "impL",
                                 {"world": "w", "formula": "p -> q"}, NOAX)
    # the left premise keeps the principal implication
    assert prems[0] == seq("; w: p -> q |- w: p")
    assert prems[1] == seq("; w: q |- u: r")
    [p] = premises_of_labelled(seq("; |- w: p -> q"), "impR", {}, NOAX)
    assert p == seq("; w: p |- w: q")


def test_diamond_rules():
    [p] = premises_of_labelled(seq("; w: <>p |- v: r"), "diaL",
                               {"world": "w", "formula": "<>p", "fresh": "u"}, NOAX)
    assert p == seq("w R u ; u: p |- v: r")
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; w: <>p |- v: r"), "diaL",
                             {"world": "w", "formula": "<>p", "fresh": "v"}, NOAX)
    [p] = premises_of_labelled(seq("w R u ; |- w: <>q"), "diaR", {"to": "u"}, NOAX)
    assert p == seq("w R u ; |- u: q")
    with pytest.raises(RuleError):
        premises_of_labelled(seq("u R w ; |- w: <>q"), "diaR", {"to": "u"}, NOAX)


def test_box_rules():
    [p] = premises_of_labelled(seq("; |- w: []q"), "boxR", {"fresh": "u"}, NOAX)
    assert p == seq("w R u ; |- u: q")
    # the principal box is kept
    [p] = premises_of_labelled(seq("w R u ; w: []q |- v: r"), "boxL",
                               {"world": "w", "formula": "[]q", "to": "u"}, NOAX)
    assert p == seq("w R u ; w: []q, u: q |- v: r")
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; |- w: []q"), "boxR", {"fresh": "w"}, NOAX)


def test_d_rule():
    axd = axiom_set(d=True)
    [p] = premises_of_labelled(seq("; |- w: p"), "d",
                               {"world": "w", "fresh": "u"}, axd)
    assert p == seq("w R u ; |- w: p")
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; |- w: p"), "d", {"world": "w", "fresh": "u"}, NOAX)
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; |- w: p"), "d", {"world": "w", "fresh": "w"}, axd)


def test_s_rule_general_and_degenerate():
    s = seq("w R u, w R v ; u: p |- v: <>p")
    [p] = premises_of_labelled(s, "S", {"n": 1, "k": 1, "chain_n": ["w", "u"],
                                        "chain_k": ["w", "v"]}, AX11)
    assert p == seq("w R u, w R v, u R v ; u: p |- v: <>p")
    ax00 = axiom_set([(0, 0)])
    [p] = premises_of_labelled(seq("; u: p |- u: p"), "S",
                               {"n": 0, "k": 0, "chain_n": ["w"], "chain_k": ["w"]},
                               ax00)
    assert p == seq("w R w ; u: p |- u: p")
    ax20 = axiom_set([(2, 0)])
    [p] = premises_of_labelled(seq("w R x, x R u ; |- w: p"), "S",
                               {"n": 2, "k": 0, "chain_n": ["w", "x", "u"],
                                "chain_k": ["w"]}, ax20)
    assert p == seq("w R x, x R u, u R w ; |- w: p")
    with pytest.raises(RuleError):
        premises_of_labelled(s, "S", {"n": 1, "k": 1, "chain_n": ["w", "u"],
                                      "chain_k": ["w", "v"]}, AX21)
    with pytest.raises(RuleError):
        premises_of_labelled(s, "S", {"n": 1, "k": 1, "chain_n": ["w", "z"],
                                      "chain_k": ["w", "v"]}, AX11)


def test_propagation_rules_worked_example():
    # relational atoms vRu, uRw; path w,b,u,b,v,d,u spells bbd in L(<>)
    lam = seq("v R u, u R w ; w: []p, u: p |- v: p -> q")
    lam_pruned = seq("v R u, u R w ; w: []p |- v: p -> q")
    [p] = premises_of_labelled(
        lam_pruned, "pbox",
        {"world": "w", "formula": "[]p", "to": "u",
         "path": ["w", "b", "u", "b", "v", "d", "u"]}, AX21)
    assert p == lam
    with pytest.raises(RuleError):
        premises_of_labelled(
            lam_pruned, "pbox",
            {"world": "w", "formula": "[]p", "to": "u", "path": ["w", "b", "u"]},
            AX21)


def test_pdia_direction_and_empty_path():
    s = seq("w R u, w R v ; u: p |- v: <>p")
    [p] = premises_of_labelled(s, "pdia",
                               {"path": ["v", "b", "w", "d", "u"]}, AX11)
    assert p == seq("w R u, w R v ; u: p |- u: p")
    # the path must start at the succedent label
    with pytest.raises(RuleError):
        premises_of_labelled(s, "pdia", {"path": ["u", "d", "v"]}, AX11)
    ax00 = axiom_set([(0, 0)])
    [p] = premises_of_labelled(seq("; w: p |- w: <>p"), "pdia",
                               {"path": ["w"]}, ax00)
    assert p == seq("; w: p |- w: p")
    with pytest.raises(RuleError):
        premises_of_labelled(seq("; w: p |- w: <>p"), "pdia", {"path": ["w"]}, AX11)


def test_check_example_two_proofs():
    top = leaf("id", "w R u, w R v, u R v ; u: p |- u: p")
    mid = node("pdia", "w R u, w R v, u R v ; u: p |- v: <>p", [top],
               path=["v", "b", "w", "d", "u"])
    root = node("S", "w R u, w R v ; u: p |- v: <>p", [mid],
                n=1, k=1, chain_n=["w", "u"], chain_k=["w", "v"])
    assert check_labelled(root, AX11, "either")
    assert not check_labelled(root, AX11, "base")
    assert not check_labelled(root, AX11, "refined")

    rtop = leaf("id", "w R u, w R v ; u: p |- u: p")
    rroot = node("pdia", "w R u, w R v ; u: p |- v: <>p", [rtop],
                 path=["v", "b", "w", "d", "u"])
    assert check_labelled(rroot, AX11, "refined")


def test_check_reports_failures():
    bad = leaf("id", "; w: p |- w: q")
    r = check_labelled(bad, NOAX)
    assert not r.ok and r.at == "root" and "id" in r.message
    eigen = node("boxR", "w R u ; |- w: []p", [leaf("id", "w R u, w R u ; |- u: p")],
                 fresh="u")
    r = check_labelled(eigen, NOAX)
    assert not r.ok and "eigenvariable" in r.message
    wrong_prem = node("impR", "; |- w: p -> q", [leaf("id", "; w: q |- w: q")])
    r = check_labelled(wrong_prem, NOAX)
    assert not r.ok and "premise 0" in r.message
    unknown = leaf("zap", "; w: p |- w: p")
    assert not check_labelled(unknown, NOAX, "either").ok
    with pytest.raises(ValueError):
        check_labelled(bad, NOAX, "sideways")


def test_check_nested_failure_address():
    okleaf = leaf("id", "; w: p |- w: p")
    badleaf = leaf("id", "; w: p |- w: q")
    root = node("andR", "; w: p |- w: p & q", [okleaf, badleaf])
    r = check_labelled(root, NOAX)
    assert not r.ok and r.at == "1"
    # a wrong premise sequent is the parent's failure
    mism = node("andR", "; w: p |- w: p & q",
                [okleaf, leaf("id", "; w: q |- w: q")])
    r = check_labelled(mism, NOAX)
    assert not r.ok and r.at == "root" and "premise 1" in r.message


def test_prop_graph_includes_formula_labels():
    pg = prop_graph_of(seq("; w: p |- v: q"))
    assert pg.nodes == frozenset({"w", "v"}) and pg.edges == frozenset()


def test_propagation_walks_agree_with_the_graph():
    """pdia and pbox test a walk's steps against the relational atoms;
    on random walks, both in and out of the graph, they refuse as off the
    graph exactly the walks path_in_graph refuses in prop_graph_of's."""
    rng = random.Random(7101)
    ax = axiom_set([(1, 1)])
    agree = on_graph = 0
    for _ in range(400):
        labs = ["w", "u", "v", "x"][:rng.randrange(1, 5)]
        rel = tuple((rng.choice(labs), rng.choice(labs)) for _ in range(rng.randrange(4)))
        s = LabelledSequent(rel, (("w", parse_formula("[]p")),),
                            (labs[-1], parse_formula("<>p")))
        start = rng.choice(["w", labs[-1]])
        nodes = [start] + [rng.choice(labs + ["z"]) for _ in range(rng.randrange(4))]
        walk = PropPath(tuple(nodes), tuple(rng.choice([Sym.FWD, Sym.BWD])
                                            for _ in nodes[1:]))
        in_graph = path_in_graph(prop_graph_of(s), walk)
        rule, params = (("pbox", {"world": "w", "formula": "[]p", "to": walk.end})
                        if start == "w" else ("pdia", {}))
        try:
            premises_of_labelled(s, rule, {**params, "path": walk.to_list()}, ax)
            ok = True
        except RuleError as e:
            ok = str(e) != "path does not lie in the conclusion's graph"
        agree += ok == in_graph
        on_graph += ok
    assert agree == 400 and 50 < on_graph < 350


def _shuffled(rng, s):
    """An equal sequent with its atoms and antecedent in a new order."""
    rel, ante = list(s.rel), list(s.ante)
    rng.shuffle(rel)
    rng.shuffle(ante)
    return LabelledSequent(tuple(rel), tuple(ante), s.succ)


def _edited(rng, s):
    """s with one atom or one formula changed, added or dropped."""
    rel, ante, succ = list(s.rel), list(s.ante), s.succ
    k = rng.randrange(5)
    if k == 0 and ante:
        i = rng.randrange(len(ante))
        ante[i] = (ante[i][0], random_formula(rng, 1))
    elif k == 1 and rel:
        rel.append(rng.choice(rel))
    elif k == 2 and ante:
        del ante[rng.randrange(len(ante))]
    elif k == 3:
        succ = (succ[0], random_formula(rng, 1))
    else:
        rel.append((succ[0], "fresh"))
    return _shuffled(rng, LabelledSequent(tuple(rel), tuple(ante), succ))


def _sequents(rng, n):
    """Tree sequents, and the conclusions of random base and refined
    proofs, whose premises the rules built."""
    out = []
    while len(out) < n:
        out.append(random_tree_labelled(rng, 2, 2))
        for mode in ("base", "refined"):
            p = random_labelled_proof(rng, axiom_set([(1, 1)], d=True), mode, budget=3)
            out.extend(q.conclusion for q in p.nodes())
    return out[:n]


def test_equality_and_hash_agree_with_the_key():
    rng = random.Random(7207)
    seqs = _sequents(rng, 800)
    equal = 0
    for a in seqs:
        for b in (_shuffled(rng, a), _edited(rng, a), rng.choice(seqs)):
            same = a._key == b._key
            assert (a == b) is same and (b == a) is same and (a != b) is not same
            assert (hash(a) == hash(b)) is same
            equal += same
    assert 800 <= equal < 2000


def test_premises_carry_the_labels_they_have():
    """A premise the rules built, or a sequent found equal to one with
    its label set, holds the label set a fresh copy computes."""
    rng = random.Random(7211)
    for s in _sequents(rng, 600):
        want = ({w for atom in s.rel for w in atom} | {w for w, _ in s.ante}
                | {s.succ[0]})
        computed = LabelledSequent(s.rel, s.ante, s.succ)
        assert computed.labels() == want
        copies = [LabelledSequent(s.rel, s.ante, s.succ) for _ in range(3)]
        assert copies[0] == computed and computed == copies[1]
        assert copies[2] == s and s.labels() == want
        assert all(c.labels() == want for c in copies)


def test_labelled_sequents_survive_pickle_and_copy():
    rng = random.Random(7213)
    for s in _sequents(rng, 100):
        h, labels = hash(s), s.labels()
        for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert twin == s and s == twin and hash(twin) == h
            assert twin.labels() == labels
            assert render_labelled_sequent(twin) == render_labelled_sequent(s)


def test_a_label_dropped_by_impl_is_gone_from_the_premise():
    """impL's first premise loses a succedent label found nowhere else,
    so a later d instance may not name it, whether or not the
    conclusion's label set was computed before its premises."""
    axd = axiom_set(d=True)
    inner = node("d", "w R x ; w: p -> false, w: p |- w: p",
                 [leaf("id", "w R x, v R y ; w: p -> false, w: p |- w: p")],
                 world="v", fresh="y")
    imp = node("impL", "w R x ; w: p -> false, w: p |- v: r",
               [inner, leaf("botL", "w R x ; w: false, w: p |- v: r")],
               world="w", formula="p -> false")
    root = node("d", "; w: p -> false, w: p |- v: r", [imp], world="w", fresh="x")
    for _ in range(2):
        r = check_labelled(root, axd)
        assert not r.ok and r.at == "0.0"
        assert r.message == "d: world 'v' is not a label of the conclusion"
        for q in root.nodes():
            q.conclusion.labels()
    # and the freed label may serve as a fresh one
    s = seq("w R x ; w: p -> false, w: p |- v: r")
    s.labels()
    [p, _] = premises_of_labelled(s, "impL", {"world": "w", "formula": "p -> false"}, axd)
    [q] = premises_of_labelled(p, "d", {"world": "w", "fresh": "v"}, axd)
    assert q == seq("w R x, w R v ; w: p -> false, w: p |- w: p")


def test_premises_built_after_labels_hold_fresh_labels():
    """Every premise of a conclusion whose label set was computed first
    holds the set a fresh computation gives, on the nodes of random
    proofs and on their impL nodes moved to an isolated succedent."""
    rng = random.Random(7219)
    ax = axiom_set([(1, 1)], d=True)
    cases = []
    for mode in ("base", "refined") * 60:
        for q in random_labelled_proof(rng, ax, mode, budget=4).nodes():
            s = q.conclusion
            cases.append((s, q.rule, q.params))
            if q.rule == "impL":
                cases.append((LabelledSequent(s.rel, s.ante, ("lone", s.succ[1])),
                              q.rule, q.params))
    rules = set()
    for s, rule, params in cases:
        s = LabelledSequent(s.rel, s.ante, s.succ)
        s.labels()
        for prem in premises_of_labelled(s, rule, params, ax):
            assert prem.labels() == LabelledSequent(prem.rel, prem.ante,
                                                    prem.succ).labels()
            rules.add(rule)
    assert {"impL", "diaL", "boxR", "d", "pdia", "pbox", "S"} <= rules
