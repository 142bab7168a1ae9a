"""Structural-step elimination must reproduce propagation-only proofs."""

import json

import pytest

from imseq.formula import axiom_set
from imseq.grammar import PropPath
from imseq.labelled import (LabelledProof, check_labelled,
                            parse_labelled_sequent, premises_of_labelled)
from imseq.proofio import dump_proof
from imseq.refine import _detour_path, eliminate_structural


def leaf(seq, rule="id", params=None):
    return LabelledProof(seq, rule, params or {}, ())


def node(seq, rule, params, *premises):
    return LabelledProof(seq, rule, params, tuple(premises))


def s_free(p):
    return all(n.rule not in ("S", "diaR", "boxL") for n in p.nodes())


def test_detour_forward_step():
    path = PropPath.from_list(["w", "d", "u"])
    out = _detour_path(path, ("w", "u"), ["v", "x", "w"], ["v", "u"])
    assert out.to_list() == ["w", "b", "x", "b", "v", "d", "u"]
    assert out.string == "bbd"


def test_detour_backward_step():
    path = PropPath.from_list(["u", "b", "w"])
    out = _detour_path(path, ("w", "u"), ["v", "w"], ["v", "u"])
    assert out.to_list() == ["u", "b", "v", "d", "w"]


def test_detour_leaves_other_steps():
    path = PropPath.from_list(["a", "d", "b", "d", "c"])
    out = _detour_path(path, ("b", "c"), ["x", "b"], ["x", "c"])
    assert out.to_list() == ["a", "d", "b", "b", "x", "d", "c"]


def test_detour_empty_chains_erase_the_step():
    path = PropPath.from_list(["w", "d", "w"])
    out = _detour_path(path, ("w", "w"), ["w"], ["w"])
    assert out.to_list() == ["w"]


def test_eliminate_keeps_pure_proofs():
    ax = axiom_set()
    c = parse_labelled_sequent("; |- w: p -> p")
    p = node(c, "impR", {}, leaf(parse_labelled_sequent("; w: p |- w: p")))
    out = eliminate_structural(p, ax)
    assert check_labelled(out, ax, "refined")
    assert out.conclusion == c and s_free(out)


def test_eliminate_retags_relational_rules():
    ax = axiom_set()
    c = parse_labelled_sequent("w R u ; u: p |- w: <>p")
    p = node(c, "diaR", {"to": "u"},
             leaf(parse_labelled_sequent("w R u ; u: p |- u: p")))
    out = eliminate_structural(p, ax)
    assert check_labelled(out, ax, "refined")
    assert out.rule == "pdia" and out.params == {"path": ["w", "d", "u"]}

    c2 = parse_labelled_sequent("w R u ; w: []p |- u: p")
    p2 = node(c2, "boxL", {"world": "w", "formula": "[]p", "to": "u"},
              leaf(parse_labelled_sequent("w R u ; w: []p, u: p |- u: p")))
    out2 = eliminate_structural(p2, ax)
    assert check_labelled(out2, ax, "refined")
    assert out2.rule == "pbox"
    assert out2.params["path"] == ["w", "d", "u"]


def test_eliminate_worked_fork_example():
    """The structural step over a fork becomes a pure two-step path."""
    ax = axiom_set([(1, 1)])
    concl = parse_labelled_sequent("w R u, w R v ; u: p |- v: <>p")
    mid = parse_labelled_sequent("w R u, w R v, u R v ; u: p |- v: <>p")
    top = parse_labelled_sequent("w R u, w R v, u R v ; u: p |- u: p")
    left = node(concl, "S",
                {"n": 1, "k": 1, "chain_n": ["w", "u"], "chain_k": ["w", "v"]},
                node(mid, "pdia", {"path": ["v", "b", "w", "d", "u"]},
                     leaf(top)))
    assert check_labelled(left, ax, "either")

    out = eliminate_structural(left, ax)
    assert check_labelled(out, ax, "refined")
    # exactly the direct refined derivation
    assert out.conclusion == concl
    assert out.rule == "pdia" and out.params == {"path": ["v", "b", "w", "d", "u"]}
    sub = out.premises[0]
    assert sub.rule == "id" and sub.premises == ()
    assert sub.conclusion == parse_labelled_sequent("w R u, w R v ; u: p |- u: p")


def test_eliminate_two_loop_detour():
    """A path that walks the dropped edge twice in both directions gets
    rerouted around the chains each time."""
    ax = axiom_set([(2, 1)])
    concl = parse_labelled_sequent("v R u, u R w ; w: []p |- u: p")
    mid = parse_labelled_sequent("v R u, u R w, w R u ; w: []p |- u: p")
    top = parse_labelled_sequent("v R u, u R w, w R u ; w: []p, u: p |- u: p")
    long_path = ["w", "b", "u", "d", "w", "d", "u", "b", "w", "d", "u"]
    p = node(concl, "S",
             {"n": 2, "k": 1, "chain_n": ["v", "u", "w"], "chain_k": ["v", "u"]},
             node(mid, "pbox",
                  {"world": "w", "formula": "[]p", "to": "u", "path": long_path},
                  leaf(top)))
    assert check_labelled(p, ax, "either")

    out = eliminate_structural(p, ax)
    assert check_labelled(out, ax, "refined")
    assert out.conclusion == concl and s_free(out)
    assert out.rule == "pbox"
    assert out.params["path"] == [
        "w", "b", "u", "d", "w",
        "b", "u", "b", "v", "d", "u",
        "b", "v", "d", "u", "d", "w",
        "b", "u", "b", "v", "d", "u",
    ]
    assert PropPath.from_list(out.params["path"]).string == "bdbbdbddbbd"


def test_eliminate_stacked_structural_steps():
    ax = axiom_set([(1, 1)])
    c0 = parse_labelled_sequent("w R u, w R v ; v: p |- u: <>p")
    c1 = parse_labelled_sequent("w R u, w R v, u R v ; v: p |- u: <>p")
    c2 = parse_labelled_sequent("w R u, w R v, u R v, v R u ; v: p |- u: <>p")
    top = parse_labelled_sequent("w R u, w R v, u R v, v R u ; v: p |- v: p")
    p = node(c0, "S",
             {"n": 1, "k": 1, "chain_n": ["w", "u"], "chain_k": ["w", "v"]},
             node(c1, "S",
                  {"n": 1, "k": 1, "chain_n": ["w", "v"], "chain_k": ["w", "u"]},
                  node(c2, "pdia", {"path": ["u", "d", "v"]}, leaf(top))))
    assert check_labelled(p, ax, "either")

    out = eliminate_structural(p, ax)
    assert check_labelled(out, ax, "refined")
    assert out.conclusion == c0 and s_free(out)
    assert out.rule == "pdia"
    assert out.params["path"] == ["u", "b", "w", "d", "v"]


def test_eliminate_detours_the_inner_step_first():
    """The upper S's chain walks the lower S's edge: the path is detoured
    around the upper edge, then the detour around the lower one."""
    ax = axiom_set([(1, 1)])
    L = parse_labelled_sequent
    p = node(L("w R u, w R v, u R x ; x: p |- v: <>p"), "S",
             {"n": 1, "k": 1, "chain_n": ["w", "u"], "chain_k": ["w", "v"]},
             node(L("w R u, w R v, u R x, u R v ; x: p |- v: <>p"), "S",
                  {"n": 1, "k": 1, "chain_n": ["u", "v"], "chain_k": ["u", "x"]},
                  node(L("w R u, w R v, u R x, u R v, v R x ; x: p |- v: <>p"),
                       "pdia", {"path": ["v", "d", "x"]},
                       leaf(L("w R u, w R v, u R x, u R v, v R x ; x: p |- x: p")))))
    assert check_labelled(p, ax, "either")
    out = eliminate_structural(p, ax)
    assert check_labelled(out, ax, "refined")
    assert dump_proof(out) == json.dumps({
        "rule": "pdia",
        "conclusion": "w R u, w R v, u R x ; x: p |- v: <>p",
        "params": {"path": ["v", "b", "w", "d", "u", "d", "x"]},
        "premises": [{"rule": "id",
                      "conclusion": "w R u, w R v, u R x ; x: p |- x: p",
                      "params": {}, "premises": []}],
    }, indent=2) + "\n"


def test_eliminate_keeps_stored_conclusions_without_structural_steps():
    """Above no S step, stored premise conclusions are kept as written,
    even where the rule would list the antecedent in another order."""
    ax = axiom_set()
    L = parse_labelled_sequent
    p = node(L("w R u ; u: p, w: q & r |- w: <>p"), "andL",
             {"world": "w", "formula": "q & r"},
             node(L("w R u ; w: r, u: p, w: q |- w: <>p"), "diaR", {"to": "u"},
                  leaf(L("w R u ; w: q, w: r, u: p |- u: p"))))
    computed = premises_of_labelled(p.conclusion, p.rule, p.params, ax)[0]
    assert str(computed) != str(p.premises[0].conclusion)
    out = eliminate_structural(p, ax)
    assert dump_proof(out) == json.dumps({
        "rule": "andL",
        "conclusion": "w R u ; u: p, w: q & r |- w: <>p",
        "params": {"world": "w", "formula": "q & r"},
        "premises": [{
            "rule": "pdia",
            "conclusion": "w R u ; w: r, u: p, w: q |- w: <>p",
            "params": {"path": ["w", "d", "u"]},
            "premises": [{"rule": "id",
                          "conclusion": "w R u ; w: q, w: r, u: p |- u: p",
                          "params": {}, "premises": []}],
        }],
    }, indent=2) + "\n"


def test_eliminate_pushes_past_branching_rules():
    ax = axiom_set([(0, 0)])
    concl = parse_labelled_sequent("; u: p | q |- u: <>p | q")
    mid = parse_labelled_sequent("u R u ; u: p | q |- u: <>p | q")
    lp = parse_labelled_sequent("u R u ; u: p |- u: <>p | q")
    lp1 = parse_labelled_sequent("u R u ; u: p |- u: <>p")
    lp2 = parse_labelled_sequent("u R u ; u: p |- u: p")
    rp = parse_labelled_sequent("u R u ; u: q |- u: <>p | q")
    rp1 = parse_labelled_sequent("u R u ; u: q |- u: q")
    p = node(concl, "S", {"n": 0, "k": 0, "chain_n": ["u"], "chain_k": ["u"]},
             node(mid, "orL", {"world": "u", "formula": "p | q"},
                  node(lp, "orR", {"side": "left"},
                       node(lp1, "pdia", {"path": ["u", "d", "u"]}, leaf(lp2))),
                  node(rp, "orR", {"side": "right"}, leaf(rp1))))
    assert check_labelled(p, ax, "either")

    out = eliminate_structural(p, ax)
    assert check_labelled(out, ax, "refined")
    assert out.conclusion == concl and s_free(out)
    # the rerouted diamond path degenerates to the empty walk
    inner = out.premises[0].premises[0]
    assert inner.rule == "pdia" and inner.params == {"path": ["u"]}


def test_eliminate_past_eigenvariable_rules():
    ax = axiom_set([(0, 0)])
    concl = parse_labelled_sequent("; w: <>p |- w: <>p")
    mid = parse_labelled_sequent("w R w ; w: <>p |- w: <>p")
    m1 = parse_labelled_sequent("w R w, w R u ; u: p |- w: <>p")
    m2 = parse_labelled_sequent("w R w, w R u ; u: p |- u: p")
    p = node(concl, "S", {"n": 0, "k": 0, "chain_n": ["w"], "chain_k": ["w"]},
             node(mid, "diaL", {"world": "w", "formula": "<>p", "fresh": "u"},
                  node(m1, "pdia", {"path": ["w", "d", "u"]}, leaf(m2))))
    assert check_labelled(p, ax, "either")
    out = eliminate_structural(p, ax)
    assert check_labelled(out, ax, "refined")
    assert out.conclusion == concl and s_free(out)


def test_eliminate_rejects_broken_input():
    ax = axiom_set()
    bad = leaf(parse_labelled_sequent("; w: p |- w: q"))
    with pytest.raises(ValueError):
        eliminate_structural(bad, ax)
