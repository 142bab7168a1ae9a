"""The proof type and checker walk shared by both calculi."""

import pytest

import imseq
from imseq.formula import Atom, axiom_set
from imseq.labelled import (LabelledProof, LabelledSequent, check_labelled,
                            parse_labelled_sequent)
from imseq.nested import EMPTY, NestedProof, check_nested, nseq, parse_nested
from imseq.proof import Proof
from imseq.translate import translate_proof

P = Atom("p")
SERIAL = axiom_set(d=True)
DEEP = 1500


def test_one_proof_type():
    assert LabelledProof is NestedProof is Proof


def test_every_exported_name_resolves():
    for name in imseq.__all__:
        assert getattr(imseq, name) is not None, name
    assert "Proof" in imseq.__all__
    assert not {"SequentParts", "seq_compose"} & set(imseq.__all__)


def test_nodes_preorder_and_height():
    def leaf(name):
        return Proof(None, name, {}, ())

    p = Proof(None, "a", {}, (Proof(None, "b", {}, (leaf("c"),)), leaf("d")))
    assert [n.rule for n in p.nodes()] == ["a", "b", "c", "d"]
    assert p.height() == 3
    assert leaf("x").height() == 1


def deep_nested_chain(n):
    """d applied n times at the root, closed by id: height n + 1."""
    p = NestedProof(nseq((P,), P, (EMPTY,) * n), "id", {"at": "r", "index": 0}, ())
    for k in reversed(range(n)):
        p = NestedProof(nseq((P,), P, (EMPTY,) * k), "d", {"at": "r"}, (p,))
    return p


def deep_labelled_chain(n):
    def seq(k):
        return LabelledSequent(tuple(("w", f"u{i}") for i in range(k)),
                               (("w", P),), ("w", P))

    p = LabelledProof(seq(n), "id", {}, ())
    for k in reversed(range(n)):
        p = LabelledProof(seq(k), "d", {"world": "w", "fresh": f"u{k}"}, (p,))
    return p


def test_deep_nested_proof_checks_without_recursion():
    p = deep_nested_chain(DEEP)
    assert p.height() == DEEP + 1
    assert check_nested(p, SERIAL)
    assert sum(1 for _ in p.nodes()) == DEEP + 1


def test_deep_labelled_proof_checks_without_recursion():
    p = deep_labelled_chain(DEEP)
    assert p.height() == DEEP + 1
    assert check_labelled(p, SERIAL, "base")


def test_deep_proof_reports_the_failing_address():
    p = deep_nested_chain(40)
    r = check_nested(p, axiom_set())
    assert not r and r.at == "root" and "seriality" in r.message
    q = deep_labelled_chain(3)
    bad = LabelledProof(q.conclusion, q.rule, q.params,
                        (LabelledProof(q.premises[0].conclusion, "zzz", {}, ()),))
    r = check_labelled(bad, SERIAL, "base")
    assert (r.ok, r.message, r.at) == (False, "rule 'zzz' not in base mode", "0")


def test_earlier_subtree_fails_before_a_later_premise_mismatch():
    ax = axiom_set()

    def seq(text):
        return parse_labelled_sequent(text)

    broken = LabelledProof(seq("; w: p |- w: p"), "andR", {}, ())
    stray = LabelledProof(seq("; w: q |- w: q"), "id", {}, ())
    root = LabelledProof(seq("; w: p |- w: p & q"), "andR", {}, (broken, stray))
    r = check_labelled(root, ax)
    assert r.at == "0" and r.message.startswith("andR: andR needs")
    fixed = LabelledProof(seq("; w: p |- w: p"), "id", {}, ())
    root = LabelledProof(seq("; w: p |- w: p & q"), "andR", {}, (fixed, stray))
    r = check_labelled(root, ax)
    assert r.at == "root" and r.message.startswith("andR: premise 1 is")


def test_translate_rejects_a_proof_of_the_wrong_calculus():
    ax = axiom_set()
    lab = LabelledProof(parse_labelled_sequent("; w: p |- w: p"), "id", {}, ())
    nes = NestedProof(parse_nested("p^i, p^o"), "id", {"at": "r", "index": 0}, ())
    assert translate_proof(lab, "nested", ax).conclusion == nes.conclusion
    with pytest.raises(ValueError, match="needs a nested proof"):
        translate_proof(lab, "labelled", ax)
    with pytest.raises(ValueError, match="needs a labelled proof"):
        translate_proof(nes, "nested", ax)
    with pytest.raises(ValueError, match="needs a labelled proof"):
        translate_proof("not a proof", "nested", ax)
