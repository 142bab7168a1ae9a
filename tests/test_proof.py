"""The proof type and checker walk shared by both calculi."""

import copy
import pickle

import pytest

import imseq
from imseq.formula import Atom, axiom_set, parse_formula
from imseq.labelled import (LabelledProof, LabelledSequent, check_labelled,
                            parse_labelled_sequent)
from imseq.nested import (EMPTY, NestedProof, check_nested, nseq, parse_nested,
                          prove_formula)
from imseq.proof import Proof, rebuild
from imseq.proofio import dump_proof, proof_to_dict
from imseq.refine import eliminate_structural
from imseq.structural import (contract_proof, invert_and_input,
                              invert_dia_input, invert_imp_input,
                              invert_or_input, merge_proof, nest_proof,
                              weaken_proof)
from imseq.translate import translate_proof

P, Q = Atom("p"), Atom("q")
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


def test_proofs_are_immutable_and_survive_pickle_and_copy():
    """Setting or deleting a field of a proof node raises AttributeError;
    a pickle round trip and a deep copy give a proof with the same
    conclusions, rules and params, that checks and dumps to the same
    bytes."""
    proof = prove_formula(parse_formula("[]p -> <>p"), SERIAL, 8)
    for name in ("conclusion", "rule", "params", "premises"):
        with pytest.raises(AttributeError):
            setattr(proof, name, None)
        with pytest.raises(AttributeError):
            delattr(proof, name)
    assert proof.rule == "impO" and len(proof.premises) == 1
    for twin in (pickle.loads(pickle.dumps(proof)), copy.deepcopy(proof)):
        assert twin is not proof
        pairs = list(zip(twin.nodes(), proof.nodes()))
        assert len(pairs) == len(list(proof.nodes())) == len(list(twin.nodes()))
        for a, b in pairs:
            assert (a.conclusion, a.rule, a.params) == (b.conclusion, b.rule, b.params)
        assert check_nested(twin, SERIAL)
        assert dump_proof(twin) == dump_proof(proof)


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


def test_every_rewrite_handles_a_600_level_proof():
    """Rewrites walk with explicit stacks: a 600-level d-chain goes
    through each structural transform, inversion, translation and
    elimination, and only the indented JSON writer gives up."""
    n = 600
    inputs = tuple(parse_formula(t) for t in ("p & q", "p | q", "q -> p", "<>q"))
    inputs += (P, P)
    base = (nseq((Q,)), nseq((Q,)))
    p = NestedProof(nseq(inputs, P, base + (EMPTY,) * n), "id",
                    {"at": "r", "index": 4}, ())
    for k in reversed(range(n)):
        p = NestedProof(nseq(inputs, P, base + (EMPTY,) * k), "d", {"at": "r"}, (p,))
    assert check_nested(p, SERIAL)

    for out in (nest_proof(p), weaken_proof(p, (), nseq((Q,))),
                contract_proof(p, (), 4, 5), merge_proof(p, (), 0, 1),
                invert_and_input(p, (), 0), invert_or_input(p, (), 1, "left"),
                invert_imp_input(p, (), 2), invert_dia_input(p, (), 3)):
        assert out.height() == n + 1
        assert check_nested(out, SERIAL)

    lab = translate_proof(p, "labelled", SERIAL)
    assert lab.height() == n + 1 and check_labelled(lab, SERIAL, "refined")
    back = translate_proof(lab, "nested", SERIAL)
    assert back.conclusion == p.conclusion and back.height() == n + 1

    # an S step at the root drops its w0 R w0 edge from every node above it
    def add_loop(q, _):
        c = q.conclusion
        return (LabelledSequent(c.rel + (("w0", "w0"),), c.ante, c.succ),
                q.rule, q.params, [(s, None) for s in q.premises])

    ax = axiom_set([(0, 0)], d=True)
    s_step = {"n": 0, "k": 0, "chain_n": ["w0"], "chain_k": ["w0"]}
    with_s = Proof(lab.conclusion, "S", s_step, (rebuild(lab, add_loop),))
    assert check_labelled(with_s, ax, "either")
    refined = eliminate_structural(with_s, ax)
    assert refined.height() == n + 1 and check_labelled(refined, ax, "refined")
    assert refined.conclusion == lab.conclusion
    assert all(("w0", "w0") not in q.conclusion.rel for q in refined.nodes())

    d = proof_to_dict(p)
    for _ in range(n):
        assert list(d) == ["rule", "conclusion", "params", "premises"]
        d = d["premises"][0]
    assert d["rule"] == "id" and d["premises"] == []
    with pytest.raises(ValueError, match="nested too deeply"):
        dump_proof(p)
