"""Tree recognition and the two translations, sequent and proof level."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from imseq.formula import MAX_NESTING, Bot, axiom_set
from imseq.gen import (random_full_nested, random_labelled_proof,
                       random_tree_labelled)
from imseq.labelled import (LabelledProof, LabelledSequent, check_labelled,
                            parse_labelled_sequent)
from imseq.nested import check_nested, parse_nested
from imseq.proofio import dump_proof, load_labelled_proof, load_nested_proof
from imseq.refine import eliminate_structural
from imseq.translate import (canonical_relabel, is_labelled_tree, to_labelled,
                             to_nested, translate_proof)


def L(text):
    return parse_labelled_sequent(text)


def N(text):
    return parse_nested(text)


def test_tree_cert_on_worked_sequent():
    cert = is_labelled_tree(L("w R v, v R u ; v: p, u: []p |- w: p -> q"))
    assert cert is not None
    assert cert.root == "w"
    assert cert.parent == {"v": "w", "u": "v"}


def test_tree_cert_degenerate():
    cert = is_labelled_tree(L("; w: p |- w: p"))
    assert cert is not None
    assert cert.root == "w" and cert.parent == {}


def test_tree_cert_rejections():
    assert is_labelled_tree(L("w R u, v R u ; |- w: p")) is None  # two parents
    assert is_labelled_tree(L("w R u ; v: p |- w: p")) is None    # stray label
    assert is_labelled_tree(L("w R w ; |- w: p")) is None         # self loop
    assert is_labelled_tree(L("w R u, w R u ; |- w: p")) is None  # repeated atom
    assert is_labelled_tree(L("a R b, b R a ; |- c: p")) is None  # detached cycle


def test_to_labelled_worked_example():
    s = N("p -> q^o, [ p^i, [ []p^i ] ]")
    assert to_labelled(s) == L("w0 R w1, w1 R w2 ; w1: p, w2: []p |- w0: p -> q")


def test_to_labelled_small_cases():
    assert to_labelled(N("p & q^o")) == L("; |- w0: p & q")
    assert to_labelled(N("[ p^o ]")) == L("w0 R w1 ; |- w1: p")


def test_to_labelled_needs_full():
    with pytest.raises(ValueError):
        to_labelled(N("p^i"))
    with pytest.raises(ValueError):
        to_labelled(N("p^o, [ q^o ]"))


def test_to_nested_worked_example():
    s = L("w R v, v R u ; v: p, u: []p |- w: p -> q")
    assert to_nested(s) == N("p -> q^o, [ p^i, [ []p^i ] ]")


def test_to_nested_degenerate():
    assert to_nested(L("; |- w: p")) == N("p^o")


def test_to_nested_rejects_non_tree():
    with pytest.raises(ValueError):
        to_nested(L("w R u, v R u ; |- w: p"))


def test_to_nested_label_depth_limit():
    def chain(n):
        rel = tuple((f"w{i}", f"w{i + 1}") for i in range(n))
        return LabelledSequent(rel, (), ("w0", Bot()))

    assert to_nested(chain(MAX_NESTING)) == parse_nested(
        "false^o" + ", [ " * MAX_NESTING + " ]" * MAX_NESTING)
    with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING} levels"):
        to_nested(chain(MAX_NESTING + 1))


def test_to_nested_order_is_canonical():
    a = to_nested(L("w R u, w R v ; u: p, v: q |- w: r"))
    b = to_nested(L("w R v, w R u ; v: q, u: p |- w: r"))
    c = to_nested(L("a R c, a R b ; c: p, b: q |- a: r"))
    assert str(a) == str(b) == str(c)


def test_nested_round_trip_exact():
    rng = random.Random(7001)
    for _ in range(500):
        s = random_full_nested(rng, depth=3, width=2)
        assert to_nested(to_labelled(s)) == s


def test_labelled_round_trip_up_to_renaming():
    rng = random.Random(7002)
    for _ in range(200):
        s = random_tree_labelled(rng)
        back = to_labelled(to_nested(s))
        assert canonical_relabel(back) == canonical_relabel(s)


def test_canonical_relabel_collapses_bijective_copies():
    a = L("w R u, w R v ; u: p, v: q |- w: r")
    b = L("k R m, k R z ; z: p, m: q |- k: r")
    assert canonical_relabel(a) == canonical_relabel(b)
    assert canonical_relabel(a).labels() == {"w0", "w1", "w2"}


def test_translate_single_id_both_ways():
    ax = axiom_set()
    p = LabelledProof(L("; w: p |- w: p"), "id", {}, ())
    q = translate_proof(p, "nested", ax)
    assert check_nested(q, ax)
    assert q.conclusion == N("p^i, p^o")
    back = translate_proof(q, "labelled", ax)
    assert check_labelled(back, ax, "refined")
    assert canonical_relabel(back.conclusion) == canonical_relabel(p.conclusion)


def test_translate_worked_refined_proof():
    ax = axiom_set([(1, 1)])
    concl = L("w R u, w R v ; u: p |- v: <>p")
    top = L("w R u, w R v ; u: p |- u: p")
    p = LabelledProof(concl, "pdia", {"path": ["v", "b", "w", "d", "u"]},
                      (LabelledProof(top, "id", {}, ()),))
    assert check_labelled(p, ax, "refined")

    q = translate_proof(p, "nested", ax)
    assert check_nested(q, ax)
    assert q.conclusion == N("[ <>p^o ], [ p^i ]")
    assert q.rule == "pdia"
    # same step string, node ids substituted for labels
    assert q.params["path"][1::2] == ["b", "d"]


def test_translate_round_trip_random_proofs():
    rng = random.Random(7003)
    ax = axiom_set([(1, 1)], d=True)
    for _ in range(50):
        p = random_labelled_proof(rng, ax, mode="refined", budget=4)
        assert check_labelled(p, ax, "refined")
        q = translate_proof(p, "nested", ax)
        assert check_nested(q, ax)
        back = translate_proof(q, "labelled", ax)
        assert check_labelled(back, ax, "refined")
        assert canonical_relabel(back.conclusion) == canonical_relabel(p.conclusion)
        assert back.height() == p.height()
        assert sorted(n.rule for n in back.nodes()) == sorted(n.rule for n in p.nodes())


def test_translate_after_elimination():
    """Base-mode proofs of tree sequents survive the whole chain:
    eliminate the relational rules, then push through the translation."""
    rng = random.Random(7004)
    ax = axiom_set([(0, 2), (1, 1)])
    used_s = 0
    for _ in range(40):
        base = random_tree_labelled(rng)
        anchor = sorted(base.labels())[0]
        root = LabelledSequent(base.rel, base.ante + ((anchor, Bot()),), base.succ)
        p = random_labelled_proof(rng, ax, mode="base", budget=4, root=root)
        assert check_labelled(p, ax, "base")
        used_s += any(n.rule == "S" for n in p.nodes())
        r = eliminate_structural(p, ax)
        q = translate_proof(r, "nested", ax)
        assert check_nested(q, ax)
        assert q.conclusion == to_nested(root)
    assert used_s > 0


def test_translate_rejects_relational_rules():
    ax = axiom_set([(1, 1)])
    concl = L("w R u, w R v ; u: p |- v: <>p")
    mid = L("w R u, w R v, u R v ; u: p |- v: <>p")
    top = L("w R u, w R v, u R v ; u: p |- u: p")
    p = LabelledProof(concl, "S",
                      {"n": 1, "k": 1, "chain_n": ["w", "u"], "chain_k": ["w", "v"]},
                      (LabelledProof(mid, "pdia", {"path": ["v", "b", "w", "d", "u"]},
                                     (LabelledProof(top, "id", {}, ()),)),))
    with pytest.raises(ValueError, match="eliminate"):
        translate_proof(p, "nested", ax)


def test_translate_rejects_non_tree_conclusion():
    ax = axiom_set()
    p = LabelledProof(L("w R u, v R u ; u: p |- u: p"), "id", {}, ())
    assert check_labelled(p, ax, "refined")
    with pytest.raises(ValueError, match="tree"):
        translate_proof(p, "nested", ax)


def test_translate_rejects_d_at_an_absent_label():
    """The refined checker lets d name any label; one the conclusion
    lacks has no node for the new bracket."""
    ax = axiom_set(d=True)
    leaf = LabelledProof(L("zz R u ; w: false |- w: p"), "botL", {}, ())
    p = LabelledProof(L("; w: false |- w: p"), "d", {"world": "zz", "fresh": "u"},
                      (leaf,))
    assert check_labelled(p, ax, "refined")
    with pytest.raises(ValueError, match="'zz', a label not in the conclusion"):
        translate_proof(p, "nested", ax)


def test_translate_rejects_broken_input():
    ax = axiom_set()
    bad = LabelledProof(L("; w: p |- w: q"), "id", {}, ())
    with pytest.raises(ValueError):
        translate_proof(bad, "nested", ax)


def test_translate_direction_validation():
    ax = axiom_set()
    p = LabelledProof(L("; w: p |- w: p"), "id", {}, ())
    with pytest.raises(ValueError):
        translate_proof(p, "labelled", ax)
    with pytest.raises(ValueError):
        translate_proof(p, "sideways", ax)


CHECK_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "check.jsonl"
REFINE_TRANSLATE_DIGEST = "ad81afe0c0485393f3cc1875eb50a26c5620ac5910f16e54208aeb41bfc2a3d4"


def test_refine_translate_output_matches_frozen_digest():
    """Byte-identical refine and translate output on the check corpus:
    nested proofs go to labelled and back, labelled proofs are refined
    and then go to nested; one SHA-256 over every output's JSON."""
    h = hashlib.sha256()
    with open(CHECK_CORPUS) as fh:
        entries = [json.loads(line) for line in fh]
    for e in entries:
        ax = axiom_set([tuple(p) for p in e["axioms"]["hsl"]], d=e["axioms"]["d"])
        if e["calculus"] == "nested":
            lab = translate_proof(load_nested_proof(e["proof"]), "labelled", ax)
            outs = [lab, translate_proof(lab, "nested", ax)]
        else:
            refined = eliminate_structural(load_labelled_proof(e["proof"]), ax)
            outs = [refined, translate_proof(refined, "nested", ax)]
        for out in outs:
            h.update(dump_proof(out).encode())
    assert len(entries) == 169
    assert h.hexdigest() == REFINE_TRANSLATE_DIGEST
