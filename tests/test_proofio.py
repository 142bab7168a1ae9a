import json
import random
from pathlib import Path

import pytest

from imseq.formula import MAX_NESTING, Atom, ParseError, axiom_set
from imseq.gen import random_labelled_proof
from imseq.labelled import check_labelled
from imseq.nested import EMPTY, check_nested, nseq, parse_nested
from imseq.proof import Proof
from imseq.proofio import (MAX_PROOF_HEIGHT, dump_proof, load_labelled_proof,
                           load_nested_proof, proof_to_dict)
from imseq.translate import translate_proof

P = Atom("p")
CHECK_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "check.jsonl"


def same(p, q):
    return (p.rule == q.rule and p.conclusion == q.conclusion
            and p.params == q.params and len(p.premises) == len(q.premises)
            and all(same(a, b) for a, b in zip(p.premises, q.premises)))


def test_labelled_round_trip():
    rng = random.Random(8001)
    ax = axiom_set([(1, 1)], d=True)
    for _ in range(20):
        p = random_labelled_proof(rng, ax, mode="base", budget=4)
        text = dump_proof(p)
        back = load_labelled_proof(text)
        assert same(p, back)
        assert dump_proof(back) == text
        assert check_labelled(back, ax, "base")


def test_nested_round_trip():
    rng = random.Random(8002)
    ax = axiom_set([(1, 1)])
    p = random_labelled_proof(rng, ax, mode="refined", budget=4)
    q = translate_proof(p, "nested", ax)
    text = dump_proof(q)
    back = load_nested_proof(text)
    assert same(q, back)
    assert dump_proof(back) == text
    assert check_nested(back, ax)


def test_dict_shape():
    rng = random.Random(8003)
    p = random_labelled_proof(rng, axiom_set(), budget=2)
    d = proof_to_dict(p)
    assert set(d) == {"rule", "conclusion", "params", "premises"}
    json.dumps(d)  # everything JSON-plain


def test_loader_rejects_junk():
    with pytest.raises(ValueError):
        load_labelled_proof("[1, 2]")
    with pytest.raises(ValueError):
        load_labelled_proof('{"rule": "id", "conclusion": "; |- w: p"}')
    with pytest.raises(ValueError):
        load_labelled_proof(json.dumps({
            "rule": "id", "conclusion": "; |- w: p",
            "params": [], "premises": []}))
    with pytest.raises(ValueError):
        load_nested_proof(json.dumps({
            "rule": "id", "conclusion": "w R u ; |- w: p",
            "params": {}, "premises": []}))
    with pytest.raises(ValueError):
        proof_to_dict("not a proof")


def test_loader_turns_deep_json_into_value_error():
    deep = '{"rule": "id", "conclusion": "p^o", "params": {}, "premises": [' * 600
    deep += '{}' + "]}" * 600
    for load in (load_nested_proof, load_labelled_proof):
        with pytest.raises(ValueError, match="nested too deeply"):
            load(deep)


def reference_dump(p) -> str:
    return json.dumps(proof_to_dict(p), indent=2) + "\n"


def test_writer_matches_json_dumps_on_the_corpus():
    for line in CHECK_CORPUS.read_text().splitlines():
        e = json.loads(line)
        load = load_nested_proof if e["calculus"] == "nested" else load_labelled_proof
        p = load(e["proof"])
        assert dump_proof(p) == reference_dump(p) == e["proof"]


def test_writer_matches_json_dumps_on_generated_proofs():
    rng = random.Random(8011)
    ax = axiom_set([(1, 1), (2, 0)], d=True)
    for k in range(40):
        p = random_labelled_proof(rng, ax, mode=("base", "refined")[k % 2], budget=5)
        assert dump_proof(p) == reference_dump(p)
        if k % 2:
            q = translate_proof(p, "nested", ax)
            assert dump_proof(q) == reference_dump(q)


def test_writer_matches_json_dumps_on_odd_params():
    odd = [{"at": "r", "note": "caf\u00e9 \u2603 \"q\" \\ \n\t"},
           {"x": 1.5, "y": True, "z": False, "n": None, "big": 10 ** 30, "neg": -3},
           {"empty": [], "nested": {"a": [1, {"b": ["\u00fc", []]}], "c": {}},
            "mixed": ["r", 2], "tuple": ("r", "d", "r.0")},
           {3: "int key", "s": "str key"}, {}]
    leaves = tuple(Proof("p^o", "id", params, ()) for params in odd)
    p = Proof("p^i, p^o", "d\u00e9", {"path": ["r", "d", "r.0"], "index": 0},
              (Proof("q^o", "rule", {}, leaves), leaves[0]))
    assert dump_proof(p) == reference_dump(p)
    for q in leaves:
        assert dump_proof(q) == reference_dump(q)


def d_chain(height: int) -> Proof:
    """A proof of the given height: d at the root, closed by id."""
    p = Proof(nseq((P,), P, (EMPTY,) * (height - 1)), "id", {"at": "r", "index": 0}, ())
    for k in reversed(range(height - 1)):
        p = Proof(nseq((P,), P, (EMPTY,) * k), "d", {"at": "r"}, (p,))
    return p


def test_writer_bound_round_trips_and_refuses_one_level_more():
    p = d_chain(MAX_PROOF_HEIGHT)
    assert p.height() == MAX_PROOF_HEIGHT
    text = dump_proof(p)
    back = load_nested_proof(text)
    assert back.height() == MAX_PROOF_HEIGHT and dump_proof(back) == text
    assert check_nested(back, axiom_set(d=True))
    with pytest.raises(ValueError, match="proof is nested too deeply to write"):
        dump_proof(d_chain(MAX_PROOF_HEIGHT + 1))


def chain_text(conclusion: str, height: int) -> str:
    """A proof file of the given height, every node concluding conclusion."""
    c = json.dumps(conclusion)
    head = f'{{"rule": "d", "conclusion": {c}, "params": {{}}, "premises": [' * (height - 1)
    leaf = f'{{"rule": "id", "conclusion": {c}, "params": {{}}, "premises": []}}'
    return head + leaf + "]}" * (height - 1)


def test_loaders_refuse_what_the_writer_refuses():
    """The loaders read a file up to MAX_PROOF_HEIGHT levels and refuse
    one level more, though json.loads reads it."""
    for load, conclusion in ((load_nested_proof, "p^i, p^o"),
                             (load_labelled_proof, "; w: p |- w: p")):
        assert load(chain_text(conclusion, MAX_PROOF_HEIGHT)).height() == MAX_PROOF_HEIGHT
        taller = chain_text(conclusion, MAX_PROOF_HEIGHT + 1)
        json.loads(taller)
        with pytest.raises(ValueError, match="proof file is nested too deeply to read"):
            load(taller)


def test_shared_brackets_load_as_each_text_parses_alone():
    """A bracket text repeated in a file, at one depth and at two, loads
    as parse_nested reads each conclusion alone, and past MAX_NESTING at
    its deeper place fails as parse_nested fails."""
    deep = "[ " * (MAX_NESTING - 1) + "q^i" + " ]" * (MAX_NESTING - 1)
    texts = [f"p^o, [ r^i, {deep} ], {deep}", f"[ r^i, {deep} ], p^o, {deep}",
             f"p^i, [ r^i, {deep} ]"]

    def node(k):
        return {"rule": "x", "conclusion": texts[k], "params": {},
                "premises": [node(k + 1)] if k + 1 < len(texts) else []}

    p = load_nested_proof(json.dumps(node(0)))
    for q, text in zip(p.nodes(), texts):
        alone = parse_nested(text)
        assert str(q.conclusion) == str(alone) and q.conclusion == alone
    # the same inner text one level deeper breaks the limit in both readers
    too_deep = dict(node(0), premises=[{"rule": "x", "conclusion": f"[ {texts[2]} ]",
                                        "params": {}, "premises": []}])
    with pytest.raises(ParseError) as alone:
        parse_nested(too_deep["premises"][0]["conclusion"])
    with pytest.raises(ParseError) as shared:
        load_nested_proof(json.dumps(too_deep))
    assert str(shared.value) == str(alone.value)
