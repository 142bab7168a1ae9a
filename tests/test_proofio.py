import json
import random

import pytest

from imseq.formula import axiom_set
from imseq.gen import random_labelled_proof
from imseq.labelled import check_labelled
from imseq.nested import check_nested
from imseq.proofio import (dump_proof, load_labelled_proof, load_nested_proof,
                           proof_to_dict)
from imseq.translate import translate_proof


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
