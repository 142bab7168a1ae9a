"""JSON serialization for proof trees.

One node is {"rule", "conclusion", "params", "premises"}; conclusions
are sequent strings in the calculus's text syntax and params are
JSON-plain already.  Loading re-parses the strings, so dump then load
reproduces the proof and load then dump is bit-exact up to whitespace.
"""

from __future__ import annotations

import json

from .labelled import parse_labelled_sequent
from .nested import parse_nested
from .proof import Proof


def proof_to_dict(p) -> dict:
    if not isinstance(p, Proof):
        raise ValueError(f"not a proof object: {type(p).__name__}")
    out: list = []
    todo = [(p, out)]  # (proof, list its dict joins), first premise on top
    while todo:
        q, siblings = todo.pop()
        d = {"rule": q.rule, "conclusion": str(q.conclusion), "params": dict(q.params),
             "premises": []}
        siblings.append(d)
        todo.extend((s, d["premises"]) for s in reversed(q.premises))
    return out[0]


def _from_dict(root, parse) -> Proof:
    """Validate and parse the nodes in preorder, then build the proofs
    bottom-up, with explicit stacks."""
    order = []  # (node dict, parsed conclusion), preorder
    todo = [root]
    while todo:
        d = todo.pop()
        if not isinstance(d, dict):
            raise ValueError("proof node must be a JSON object")
        missing = {"rule", "conclusion", "params", "premises"} - d.keys()
        if missing:
            raise ValueError(f"proof node lacks {sorted(missing)}")
        if not isinstance(d["rule"], str):
            raise ValueError("rule must be a string")
        if not isinstance(d["conclusion"], str):
            raise ValueError("conclusion must be a sequent string")
        if not isinstance(d["params"], dict):
            raise ValueError("params must be an object")
        if not isinstance(d["premises"], list):
            raise ValueError("premises must be a list")
        order.append((d, parse(d["conclusion"])))
        todo.extend(reversed(d["premises"]))
    # in reverse preorder a node's premises are the top of `built`, first on top
    built: list = []
    for d, conclusion in reversed(order):
        premises = tuple(built.pop() for _ in d["premises"])
        built.append(Proof(conclusion, d["rule"], d["params"], premises))
    return built[0]


def _load(text: str, parse) -> Proof:
    try:
        root = json.loads(text)
    except RecursionError:
        raise ValueError("proof file is nested too deeply to read") from None
    return _from_dict(root, parse)


def dump_proof(p) -> str:
    d = proof_to_dict(p)
    try:
        return json.dumps(d, indent=2) + "\n"
    except RecursionError:
        raise ValueError("proof is nested too deeply to write") from None


def load_labelled_proof(text: str) -> Proof:
    return _load(text, parse_labelled_sequent)


def load_nested_proof(text: str) -> Proof:
    return _load(text, parse_nested)
