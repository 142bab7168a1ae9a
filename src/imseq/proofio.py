"""JSON serialization for proof trees.

One node is {"rule", "conclusion", "params", "premises"}; conclusions
are sequent strings in the calculus's text syntax and params are
JSON-plain already.  Loading re-parses the strings, so dump then load
reproduces the proof and load then dump is bit-exact up to whitespace.
The writer's output is ``json.dumps(proof_to_dict(p), indent=2)`` plus
a newline, byte for byte, for proofs up to MAX_PROOF_HEIGHT levels; the
writer and the loaders refuse a taller proof.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .labelled import parse_labelled_sequent
from .nested import _parse_node
from .proof import Proof


# The tallest proof dump_proof writes and the loaders read.  A proof of
# height h nests 2h JSON containers, and json.loads recurses once per
# container on top of its caller's frames, under Python's default limit
# of 1000: called from the top of a program it reads 496 levels of a
# d-chain, and each frame of its caller costs half a level (from a
# pytest test body, 34 frames down, it reads 477).  This bound leaves
# the caller about 90 frames, and a file taller than it is refused
# whether or not json.loads could read it.
MAX_PROOF_HEIGHT = 450


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
    todo = [(root, 1)]  # (node dict, its height from the root)
    while todo:
        d, depth = todo.pop()
        if depth > MAX_PROOF_HEIGHT:
            raise ValueError("proof file is nested too deeply to read")
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
        todo.extend((e, depth + 1) for e in reversed(d["premises"]))
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


def _newline(level: int) -> str:
    """A line break and the indent of JSON nesting level level."""
    return "\n" + "  " * level


def dump_proof(p) -> str:
    """The proof as indented JSON; ValueError for a proof taller than
    MAX_PROOF_HEIGHT, which the loaders refuse.

    Written from an explicit stack, with the C string encoder; a params
    value that is not a string, an int or a list of strings is written
    by json.dumps and indented in place.
    """
    if not isinstance(p, Proof):
        raise ValueError(f"not a proof object: {type(p).__name__}")
    out: list = []
    todo: list = [(p, 0)]  # (proof, its depth) or text, next on top
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        q, depth = item
        if depth == MAX_PROOF_HEIGHT:
            raise ValueError("proof is nested too deeply to write")
        at, inner, deeper = map(_newline, range(2 * depth, 2 * depth + 3))
        params = q.params if type(q.params) is dict else dict(q.params)
        out.append(f'{{{inner}"rule": {_value(q.rule, 2 * depth + 1)},'
                   f'{inner}"conclusion": {encode_basestring_ascii(str(q.conclusion))},'
                   f'{inner}"params": {_params(params, 2 * depth + 1)},'
                   f'{inner}"premises": ')
        if not q.premises:
            out.append(f"[]{at}}}")
            continue
        out.append("[" + deeper)
        todo.append(f"{inner}]{at}}}")
        for j in reversed(range(len(q.premises))):
            todo.append((q.premises[j], depth + 1))
            if j:
                todo.append("," + deeper)
    out.append("\n")
    return "".join(out)


def _params(params: dict, level: int) -> str:
    """A params object at JSON nesting level level, as json.dumps with
    indent=2 writes it there."""
    if not params:
        return "{}"
    if not all(type(k) is str for k in params):
        return _value(params, level)
    inner = _newline(level + 1)
    items = [f"{encode_basestring_ascii(k)}: {_value(v, level + 1)}"
             for k, v in params.items()]
    return "{" + inner + ("," + inner).join(items) + _newline(level) + "}"


def _value(v, level: int) -> str:
    """A JSON value at nesting level level, as json.dumps with indent=2
    writes it there."""
    if type(v) is str:
        return encode_basestring_ascii(v)
    if type(v) is int:
        return int.__repr__(v)
    if type(v) is list and v and all(type(x) is str for x in v):
        inner = _newline(level + 1)
        return ("[" + inner + ("," + inner).join(map(encode_basestring_ascii, v))
                + _newline(level) + "]")
    try:
        text = json.dumps(v, indent=2)
    except RecursionError:
        raise ValueError("proof is nested too deeply to write") from None
    return text.replace("\n", _newline(level))


def load_labelled_proof(text: str) -> Proof:
    return _load(text, parse_labelled_sequent)


def load_nested_proof(text: str) -> Proof:
    """The nested proof in text.  Each bracket text of the file is parsed
    once per depth; its nodes are shared by every conclusion that holds
    it."""
    memo: dict = {}
    return _load(text, lambda conclusion: _parse_node(conclusion, 0, memo))
