"""Proof trees and the checker walk shared by both calculi.

A proof is a tree of rule instances in either calculus: a node names
its conclusion, its rule, its explicit params and its premise proofs.
The calculi differ only in their sequents and in the function that
computes the premises of one backward rule application, so one walk
checks both, and one walk (rebuild) carries every proof rewrite;
checked_rebuild does both in one pass.  Every walk here uses an
explicit stack, so proof height is bounded by memory, not by the
interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Formula, ParseError, parse_formula
from .grammar import PropPath


class RuleError(ValueError):
    """A rule application that does not match its scheme."""


class lazy_attribute:
    """A method read as an attribute: computed on first read and stored
    in the instance's __dict__, where later reads find it at C speed.

    Unlike functools.cached_property in Python 3.11 it takes no lock, so
    two threads may both compute a value; the values here are pure
    functions of immutable instances, so either result serves.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class Proof:
    conclusion: object  # LabelledSequent or NestedSequent
    rule: str
    params: dict
    premises: tuple     # of Proof

    def height(self) -> int:
        h = 0
        level = [self]
        while level:
            h += 1
            level = [q for p in level for q in p.premises]
        return h

    def nodes(self):
        """Every node in preorder, premises left to right."""
        stack = [self]
        while stack:
            p = stack.pop()
            yield p
            stack.extend(reversed(p.premises))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    message: str = ""
    at: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _p_str(params: dict, key: str) -> str:
    v = params.get(key)
    if not isinstance(v, str) or not v:
        raise RuleError(f"param {key!r} must be a nonempty string")
    return v


def _p_int(params: dict, key: str) -> int:
    v = params.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise RuleError(f"param {key!r} must be a nonnegative integer")
    return v


def _p_formula(params: dict, key: str) -> Formula:
    v = params.get(key)
    if not isinstance(v, str):
        raise RuleError(f"param {key!r} must be a formula string")
    try:
        return parse_formula(v)
    except ParseError as e:
        raise RuleError(f"param {key!r}: {e}") from e


def _p_chain(params: dict, key: str, length: int) -> list:
    v = params.get(key)
    if not isinstance(v, list) or len(v) != length or not all(
            isinstance(x, str) and x for x in v):
        raise RuleError(f"param {key!r} must list {length} labels")
    return v


def _p_path(params: dict, key: str) -> PropPath:
    v = params.get(key)
    if not isinstance(v, list):
        raise RuleError(f"param {key!r} must be a path list")
    if not all(isinstance(x, str) and x for x in v[0::2]):
        raise RuleError(f"param {key!r} must name its nodes by nonempty strings")
    try:
        return PropPath.from_list(v)
    except ValueError as e:
        raise RuleError(f"param {key!r}: {e}") from e


def _check_node(node: Proof, at: str, came_from, premises_fn, allowed,
                refusal: str, with_reading: bool = False):
    """One node's step of check: the premises premises_fn computes for
    the node, or the failing CheckResult.

    at is the node's address ("" at the root).  came_from is (parent
    rule, premise index, computed conclusion) when the node's conclusion
    still has to be compared with the one its parent computed, else None.
    with_reading says that premises_fn returns (premises, reading), and
    then so does this.
    """
    if came_from is not None and node.conclusion != came_from[2]:
        parent_rule, i, want = came_from
        return CheckResult(
            False,
            f"{parent_rule}: premise {i} is {node.conclusion}, expected {want}",
            at.rpartition(".")[0] or "root")
    where = at or "root"
    if node.rule not in allowed:
        return CheckResult(False, refusal.format(node.rule), where)
    try:
        got = premises_fn(node.conclusion, node.rule, node.params)
    except RuleError as e:
        return CheckResult(False, f"{node.rule}: {e}", where)
    expected = got[0] if with_reading else got
    if len(node.premises) != len(expected):
        return CheckResult(
            False,
            f"{node.rule}: expected {len(expected)} premises, got {len(node.premises)}",
            where)
    return got


def check(proof: Proof, premises_fn, allowed, refusal: str) -> CheckResult:
    """Validate every node: its rule is allowed, premises_fn accepts the
    instance, and the premise proofs conclude the computed premises.

    premises_fn(conclusion, rule, params) returns the premise sequents
    or raises RuleError; refusal formats the message for a rule outside
    allowed.  Nodes are visited in preorder and the first failure is
    reported at its address ("root", "0", "0.1", ...).  A premise whose
    conclusion is not the computed one fails at its parent, after the
    subtrees of the earlier premises have checked.
    """
    stack = [(proof, "", None)]  # (node, address, came_from)
    while stack:
        node, at, came_from = stack.pop()
        expected = _check_node(node, at, came_from, premises_fn, allowed, refusal)
        if isinstance(expected, CheckResult):
            return expected
        prefix = f"{at}." if at else ""
        for j in reversed(range(len(expected))):
            stack.append((node.premises[j], f"{prefix}{j}", (node.rule, j, expected[j])))
    return CheckResult(True)


def rebuild(proof: Proof, visit, state=None) -> Proof:
    """Rewrite a proof top-down, with explicit stacks.

    visit(node, state) returns either a finished Proof, which replaces
    the node's whole subtree, or (conclusion, rule, params, [(premise,
    state), ...]): the node's new instance, whose listed premise proofs
    are then rebuilt in order, each with its own state.  Nodes are
    visited in preorder, premises left to right.
    """
    order = []  # finished Proof or (conclusion, rule, params, premise count)
    todo = [(proof, state)]
    while todo:
        node, st = todo.pop()
        out = visit(node, st)
        if isinstance(out, Proof):
            order.append(out)
            continue
        conclusion, rule, params, premises = out
        order.append((conclusion, rule, params, len(premises)))
        todo.extend(reversed(premises))
    # in reverse preorder a node's premises are the top of `built`, first on top
    built: list = []
    for item in reversed(order):
        if not isinstance(item, Proof):
            conclusion, rule, params, n = item
            item = Proof(conclusion, rule, params, tuple(built.pop() for _ in range(n)))
        built.append(item)
    return built[0]


def checked_rebuild(proof: Proof, premises_fn, allowed, refusal: str,
                    visit, fits, state=None) -> Proof:
    """rebuild that checks the proof it walks as check does, and raises
    ValueError naming the first failure in preorder with check's message.

    premises_fn(conclusion, rule, params) returns (premises, reading):
    the premise sequents and the instance as the caller read it, or
    raises RuleError.  visit(node, premises, reading, refit, state)
    returns (conclusion, rule, params, [state, ...]), one state per
    premise.  A premise's stored conclusion that fits(stored, computed)
    skips the comparison with the computed one; refit is that computed
    conclusion when the stored one did not fit, and None when it did
    and at the root.
    """
    def step(node: Proof, st) -> tuple:
        at, came_from, inner = st
        fit = came_from is None or fits(node.conclusion, came_from[2])
        got = _check_node(node, at, None if fit else came_from,
                          premises_fn, allowed, refusal, with_reading=True)
        if isinstance(got, CheckResult):
            raise ValueError(f"input proof fails the checker at {got.at}: {got.message}")
        got, reading = got
        conclusion, rule, params, states = visit(
            node, got, reading, None if fit else came_from[2], inner)
        prefix = f"{at}." if at else ""
        return conclusion, rule, params, [
            (sub, (f"{prefix}{j}", (node.rule, j, got[j]), s))
            for j, (sub, s) in enumerate(zip(node.premises, states))]

    return rebuild(proof, step, ("", None, state))
