"""Nested sequents with input/output polarities, checker, and search.

A nested sequent is a tree of multisets: each node holds input formulas
(``A^i``), at most one node in the whole tree holds the single output
formula (``A^o``), and brackets are subtrees.  Equality is recursive
multiset equality; stored order is kept for serialization and for
addressing, so positions stay meaningful under the structural
transformations (rules only append children, never reorder them).

Equality and hashing go through a node's class: one live token per
equality class, interned as formulas are, from the node's formulas and
its children's classes.  A node computes its class when first compared
or hashed, so ``==`` costs a pointer comparison after that and the
search builds no class for a node it never keys.

Nodes are addressed by child-index paths rendered as ``r``, ``r.0``,
``r.0.1``.  The propagation graph of a sequent has one node per tree
position and a forward/backward edge pair per bracket.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import attrgetter
from typing import Iterable, Optional

from .formula import (BOT, MAX_NESTING, Atom, AxiomSet, Bot, Box, Dia, Formula,
                      Imp, And, Or, ParseError, parse_formula, render_formula,
                      subformulas)
from .grammar import (Grammar, PropGraph, PropPath, Sym, _Saturator, derives,
                      grammar_from_axioms, graph_from_pairs, reach_masks)
from .models import (ONE_WORLD_BITS, _goal_formulas, _one_world_valuation,
                     _two_world_candidate, one_world_countermodel)
from .proof import (CheckResult, Proof, RuleError, _p_int, _p_path, _p_str, check,
                    lazy_attribute)


class _Class:
    """The token of one equality class of nested sequents."""

    __slots__ = ("__weakref__",)


# (inputs by id, output, child classes by id) -> a weak reference to the
# live token of the class.  The key holds its formulas and child tokens,
# so none of their ids is reused while the entry lives.  A token is made
# under the lock, and its entry goes when it dies, by the atomic removal
# WeakValueDictionary uses, which keeps an entry that a new token for
# the same key has taken over.  A plain dict of plain references costs a
# third of a WeakValueDictionary's time per class.
_CLASSES: dict = {}
_MAKING = threading.Lock()
_class_of = attrgetter("_cls")


def _class_dead(key: tuple, ref: weakref.ref):
    _remove_dead_weakref(_CLASSES, key)


def _intern_class(key: tuple) -> _Class:
    ref = _CLASSES.get(key)
    c = None if ref is None else ref()
    if c is None:
        with _MAKING:
            ref = _CLASSES.get(key)
            c = None if ref is None else ref()
            if c is None:
                c = _Class()
                _CLASSES[key] = weakref.ref(c, partial(_class_dead, key))
    return c


def _multiset(items) -> tuple:
    """A multiset of objects compared by identity, as the tuple of its
    items sorted by id."""
    items = tuple(items)
    return tuple(sorted(items, key=id)) if len(items) > 1 else items


@dataclass(frozen=True, eq=False, init=False)
class NestedSequent:
    inputs: tuple    # of Formula
    output: Optional[Formula]
    children: tuple  # of NestedSequent

    def __init__(self, inputs: tuple, output: Optional[Formula], children: tuple):
        # the frozen dataclass's own __init__ sets each field through
        # object.__setattr__, at twice the cost of writing __dict__
        d = self.__dict__
        d["inputs"] = inputs
        d["output"] = output
        d["children"] = children

    @lazy_attribute
    def _cls(self) -> _Class:
        """The node's class: equal nodes, and only they, share it."""
        return _intern_class((_multiset(self.inputs), self.output,
                              _multiset(map(_class_of, self.children))))

    @lazy_attribute
    def _key(self) -> tuple:
        """Rendered items, sorted: a class's text, which orders output."""
        return (
            tuple(sorted(render_formula(f) for f in self.inputs)),
            "" if self.output is None else "o " + render_formula(self.output),
            tuple(sorted(c._key for c in self.children)),
        )

    def __eq__(self, other):
        if not isinstance(other, NestedSequent):
            return NotImplemented
        if "_cls" in self.__dict__ and "_cls" in other.__dict__:
            return self._cls is other._cls
        # equal in stored order is equal as multisets, with no class built
        return ((self.inputs == other.inputs and self.output is other.output
                 and self.children == other.children) or self._cls is other._cls)

    def __hash__(self):
        return hash(self._cls)

    def __reduce__(self):
        # a copy interns its own class; the stored one would not be shared
        return type(self), (self.inputs, self.output, self.children)

    def __str__(self) -> str:
        return render_nested(self)


EMPTY = NestedSequent((), None, ())


def nseq(inputs: Iterable = (), output: Optional[Formula] = None,
         children: Iterable = ()) -> NestedSequent:
    return NestedSequent(tuple(inputs), output, tuple(children))


def output_count(s: NestedSequent) -> int:
    return (s.output is not None) + sum(output_count(c) for c in s.children)


def is_full(s: NestedSequent) -> bool:
    return output_count(s) == 1


def output_position(s: NestedSequent) -> Optional[tuple]:
    """(path, formula) of the unique output, or None."""
    if s.output is not None:
        return ((), s.output)
    for i, c in enumerate(s.children):
        found = output_position(c)
        if found is not None:
            return ((i,) + found[0], found[1])
    return None


def render_nested(s: NestedSequent) -> str:
    items = [f"{render_formula(f)}^i" for f in s.inputs]
    if s.output is not None:
        items.append(f"{render_formula(s.output)}^o")
    for c in s.children:
        inner = render_nested(c)
        items.append(f"[ {inner} ]" if inner else "[ ]")
    return ", ".join(items)


_DELIMITERS = re.compile(r"[\[\],]")


def _split_items(text: str) -> list:
    """The top-level items of text, stripped and nonempty, each as (item,
    whether it is one bracket: its first '[' closes at its last
    character)."""
    items: list = []
    depth = start = 0
    close = -1  # where the current item's first top-level bracket closed
    for m in _DELIMITERS.finditer(text):
        i = m.start()
        ch = text[i]
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'", i)
            if depth == 0 and close < start:
                close = i
        elif depth == 0:
            _add_item(items, text, start, i, close)
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '['")
    _add_item(items, text, start, len(text), close)
    return items


def _add_item(items: list, text: str, start: int, end: int, close: int):
    item = text[start:end]
    body = item.strip()
    if body:
        items.append((body, body[0] == "[" and close == start + len(item.rstrip()) - 1))


def parse_nested(text: str) -> NestedSequent:
    """Parse sequent text; ParseError on bad syntax or past MAX_NESTING
    bracket levels."""
    return _parse_node(text, 0, None)


def _parse_node(text: str, depth: int, memo: Optional[dict]) -> NestedSequent:
    """The node that text describes, read at bracket depth depth.  memo,
    when not None, is a dict that related parses share (those of one
    proof file): a text read before at the same depth is answered from
    it, as the same node; keyed by depth too, errors past MAX_NESTING
    stay those of a parse alone."""
    if memo is not None:
        node = memo.get((text, depth))
        if node is not None:
            return node
    inputs = []
    output = None
    children = []
    for item, bracket in _split_items(text):
        if bracket:
            if depth == MAX_NESTING:
                raise ParseError(f"sequent nested deeper than {MAX_NESTING} bracket levels")
            children.append(_parse_node(item[1:-1], depth + 1, memo))
            continue
        if "^" not in item:
            raise ParseError(f"formula item needs a ^i or ^o marker: {item!r}")
        body, _, pol = item.rpartition("^")
        if pol == "i":
            inputs.append(parse_formula(body))
        elif pol == "o":
            if output is not None:
                raise ParseError("two output formulas at one node")
            output = parse_formula(body)
        else:
            raise ParseError(f"bad polarity marker {pol!r} in {item!r}")
    node = NestedSequent(tuple(inputs), output, tuple(children))
    if memo is not None:
        memo[text, depth] = node
    return node


def path_id(path: tuple) -> str:
    return "r" + "".join(f".{i}" for i in path)


# exactly the ids path_id writes: ASCII digits, with no leading zero
_PATH_ID = re.compile(r"r(?:\.(?:0|[1-9][0-9]*))*")


def parse_path_id(text: str) -> tuple:
    if _PATH_ID.fullmatch(text) is None:
        raise ValueError(f"bad node id {text!r}")
    return tuple(map(int, text.split(".")[1:]))


def node_at(s: NestedSequent, path: tuple) -> NestedSequent:
    for i in path:
        if not 0 <= i < len(s.children):
            raise ValueError(f"no child {i} under {path_id(path)}")
        s = s.children[i]
    return s


def match_children(a: NestedSequent, b: NestedSequent) -> list:
    """For each child of a, the index of an equal child of b.

    Greedy: each child takes the first unused equal child of b.  Equal
    siblings are interchangeable, so any such matching is sound.
    ValueError if some child of a has no partner.
    """
    free: dict = {}  # class -> unused indices into b, first on top
    for j in reversed(range(len(b.children))):
        free.setdefault(b.children[j]._cls, []).append(j)
    out = []
    for c in a.children:
        spare = free.get(c._cls)
        if not spare:
            raise ValueError("bracket trees do not align")
        out.append(spare.pop())
    return out


def _positions(s: NestedSequent, path: tuple = (),
               out: Optional[list] = None) -> list:
    """(path, node) for every node: preorder, children in order."""
    if out is None:
        out = []
    out.append((path, s))
    for i, c in enumerate(s.children):
        _positions(c, path + (i,), out)
    return out


def all_paths(s: NestedSequent) -> list:
    return [path for path, _ in _positions(s)]


def replace_at(s: NestedSequent, path: tuple, new: NestedSequent) -> NestedSequent:
    if not path:
        return new
    i = path[0]
    if not 0 <= i < len(s.children):
        raise ValueError(f"no child {i}")
    kids = s.children[:i] + (replace_at(s.children[i], path[1:], new),) + s.children[i + 1:]
    return NestedSequent(s.inputs, s.output, kids)


def map_node(s: NestedSequent, path: tuple, fn) -> NestedSequent:
    return replace_at(s, path, fn(node_at(s, path)))


def prop_graph_nested(s: NestedSequent) -> PropGraph:
    """A forward edge from each node to each child, and a backward one back."""
    pairs = [(path_id(p[:-1]), path_id(p)) for p in all_paths(s)[1:]]
    return graph_from_pairs(pairs, extra_nodes=(path_id(()),))


NestedProof = Proof

NESTED_RULES = frozenset({
    "botI", "id", "andI", "andO", "orI", "orO", "impO", "impI",
    "boxO", "diaI", "d", "pdia", "pbox",
})


def _p_id(seq: NestedSequent, raw: str) -> tuple:
    """The address a node id names in seq, or RuleError."""
    try:
        path = parse_path_id(raw)
        node_at(seq, path)
    except ValueError as e:
        raise RuleError(str(e)) from e
    return path


def _p_node(seq: NestedSequent, params: dict) -> tuple:
    return _p_id(seq, _p_str(params, "at"))


def _p_input(seq: NestedSequent, params: dict, path: tuple, cls=None):
    idx = _p_int(params, "index")
    node = node_at(seq, path)
    if idx >= len(node.inputs):
        raise RuleError(f"no input {idx} at {path_id(path)}")
    f = node.inputs[idx]
    if cls is not None and not isinstance(f, cls):
        raise RuleError(f"input {render_formula(f)!r} has the wrong main connective")
    return idx, f


# A node edit (path, idx, fs, out, kid) rewrites the node at path: the
# input at idx becomes fs[0] and the rest of fs is appended (with idx
# None, all of fs is appended), the output becomes out unless out is
# _KEEP, and kid, unless None, is appended as a new bracket.  Edits only
# append children, so every node keeps its address.
_KEEP = object()


def _edit(path: tuple, idx: Optional[int] = None, fs: tuple = (),
          out=_KEEP, kid: Optional[NestedSequent] = None) -> tuple:
    return path, idx, fs, out, kid


def _edited(nd: NestedSequent, idx: Optional[int], fs: tuple, out,
            kid: Optional[NestedSequent]) -> NestedSequent:
    inputs = nd.inputs
    if idx is not None:
        inputs = inputs[:idx] + fs[:1] + inputs[idx + 1:] + fs[1:]
    elif fs:
        inputs += fs
    return NestedSequent(inputs, nd.output if out is _KEEP else out,
                         nd.children if kid is None else nd.children + (kid,))


def _is_edge(a: tuple, c: Sym, b: tuple) -> bool:
    """Whether a -c-> b is an edge of a sequent's propagation graph:
    forward from a node to a child, backward from a child to its node."""
    parent, child = (a, b) if c is Sym.FWD else (b, a)
    return len(child) == len(parent) + 1 and child[:-1] == parent


def _premise_edits(seq: NestedSequent, rule: str, at: tuple, index: Optional[int],
                   f: Optional[Formula], target: Optional[tuple]) -> tuple:
    """The rule table: for each premise of a backward application, the
    node edits that make it from seq, applied in order.

    at is the principal node's path (for pdia/pbox the path's start and
    target its end), index the principal input's position (for orO the
    disjunct kept: 0 left, 1 right) and f the principal formula.  No
    condition is checked: premises_of_nested checks them first, and the
    prover builds only applications that meet them.  read_nested reads
    these arguments from a rule instance's params.
    """
    if rule in ("botI", "id"):
        return ()
    if rule == "andI":
        return ((_edit(at, index, (f.left, f.right)),),)
    if rule == "andO":
        return (_edit(at, out=f.left),), (_edit(at, out=f.right),)
    if rule == "orI":
        return (_edit(at, index, (f.left,)),), (_edit(at, index, (f.right,)),)
    if rule == "orO":
        return ((_edit(at, out=f.right if index else f.left),),)
    if rule == "impO":
        return ((_edit(at, fs=(f.left,), out=f.right),),)
    if rule == "impI":
        return ((_edit(output_position(seq)[0], out=None), _edit(at, out=f.left)),
                (_edit(at, index, (f.right,)),))
    if rule == "boxO":
        return ((_edit(at, out=None, kid=nseq(output=f.body)),),)
    if rule == "diaI":
        return ((_edit(at, index, kid=nseq(inputs=(f.body,))),),)
    if rule == "d":
        return ((_edit(at, kid=EMPTY),),)
    if rule == "pdia":
        return ((_edit(at, out=None), _edit(target, out=f.body)),)
    # pbox
    return ((_edit(target, fs=(f.body,)),),)


def _applied(seq: NestedSequent, edits: tuple) -> NestedSequent:
    """The premise that one premise's edits make from seq."""
    for path, idx, fs, out, kid in edits:
        seq = replace_at(seq, path, _edited(node_at(seq, path), idx, fs, out, kid))
    return seq


def _premises(seq: NestedSequent, rule: str, at: tuple, index: Optional[int],
              f: Optional[Formula], target: Optional[tuple]) -> list:
    """Premises of a backward application, trusting its arguments, which
    are _premise_edits' arguments."""
    return [_applied(seq, edits)
            for edits in _premise_edits(seq, rule, at, index, f, target)]


# main connective of the principal input, and of the principal output
_INPUT_RULES = {"botI": Bot, "id": Atom, "andI": And, "orI": Or, "impI": Imp,
                "diaI": Dia}
_OUTPUT_RULES = {"andO": (And, "a conjunctive"), "orO": (Or, "a disjunctive"),
                 "impO": (Imp, "an implicative"), "boxO": (Box, "a box")}


def read_nested(seq: NestedSequent, rule: str, params: dict) -> tuple:
    """(at, index, f, target) of a rule instance, as _premises takes them.

    RuleError if the params do not address a principal the rule applies
    to.  No side condition is checked: not the d gate, and of a pdia/pbox
    walk only the two ends are read, not whether it lies in the
    sequent's graph or its string derives from the forward letter.
    """
    index = f = target = None
    if rule in _INPUT_RULES:
        at = _p_node(seq, params)
        index, f = _p_input(seq, params, at, _INPUT_RULES[rule])
        if rule == "id" and node_at(seq, at).output != f:
            raise RuleError("id needs the matching atomic output at the same node")
        if rule == "impI" and not is_full(seq):
            raise RuleError("impI needs a full conclusion to prune")
    elif rule in _OUTPUT_RULES:
        at = _p_node(seq, params)
        f = node_at(seq, at).output
        cls, kind = _OUTPUT_RULES[rule]
        if not isinstance(f, cls):
            raise RuleError(f"{rule} needs {kind} output at the node")
        if rule == "orO":
            side = _p_str(params, "side")
            if side not in ("left", "right"):
                raise RuleError("param 'side' must be 'left' or 'right'")
            index = int(side == "right")
    elif rule == "d":
        at = _p_node(seq, params)
    elif rule in ("pdia", "pbox"):
        path = _p_path(params, "path")
        at, target = _p_id(seq, path.start), _p_id(seq, path.end)
        node = node_at(seq, at)
        if rule == "pdia":
            f = node.output
            if not isinstance(f, Dia):
                raise RuleError("pdia needs a diamond output at the path's start")
        else:
            index = _p_int(params, "index")
            if index >= len(node.inputs) or not isinstance(node.inputs[index], Box):
                raise RuleError("pbox needs a box input at the path's start")
            f = node.inputs[index]
    else:
        raise RuleError(f"unknown rule {rule!r}")
    return at, index, f, target


def read_walk(seq: NestedSequent, params: dict) -> PropPath:
    """A pdia/pbox instance's walk with its nodes as addresses, or
    RuleError if a node id names no node of seq."""
    path = _p_path(params, "path")
    return PropPath._trusted(tuple(_p_id(seq, v) for v in path.nodes), path.steps)


def read_nested_checked(seq: NestedSequent, rule: str, params: dict,
                        ax: AxiomSet) -> tuple:
    """(read_nested's reading, walk) of a rule instance, or RuleError,
    after the side conditions: d needs seriality; a pdia/pbox walk, read
    by read_walk, must lie in the sequent's graph and its string derive
    from the forward letter.  walk is None for the other rules."""
    if rule == "d" and not ax.has_d:
        raise RuleError("rule d needs the seriality axiom")
    walk = None
    if rule in ("pdia", "pbox"):
        walk = read_walk(seq, params)
        if not all(map(_is_edge, walk.nodes, walk.steps, walk.nodes[1:])):
            raise RuleError("path does not lie in the sequent's graph")
        if not derives(grammar_from_axioms(ax), Sym.FWD, walk.steps):
            raise RuleError(f"path string {walk.string!r} not derivable "
                            "from the forward letter")
    return read_nested(seq, rule, params), walk


def premises_of_nested(seq: NestedSequent, rule: str, params: dict,
                       ax: AxiomSet) -> list:
    """Premises of a backward application at the given addresses, or
    RuleError.

    Reads the instance with read_nested_checked, which checks every
    condition, and computes the premises with _premises.
    """
    return _premises(seq, rule, *read_nested_checked(seq, rule, params, ax)[0])


def check_nested(p: NestedProof, ax: AxiomSet) -> CheckResult:
    """Validate every node of the proof against the nested rules."""
    return check(p,
                 lambda seq, rule, params: premises_of_nested(seq, rule, params, ax),
                 NESTED_RULES, "unknown rule {!r}")


def _node_leaf(node: NestedSequent) -> Optional[tuple]:
    """(rule, index) of node's first input that closes it, botI on false
    and id on the atom that is its output, or None."""
    ins = node.inputs
    out = node.output
    # most nodes close by neither: the containment tests run at C speed
    if not (BOT in ins or type(out) is Atom and out in ins):
        return None
    for idx, f in enumerate(ins):
        if isinstance(f, Bot):
            return "botI", idx
        if f is out and isinstance(f, Atom):
            return "id", idx
    return None


def _leaf_proof(seq: NestedSequent, path: tuple, rule: str, idx: int) -> NestedProof:
    return NestedProof(seq, rule, {"at": path_id(path), "index": idx}, ())


def _try_leaf(seq: NestedSequent, positions: list) -> Optional[NestedProof]:
    """The leaf proof of seq at its first closing node in preorder, or
    None."""
    for path, node in positions:
        leaf = _node_leaf(node)
        if leaf is not None:
            return _leaf_proof(seq, path, *leaf)
    return None


def _local_leaf(seq: NestedSequent, edits: tuple) -> Optional[tuple]:
    """(path, rule, index) of the leaf that closes the premise edits make
    from seq, or None, read off its touched node alone.

    The touched node is the one that gains an input or an output: the
    principal of andI, andO, orI, orO, impO and impI, the walk's target
    of pdia and pbox, and diaI's new bracket.  Each premise has at most
    one; boxO's new bracket gains an output but no input, and boxO and
    d touch no node.  seq must be no leaf: then no untouched node of
    the premise is one, since a node that lost formulas or gained only
    a bracket holds no leaf it did not hold in seq, and the touched
    node's first closing input is the one _try_leaf finds in the built
    premise.  The touched node closes only by what its edit adds: false
    as an input, the node's output as an input, or as the output an
    atom among its inputs.  So a premise whose edits add none of these
    is answered from them, with no node built; otherwise only the
    touched node is built, with the premise's formulas there and seq's
    brackets.
    """
    for path, _, fs, out, kid in edits:
        if kid is not None:
            fs = kid.inputs
        if BOT in fs:
            break
        if out is _KEEP:
            if fs and node_at(seq, path).output in fs:
                break
        elif isinstance(out, Atom) and (out in fs or out in node_at(seq, path).inputs):
            break
    else:
        return None
    if kid is not None:
        node = kid
        path += (len(node_at(seq, path).children),)
    else:
        node = node_at(seq, path)
        for e in edits:
            if e[0] == path:
                node = _edited(node, *e[1:])
    leaf = _node_leaf(node)
    return None if leaf is None else (path,) + leaf


def _closable(seq: NestedSequent) -> bool:
    """Whether some rule application to seq, which is full and no leaf,
    may close each of its premises in one step; False only if none does.

    A premise closes only at the node its rule touched (_local_leaf), by
    what the rule adds there: false, or the atom that is the node's
    output, as an input (andI, orI, impI's second premise, diaI's new
    bracket, pbox's target), or as the output an atom among the node's
    inputs (impO, andO, orO, impI's first premise, pdia's target; impO
    adds an input too).  boxO and d never close in one step.  Every
    node is taken as a pdia or pbox target, reachable or not.  The
    answer depends on seq's class alone.  Formula classes have no
    subclasses, so the tests read type(f).
    """
    nodes = [seq]
    output = None
    boxes = []  # the bodies of [] inputs, which pbox adds at a target
    for node in nodes:
        nodes.extend(node.children)
        ins = node.inputs
        o = node.output
        if o is not None:
            output = o
            t = type(o)
            if t is Imp:
                a, b = o.left, o.right
                if a is BOT or type(b) is Atom and (b is a or b in ins):
                    return True
            elif t is And:
                a, b = o.left, o.right
                if type(a) is Atom and a in ins and type(b) is Atom and b in ins:
                    return True
            elif t is Or:
                a, b = o.left, o.right
                if type(a) is Atom and a in ins or type(b) is Atom and b in ins:
                    return True
        # an input added here closes on false or on this atom
        if type(o) is not Atom:
            o = BOT
        for f in ins:
            t = type(f)
            if t is And:
                a, b = f.left, f.right
                if a is BOT or a is o or b is BOT or b is o:
                    return True
            elif t is Or:
                a, b = f.left, f.right
                if (a is BOT or a is o) and (b is BOT or b is o):
                    return True
            elif t is Imp:
                a, b = f.left, f.right
                if (b is BOT or b is o) and type(a) is Atom and a in ins:
                    return True
            elif t is Dia:
                if f.body is BOT:
                    return True
            elif t is Box:
                if f.body is BOT:
                    return True
                boxes.append(f.body)
    t = type(output)
    if t is Dia:
        body = output.body
        return type(body) is Atom and any(body in nd.inputs for nd in nodes)
    return t is Atom and output in boxes


# A formula's polarity signature, kept on it as Formula._pol: (own,
# other, moves).  own holds the atoms, and BOT for false, that occur in
# the formula at its own polarity, and other those at the other one: an
# implication's left side stands at the other polarity, every other
# immediate subformula at the same.  moves has _MOVES_IN set if the
# formula, standing as an input, holds a [] at input or a <> at output
# polarity, one that pbox or pdia could propagate; _MOVES_OUT the same
# for it standing as the output.  Every premise of every rule holds
# subformulas of its conclusion's formulas at their polarities, so its
# signature sets are subsets of its conclusion's.
_MOVES_IN = 1
_MOVES_OUT = 2


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, as a or b itself when it holds the other: signatures then
    share most of their sets (88 KB against 236 KB on the prove corpus)."""
    return b if a <= b else a if b <= a else a | b


def _signature(f: Formula) -> tuple:
    """f's polarity signature, computed once per interned subformula,
    without recursion, and stored on it."""
    for g in subformulas((f,)):
        if g._pol is not None:
            continue
        if isinstance(g, (Atom, Bot)):
            sig = (frozenset((g,)), frozenset(), 0)
        elif isinstance(g, (Dia, Box)):
            own, other, moves = g.body._pol
            moves |= _MOVES_IN if isinstance(g, Box) else _MOVES_OUT
            sig = (own, other, moves)
        else:
            lo, lt, lm = g.left._pol
            ro, rt, rm = g.right._pol
            if isinstance(g, Imp):
                lo, lt, lm = lt, lo, (lm & _MOVES_IN) << 1 | lm >> 1
            sig = (_union(lo, ro), _union(lt, rt), lm | rm)
        object.__setattr__(g, "_pol", sig)
    return f._pol


def _polarities(positions: list) -> tuple:
    """(inputs, outputs, moves) of the sequent of positions, _positions'
    list: the sets of atoms, and BOT, that occur at input and at output
    polarity in its formulas, and whether one of them can propagate (a
    [] at input or a <> at output polarity)."""
    ins: set = set()
    outs: set = set()
    moves = 0
    for _, node in positions:
        for f in node.inputs:
            own, other, m = f._pol or _signature(f)
            ins |= own
            outs |= other
            moves |= m & _MOVES_IN
        f = node.output
        if f is not None:
            own, other, m = f._pol or _signature(f)
            ins |= other
            outs |= own
            moves |= m & _MOVES_OUT
    return ins, outs, moves


def _id_order(k: int):
    """Child indices 0..k-1 in the sort order of their decimal digits,
    so that 10 comes before 2: the order of the ids ``r.10``, ``r.2``."""
    return range(k) if k <= 10 else sorted(range(k), key=str)


def _reach_rows(counts: tuple, g: Grammar) -> tuple:
    """The reach table of the bracket tree whose nodes, in preorder,
    have counts[i] children each: (order, rows), where order lists the
    nodes' preorder indices in the sort order of their ids and rows[i]
    is the bitmask of the ranks in order of the nodes that node i
    reaches.  A row read from its low bit up lists targets in id order.

    Ids sort as their digit strings split at the dots, and '.' sorts
    before every digit, so id order is the preorder that visits each
    node's children in _id_order; no id is rendered.
    """
    n = len(counts)
    kids: list = [[] for _ in range(n)]
    owed = [[0, counts[0]]] if counts[0] else []  # nodes still owed children
    for i in range(1, n):
        top = owed[-1]
        kids[top[0]].append(i)
        top[1] -= 1
        if not top[1]:
            owed.pop()
        if counts[i]:
            owed.append([i, counts[i]])
    order = []
    todo = [0]
    while todo:
        v = todo.pop()
        order.append(v)
        vk = kids[v]
        todo.extend(vk[c] for c in reversed(_id_order(len(vk))))
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    masks = reach_masks(n, [(rank[v], rank[c]) for v in range(n) for c in kids[v]], g)
    return tuple(order), tuple(masks[rank[v]] for v in range(n))


# As derives' memo: the reach tables of the last REACH_MEMO_SIZE (tree
# shape, grammar) pairs whose tree has at most REACH_MEMO_NODES nodes;
# a larger tree's table is computed and not stored.  An n-node entry
# holds three n-tuples (the key's child counts, order and rows) and n
# row ints of n bits: with the cache's own links, about 2.3 KB at 32
# nodes, so under 10 MB in all.
REACH_MEMO_SIZE = 4096
REACH_MEMO_NODES = 32
_reach_memo = lru_cache(maxsize=REACH_MEMO_SIZE)(_reach_rows)


def _reach_table(positions: list, g: Grammar) -> tuple:
    """_reach_rows' table of the bracket tree of positions, _positions'
    list, through the memo when the tree is small enough."""
    counts = tuple([len(node.children) for _, node in positions])
    if len(counts) <= REACH_MEMO_NODES:
        return _reach_memo(counts, g)
    return _reach_rows(counts, g)


def _targets(table: tuple, i: int) -> list:
    """The preorder indices of the nodes that node i reaches, in id
    order, read off a reach table."""
    order, rows = table
    row = rows[i]
    out = []
    while row:
        low = row & -row
        out.append(order[low.bit_length() - 1])
        row ^= low
    return out


def _witness(sat: Optional[_Saturator], src: tuple, dst: tuple) -> list:
    """reach_all's walk for a reachable pair, the pdia/pbox path param,
    from sat; to a child of src, the edge saturations record first."""
    if dst and dst[:-1] == src:
        return [path_id(src), "d", path_id(dst)]
    return sat.path_of(sat.full(Sym.FWD, path_id(src), path_id(dst))).to_list()


def _params(rule: str, at: tuple, index: Optional[int],
            walk: Optional[list]) -> dict:
    """The params read_nested reads back as (at, index, target); walk is
    the pdia/pbox path, from at to the target."""
    if rule == "pdia":
        return {"path": walk}
    if rule == "pbox":
        return {"path": walk, "index": index}
    if rule == "orO":
        return {"at": path_id(at), "side": "right" if index else "left"}
    if index is None:
        return {"at": path_id(at)}
    return {"at": path_id(at), "index": index}


def prove_bounded(goal: NestedSequent, ax: AxiomSet, depth: int) -> Optional[NestedProof]:
    """Backward search for a proof of height at most depth + 1.

    Strategy: close leaves; apply the first non-branching invertible
    rule; then branching invertible rules; then backtracking choice
    points (output disjunction side, impI, propagation targets, d).
    A branch gives up on a repeated sequent; failures are cached per
    budget.  Incomplete in general.

    Before it searches, a goal that is no leaf is tested in the
    one-world model whose world sees itself, which meets every frame
    condition, then in every model on two worlds that meets ax: the
    verdicts of one_world_countermodel and two_world_countermodel, with
    no model built, from one front end, _goal_formulas, built once.  The
    calculus is sound for every model of ax, so a goal false in one has
    no proof at any depth, and None is returned at once; every proof
    and every other None is the one the search gives.  The one-world
    test, the cheaper, refutes most such goals.  The tests run at the
    root only: skipping an inner sequent would also skip the
    failure-cache records its subtree leaves, which depend on the
    branch and which later branches read.  Past ONE_WORLD_BITS bits of
    truth tables a test is skipped.

    The search addresses nodes by child-index paths and computes
    premises from _premise_edits, without re-checking side conditions:
    a pdia/pbox target is one the sequent's own propagation graph
    reaches, and d is tried only under seriality, and only at a node
    none of whose children is output-free.  At a node with an
    output-free child c, merging d's new empty bracket into c, which is
    height-preserving (structural.merge_proof), turns any proof of d's
    premise into one of its conclusion at the same height, so a proof
    of least height never needs that d step.

    Two prunes read the formulas' polarity signatures (_signature).
    Every premise of every rule holds subformulas of its conclusion's
    formulas at their polarities, so its sets of atoms at input and at
    output polarity are subsets of its conclusion's.  A sequent with no
    false at input polarity and no atom at both polarities thus has no
    leaf above it: each search call refutes it, after the loop and
    failure-cache checks, and records the failure.  Every premise the
    search would have tried is refuted as well, so no proof changes.
    And d is tried only if some formula can still propagate, a [] at
    input or a <> at output polarity: if none can, no pdia or pbox step
    occurs above, so d's new bracket stays empty in any proof of its
    premise, and deleting it gives a proof of the conclusion no taller.

    The goal is walked once, by _positions: that list counts its outputs
    and is scanned for a leaf, and a node holding neither false nor its
    own atomic output is passed over by two containment tests
    (_node_leaf).  Only the goal is scanned whole for a leaf.  A
    premise's conclusion is no leaf, so a premise can close only at the
    node its rule touched, by what its edits add there, and its leaf
    test runs there alone, building that node only if the edits add
    false, the node's output as an input, or an atom output
    (_local_leaf).  Premises searched at budget 0 close by that test or not at all, so
    they are decided, in order, before any is built, and built only
    when all of them close; the rest are built one at a time as the
    search reaches them.

    A search call at budget 1, the last level, proves its sequent only
    by an application whose premises all close in one step.  So it
    first asks _closable, one pass over the nodes, whether any
    application may; if none may, it returns None before the sequent
    is keyed, walked, loop-checked, looked up in the failure cache or
    recorded there.  This is exact: the call would have returned None
    whatever the branch history and the cache held, and closability
    depends on the sequent's class alone, so the record it skips would
    be read only by later budget-1 calls of that class, which _closable
    answers alike.  When it may close, the call tries only the orO,
    pdia, impI and pbox applications whose touched node then closes,
    never d, and skips the polarity refutation (a closing application
    puts false at input polarity or an atom at both) and the branch
    history, since no premise is searched.  The
    graph depends on the bracket tree alone, so its reachable pairs
    come from one reach table per tree shape and grammar, made by the
    bitmask closure reach_masks and kept across calls in a bounded
    memo (_reach_table); a node's targets are read off the table only
    where pdia or pbox is tried.  Params, with ``r.0.1`` ids and the
    witness walk, are built only for the nodes of proofs found; a walk
    to a child is its edge, and any other unfolds from one saturation
    per tree shape, kept for this call only, run until it has the pair
    asked.  All are reach_all's walks.  One _Search object holds the
    call's failure cache and saturations; its methods refer to each
    other through it, so it forms no reference cycle, and its tables
    are freed when the call returns.  The proof about to be returned is
    run through check_nested, and a failure raises RuntimeError, so
    results always check.
    Raises ValueError for a goal that is not full or whose brackets nest
    past Python's recursion limit, for a depth that is not an int (bools
    included) or is negative, and for a search that recurses past that
    limit.  The search's node helpers, class interning among them,
    recurse once per bracket level on top of its own frame per level of
    depth, so that error names the goal when its brackets nest at least
    depth levels deep, and the depth otherwise.
    """
    try:
        positions = _positions(goal)
    except RecursionError:
        raise ValueError("goal is nested too deeply to search: its brackets "
                         "recurse past Python's limit") from None
    if [node.output is not None for _, node in positions].count(True) != 1:
        raise ValueError("goal must have exactly one output formula")
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise ValueError(f"depth must be an int, got {depth!r}")
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    proof = _try_leaf(goal, positions)
    try:
        if (proof is None and depth > 0
                and _one_world_valuation(front := _goal_formulas(goal)) is None
                and _two_world_candidate(front, ax) is None):
            proof = _Search(ax).search(goal, depth, frozenset())
    except RecursionError:
        if max(len(path) for path, _ in positions) >= depth:
            raise ValueError(f"goal is nested too deeply to search at depth {depth}: "
                             "its brackets recurse past Python's limit") from None
        raise ValueError(f"depth {depth} is too deep to search: "
                         "the search recursed past Python's limit") from None
    if proof is not None:
        res = check_nested(proof, ax)
        if not res:
            raise RuntimeError("prover built a proof that fails to check: "
                               f"{res.message} at {res.at}")
    return proof


class _Search:
    """One prove_bounded search: the axioms and their grammar, the
    failure cache (sequent class -> the largest budget it failed at) and,
    per tree shape, the saturation that witness walks unfold from."""

    __slots__ = ("ax", "g", "fail", "sat_by_shape")

    def __init__(self, ax: AxiomSet):
        self.ax = ax
        self.g = grammar_from_axioms(ax)
        self.fail: dict = {}
        self.sat_by_shape: dict = {}

    def witness(self, seq: NestedSequent, src: tuple, dst: tuple) -> list:
        sat = None
        if not (dst and dst[:-1] == src):  # _witness reads an edge alone
            sat = self.sat_by_shape.get(shape := tuple(all_paths(seq)))
            if sat is None:
                sat = self.sat_by_shape[shape] = _Saturator.paused(prop_graph_nested(seq), self.g)
        return _witness(sat, src, dst)

    def attempt(self, seq, rule, at, index, f, target, budget, seen):
        prems = _premise_edits(seq, rule, at, index, f, target)
        leaves = []
        for edits in prems:
            leaf = _local_leaf(seq, edits)
            if leaf is None and budget == 1:
                # searched at budget 0, this premise would fail
                return None
            leaves.append(leaf)
        subs = []
        for edits, leaf in zip(prems, leaves):
            prem = _applied(seq, edits)
            if leaf is not None:
                subs.append(_leaf_proof(prem, *leaf))
                continue
            sub = self.search(prem, budget - 1, seen)
            if sub is None:
                return None
            subs.append(sub)
        walk = None if target is None else self.witness(seq, at, target)
        return NestedProof(seq, rule, _params(rule, at, index, walk), tuple(subs))

    def commit(self, seq, rule, at, index, f, budget, seen):
        """attempt's answer for an invertible rule, whose failure is seq's."""
        got = self.attempt(seq, rule, at, index, f, None, budget, seen)
        if got is None:
            fail, key = self.fail, seq._cls
            fail[key] = max(fail.get(key, -1), budget)
        return got

    def search(self, seq, budget, seen):
        # seq is no leaf, and budget is at least 1
        last = budget == 1
        if last and not _closable(seq):
            return None
        key = seq._cls
        fail = self.fail
        if key in seen or fail.get(key, -1) >= budget:
            return None
        positions = _positions(seq)
        if not last:
            ins, outs, moves = _polarities(positions)
            if BOT not in ins and ins.isdisjoint(outs):
                # no leaf above: every premise's polarities are subsets
                fail[key] = budget
                return None
            seen = seen | {key}

        # non-branching invertible rules, committed
        for path, node in positions:
            for idx, f in enumerate(node.inputs):
                if isinstance(f, And):
                    return self.commit(seq, "andI", path, idx, f, budget, seen)
                if isinstance(f, Dia):
                    return self.commit(seq, "diaI", path, idx, f, budget, seen)
            if isinstance(node.output, Imp):
                return self.commit(seq, "impO", path, None, node.output, budget, seen)
            if isinstance(node.output, Box):
                return self.commit(seq, "boxO", path, None, node.output, budget, seen)

        # branching invertible rules, committed
        for path, node in positions:
            if isinstance(node.output, And):
                return self.commit(seq, "andO", path, None, node.output, budget, seen)
            for idx, f in enumerate(node.inputs):
                if isinstance(f, Or):
                    return self.commit(seq, "orI", path, idx, f, budget, seen)

        # choice points, backtracking; at the last level only an
        # application whose touched node closes can succeed, and d never
        reach = None
        for i, (path, node) in enumerate(positions):
            f = node.output
            if isinstance(f, Or):
                for side in (0, 1):
                    if last and (f.right if side else f.left) not in node.inputs:
                        continue
                    got = self.attempt(seq, "orO", path, side, f, None, budget, seen)
                    if got is not None:
                        return got
            if isinstance(f, Dia):
                if reach is None:
                    reach = _reach_table(positions, self.g)
                for j in _targets(reach, i):
                    target, tnode = positions[j]
                    if last and f.body not in tnode.inputs:
                        continue
                    got = self.attempt(seq, "pdia", path, None, f, target, budget, seen)
                    if got is not None:
                        return got
            for idx, f in enumerate(node.inputs):
                if isinstance(f, Imp):
                    if last and f.left not in node.inputs:
                        continue
                    got = self.attempt(seq, "impI", path, idx, f, None, budget, seen)
                    if got is not None:
                        return got
                if isinstance(f, Box):
                    if reach is None:
                        reach = _reach_table(positions, self.g)
                    for j in _targets(reach, i):
                        target, tnode = positions[j]
                        if f.body in tnode.inputs or last and not (
                                f.body is BOT or f.body is tnode.output):
                            continue
                        got = self.attempt(seq, "pbox", path, idx, f, target,
                                           budget, seen)
                        if got is not None:
                            return got
        if not last and self.ax.has_d and moves:
            for path, node in positions:
                # seq is full, so a node with two children, or with one
                # that holds no output, has an output-free child
                kids = node.children
                if len(kids) > 1 or kids and output_count(kids[0]) == 0:
                    continue
                got = self.attempt(seq, "d", path, None, None, None, budget, seen)
                if got is not None:
                    return got

        fail[key] = max(fail.get(key, -1), budget)
        return None


def prove_formula(a: Formula, ax: AxiomSet, depth: int) -> Optional[NestedProof]:
    return prove_bounded(nseq(output=a), ax, depth)
