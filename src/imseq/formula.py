"""Formula AST, concrete syntax, and the axiom catalog.

The language is intuitionistic propositional logic plus the modalities
``<>`` (diamond) and ``[]`` (box).  Negation and equivalence are input
sugar: ``~a`` reads as ``a -> false`` and ``a <-> b`` as
``(a -> b) & (b -> a)``.  The printer emits only the core connectives.

Formulas are interned: the constructors return the one live object per
distinct formula, kept in a weak table, so ``==`` is ``is`` and ``hash``
is O(1) however much the formula shares.  Nodes are immutable, and
``pickle`` and ``copy`` hand back the interned object.  A node stores
its rendering once it is first printed, and its polarity signature once
the prover first asks for it; ``parse_formula`` answers repeated texts
from a bounded memo.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

# (class, *fields) -> the live node with those fields.  A node is made
# under the lock, so two threads never make twin nodes for one key.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_MAKING = threading.Lock()


def _intern(key: tuple) -> Formula:
    f = _INTERNED.get(key)
    if f is None:
        with _MAKING:
            f = _INTERNED.get(key)
            if f is None:
                cls = key[0]
                f = object.__new__(cls)
                for name, value in zip(cls.__match_args__, key[1:]):
                    object.__setattr__(f, name, value)
                object.__setattr__(f, "_text", None)
                object.__setattr__(f, "_pol", None)
                _INTERNED[key] = f
    return f


class Formula:
    """Base class for formula nodes.  All nodes are interned and immutable.

    ``_text`` and ``_pol`` hold the node's rendering and its polarity
    signature (``nested._signature``) once first asked for, else None."""

    __slots__ = ("_text", "_pol", "__weakref__")
    __match_args__: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return render_formula(self)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Atom:
        return _intern((cls, name))


class Bot(Formula):
    __slots__ = ()

    def __new__(cls) -> Bot:
        return _intern((cls,))


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> And:
        return _intern((cls, left, right))


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> Or:
        return _intern((cls, left, right))


class Imp(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> Imp:
        return _intern((cls, left, right))


class Dia(Formula):
    __slots__ = __match_args__ = ("body",)
    body: Formula

    def __new__(cls, body: Formula) -> Dia:
        return _intern((cls, body))


class Box(Formula):
    __slots__ = __match_args__ = ("body",)
    body: Formula

    def __new__(cls, body: Formula) -> Box:
        return _intern((cls, body))


BOT = Bot()


class ParseError(ValueError):
    """Raised on malformed formula or sequent text."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


_TOKEN = re.compile(r"<->|->|<>|\[\]|[&|~()]|[a-z][a-zA-Z0-9_]*")
_WS = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        i = _WS.match(text, i).end()
        if i >= n:
            break
        m = _TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        out.append((m.group(), i))
        i = m.end()
    return out


# Deepest formula the parser accepts, counting both the connectives on
# one branch and the parentheses around one subformula.  The printer
# recurses two frames per connective and the parser five per
# parenthesis, so this stays well inside Python's default 1000 frames.
MAX_NESTING = 150

# Most nodes a formula's tree may have, shared subformulas counted once
# per occurrence.  ``a <-> b`` shares a and b between its two
# implications, so a chain of n of them is a tree of 6 * 2^n - 5 nodes
# that the printer writes out in full; the parser refuses chains of 15
# and more.
MAX_TREE_SIZE = 100_000


class _Parser:
    """Recursive descent over the token list.

    Precedence, loosest first: <-> , -> (right assoc), | , & , prefix
    ~ <> [].  ``depth`` counts the open recursive calls and stops the
    parse past MAX_NESTING; ``shares`` says whether some ``<->`` was read.
    """

    def __init__(self, toks: list[tuple[str, int]], text: str):
        self.toks = toks
        self.i = 0
        self.text = text
        self.depth = 0
        self.shares = False

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, int]:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input", len(self.text))
        t = self.toks[self.i]
        self.i += 1
        return t

    def deeper(self, parse, pos: int) -> Formula:
        """Run one parse method a level further down."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        a = parse()
        self.depth -= 1
        return a

    def formula(self) -> Formula:
        a = self.imp()
        if self.peek() == "<->":
            _, pos = self.next()
            self.shares = True
            b = self.deeper(self.formula, pos)
            return And(Imp(a, b), Imp(b, a))
        return a

    def imp(self) -> Formula:
        a = self.disj()
        if self.peek() == "->":
            _, pos = self.next()
            return Imp(a, self.deeper(self.imp, pos))
        return a

    def disj(self) -> Formula:
        a = self.conj()
        while self.peek() == "|":
            self.next()
            a = Or(a, self.conj())
        return a

    def conj(self) -> Formula:
        a = self.unary()
        while self.peek() == "&":
            self.next()
            a = And(a, self.unary())
        return a

    def unary(self) -> Formula:
        tok, pos = self.next()
        if tok == "~":
            return Imp(self.deeper(self.unary, pos), BOT)
        if tok == "<>":
            return Dia(self.deeper(self.unary, pos))
        if tok == "[]":
            return Box(self.deeper(self.unary, pos))
        if tok == "(":
            a = self.deeper(self.formula, pos)
            tok2, pos2 = self.next()
            if tok2 != ")":
                raise ParseError(f"expected ')', got {tok2!r}", pos2)
            return a
        if tok == "false":
            return BOT
        if tok[0].isalpha():
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}", pos)


def subformulas(roots: Iterable[Formula]) -> list:
    """The distinct subformulas of roots, each after its own immediate
    subformulas, found without recursion."""
    order: list = []
    seen: set = set()
    todo = [(f, False) for f in roots]
    while todo:
        f, ready = todo.pop()
        if ready:
            order.append(f)
        elif f not in seen:
            seen.add(f)
            todo.append((f, True))
            if isinstance(f, (Dia, Box)):
                todo.append((f.body, False))
            elif not isinstance(f, (Atom, Bot)):
                todo += ((f.left, False), (f.right, False))
    return order


def _measure(a: Formula) -> tuple[int, int]:
    """Height (connectives on the longest branch) and tree size (nodes,
    shared ones counted once per occurrence) of a, without recursion.

    Each distinct subformula is measured once: ``<->`` shares both sides,
    so a chain of them is a small graph but an exponentially large tree.
    """
    seen: dict[Formula, tuple[int, int]] = {}
    for f in subformulas((a,)):
        if isinstance(f, (Dia, Box)):
            h, n = seen[f.body]
            seen[f] = (h + 1, n + 1)
        elif isinstance(f, (Atom, Bot)):
            seen[f] = (0, 1)
        else:
            (lh, ln), (rh, rn) = seen[f.left], seen[f.right]
            seen[f] = (1 + max(lh, rh), 1 + ln + rn)
    return seen[a]


def parse_formula(text: str) -> Formula:
    """Parse formula text; ParseError on bad syntax, past MAX_NESTING, or
    past MAX_TREE_SIZE.

    Texts up to PARSE_MEMO_TEXT characters are answered from a memo of the
    last PARSE_MEMO_SIZE of them; a text that fails is parsed again."""
    if len(text) <= PARSE_MEMO_TEXT:
        return _parse_memo(text)
    return _parse(text)


def _parse(text: str) -> Formula:
    p = _Parser(_tokenize(text), text)
    a = p.formula()
    if p.i != len(p.toks):
        tok, pos = p.toks[p.i]
        raise ParseError(f"trailing input {tok!r}", pos)
    # & and | chains deepen the tree without recursing in the parser.
    # Short text without <-> passes both checks: its height is below its
    # token count and its tree at most twice that size.
    if len(p.toks) > MAX_NESTING or p.shares:
        height, size = _measure(a)
        if height > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels")
        if size > MAX_TREE_SIZE:
            raise ParseError(f"formula expands to {size} nodes, "
                             f"more than {MAX_TREE_SIZE}")
    return a


# The parse memo holds at most PARSE_MEMO_SIZE texts of at most
# PARSE_MEMO_TEXT characters each, so a long-lived process fed ever new
# or huge texts keeps a bounded amount of them.  lru_cache stores no
# result for a call that raises.
PARSE_MEMO_SIZE = 4096
PARSE_MEMO_TEXT = 1000
_parse_memo = lru_cache(maxsize=PARSE_MEMO_SIZE)(_parse)


# Binding strength used by the printer; parenthesize a child whose
# level is below the context minimum.
_PREC = {Imp: 1, Or: 2, And: 3, Dia: 4, Box: 4, Atom: 5, Bot: 5}


def render_formula(a: Formula) -> str:
    """The text of a, with the fewest parentheses; stored on the node."""
    try:
        text = a._text
    except AttributeError:
        raise TypeError(f"not a formula: {a!r}") from None
    if text is not None:
        return text
    if isinstance(a, Atom):
        text = a.name
    elif isinstance(a, Bot):
        text = "false"
    elif isinstance(a, And):
        text = f"{_child(a.left, 3)} & {_child(a.right, 4)}"
    elif isinstance(a, Or):
        text = f"{_child(a.left, 2)} | {_child(a.right, 3)}"
    elif isinstance(a, Imp):
        text = f"{_child(a.left, 2)} -> {_child(a.right, 1)}"
    elif isinstance(a, Dia):
        text = f"<>{_child(a.body, 4)}"
    else:
        text = f"[]{_child(a.body, 4)}"
    object.__setattr__(a, "_text", text)
    return text


def _child(b: Formula, floor: int) -> str:
    s = render_formula(b)
    return f"({s})" if _PREC[type(b)] < floor else s


def _dias(n: int, a: Formula) -> Formula:
    for _ in range(n):
        a = Dia(a)
    return a


def _boxes(n: int, a: Formula) -> Formula:
    for _ in range(n):
        a = Box(a)
    return a


def hsl_formula(n: int, k: int, a: Formula) -> Formula:
    """The interaction axiom for the pair (n, k), instantiated at a.

    First conjunct: n diamonds over box a implies k boxes over a.
    Second conjunct: k diamonds over a implies n boxes over diamond a.
    For (0, 0) this is the conjunction of the two T implications.
    """
    if n < 0 or k < 0:
        raise ValueError("hsl_formula needs nonnegative n, k")
    return And(
        Imp(_dias(n, Box(a)), _boxes(k, a)),
        Imp(_dias(k, a), _boxes(n, Dia(a))),
    )


@dataclass(frozen=True)
class AxiomSet:
    """A choice of axioms: seriality plus a finite set of (n, k) pairs."""

    has_d: bool = False
    hsl: frozenset = frozenset()

    def __post_init__(self):
        pairs = frozenset((int(n), int(k)) for n, k in self.hsl)
        for n, k in pairs:
            if n < 0 or k < 0:
                raise ValueError(f"negative pair in axiom set: {(n, k)}")
        object.__setattr__(self, "hsl", pairs)

    def __str__(self) -> str:
        parts = [f"({n},{k})" for n, k in sorted(self.hsl)]
        if self.has_d:
            parts.append("d")
        return "{" + ", ".join(parts) + "}"


def axiom_set(pairs: Iterable[tuple[int, int]] = (), d: bool = False) -> AxiomSet:
    return AxiomSet(has_d=d, hsl=frozenset(pairs))


_P = Atom("p")

BENCHMARKS: dict[str, Formula] = {
    "A1": parse_formula("[](p -> q) -> ([]p -> []q)"),
    "A2": parse_formula("[](p -> q) -> (<>p -> <>q)"),
    "A3": parse_formula("~<>false"),
    "A4": parse_formula("<>(p | q) -> (<>p | <>q)"),
    "A5": parse_formula("(<>p -> []q) -> [](p -> q)"),
    "D": parse_formula("[]p -> <>p"),
    "T": hsl_formula(0, 0, _P),
    "B": hsl_formula(1, 0, _P),
    "4": hsl_formula(0, 2, _P),
    "5": hsl_formula(1, 1, _P),
}
