"""Per-layer tracing from outside the library.

The traced run replaces each function named in TRACED by a wrapper, at
every module attribute that holds it (``imseq.grammar.derives``,
``imseq.nested.derives``, ``imseq.labelled.derives``, ...), so calls made
from inside the library are seen too.  Nothing under ``src/imseq``
changes, and ``uninstall`` puts every original back.

A wrapper opens a span on entry and closes it on exit.  Spans are folded
into per-function totals as they close instead of being stored: a
sweep pass alone closes about 55,000 ``eval_formula`` spans.  A
span's self time is its duration minus the durations of the spans it
directly encloses.  Besides calls and self time, a few functions
count work from their arguments or results (HOOKS).
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function) under imseq.  A name missing from the library is
# skipped and reads as zero calls, so deleting a function does not
# break the traced run.
TRACED = (
    ("formula", "parse_formula"),
    ("grammar", "reach_all"),
    ("grammar", "derives"),
    ("grammar", "reachable"),
    ("grammar", "path_in_graph"),
    ("nested", "prove_bounded"),
    ("nested", "premises_of_nested"),
    ("nested", "prop_graph_nested"),
    ("nested", "check_nested"),
    ("nested", "parse_nested"),
    ("labelled", "check_labelled"),
    ("labelled", "premises_of_labelled"),
    ("labelled", "parse_labelled_sequent"),
    ("refine", "eliminate_structural"),
    ("translate", "translate_proof"),
    ("translate", "to_labelled"),
    ("translate", "to_nested"),
    ("proofio", "load_nested_proof"),
    ("proofio", "load_labelled_proof"),
    ("proofio", "dump_proof"),
    ("models", "random_model"),
    ("models", "check_model"),
    ("models", "check_frame_conditions"),
    ("models", "sat_sequent"),
    ("models", "eval_formula"),
)


def _derives(counts, args, kwargs, out):
    target = args[2] if len(args) > 2 else kwargs["target"]
    counts["grammar.derives.letters"] += len(target)


def _reach_all(counts, args, kwargs, out):
    pg = args[0] if args else kwargs["pg"]
    counts["grammar.reach_all.graph_nodes"] += len(pg.nodes)
    if out is not None:
        counts["grammar.reach_all.witnesses"] += len(out)


def _premises_of_nested(counts, args, kwargs, out):
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    if rule in ("pdia", "pbox"):
        counts["nested.premises_of_nested.propagation_attempts"] += 1


# Counters read off a call.  A hook sees None as the output of a call
# that raised; a hook that no longer fits the library's signature is
# reported once and its counter stays zero.
HOOKS = {
    "grammar.derives": _derives,
    "grammar.reach_all": _reach_all,
    "nested.premises_of_nested": _premises_of_nested,
}


class Tracer:
    """Span totals and counters for the wrapped functions."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []
        self._broken_hooks: set = set()

    def reset(self) -> None:
        for c in (self.calls, self.raised, self.self_s, self.counts):
            c.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, raised, self_s = self.calls, self.raised, self.self_s
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException:
                raised[name] += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - child
                if hook is not None and name not in self._broken_hooks:
                    self._count(name, hook, args, kwargs, out)

        return traced

    def _count(self, name, hook, args, kwargs, out) -> None:
        try:
            hook(self.counts, args, kwargs, out)
        except (IndexError, KeyError, TypeError, AttributeError) as e:
            self._broken_hooks.add(name)
            print(f"trace: counter hook for {name} disabled: {e!r}", file=sys.stderr)

    def install(self) -> None:
        """Patch every imseq module attribute that holds a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "imseq" or n.startswith("imseq."))]
        self.missing = []
        for modname, fname in TRACED:
            home = sys.modules.get(f"imseq.{modname}")
            orig = getattr(home, fname, None)
            if orig is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []
