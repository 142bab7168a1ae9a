"""Command line entry point.

One executable with subcommands over the other modules: formula
parsing, propagation reachability, proof checking, refinement,
translation, bounded proof search, model evaluation, and the benchmark
formulas.  Exit codes: 0 success or valid, 1 invalid or unprovable
within the budget, 2 usage errors, malformed input, or i/o trouble.
"""

from __future__ import annotations

import argparse
import re
import sys

from .formula import (BENCHMARKS, Atom, ParseError, axiom_set, hsl_formula,
                      parse_formula, render_formula)
from .grammar import grammar_from_axioms, graph_from_pairs, reachable
from .labelled import check_labelled, parse_labelled_sequent, parse_rel_atoms
from .models import (check_frame_conditions, check_model, eval_formula,
                     globally_true, model_of, one_world_countermodel, sat_sequent,
                     two_world_countermodel)
from .nested import check_nested, nseq, prove_bounded
from .proofio import dump_proof, load_labelled_proof, load_nested_proof
from .refine import eliminate_structural
from .translate import translate_proof


class _Fail(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code
        self.msg = msg


def _hsl_pair(text: str) -> tuple:
    m = re.fullmatch(r"(\d+),(\d+)", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"expected N,K with digits: {text!r}")
    n, k = int(m.group(1)), int(m.group(2))
    if n > 9 or k > 9:
        raise argparse.ArgumentTypeError("n and k must be at most 9")
    return n, k


def _add_axiom_flags(sp) -> None:
    sp.add_argument("--hsl", action="append", type=_hsl_pair, default=[],
                    metavar="N,K", help="interaction axiom pair; repeatable")
    sp.add_argument("--d", action="store_true",
                    help="include the seriality axiom")


def _axioms(ns):
    return axiom_set(ns.hsl, d=ns.d)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _Fail(2, str(e))
    except UnicodeDecodeError as e:
        raise _Fail(2, f"{path}: not UTF-8 (byte {e.object[e.start]:#04x} "
                       f"at position {e.start})")


def _load_proof(path: str, loader):
    text = _read(path)
    try:
        return loader(text)
    except ValueError as e:
        raise _Fail(2, f"{path}: {e}")


def _emit(ns, text: str) -> None:
    if getattr(ns, "out", None):
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _Fail(2, str(e))
    else:
        sys.stdout.write(text)


def cmd_parse(ns) -> int:
    print(render_formula(parse_formula(ns.formula)))
    return 0


def cmd_reach(ns) -> int:
    pg = graph_from_pairs(parse_rel_atoms(ns.rel), extra_nodes=(ns.start, ns.end))
    try:
        path = reachable(pg, grammar_from_axioms(_axioms(ns)), ns.start, ns.end)
    except ValueError as e:
        raise _Fail(2, str(e))
    if path is None:
        print("unreachable")
        return 1
    print(path)
    return 0


def cmd_check(ns) -> int:
    ax = _axioms(ns)
    if ns.calculus == "nested":
        result = check_nested(_load_proof(ns.file, load_nested_proof), ax)
    else:
        proof = _load_proof(ns.file, load_labelled_proof)
        mode = "base" if ns.calculus == "labelled" else ns.calculus
        result = check_labelled(proof, ax, mode)
    if result:
        print("ok")
        return 0
    print(f"invalid at {result.at}: {result.message}", file=sys.stderr)
    return 1


def cmd_refine(ns) -> int:
    proof = _load_proof(ns.file, load_labelled_proof)
    out = eliminate_structural(proof, _axioms(ns))
    _emit(ns, dump_proof(out))
    return 0


def cmd_translate(ns) -> int:
    loader = load_labelled_proof if ns.to == "nested" else load_nested_proof
    proof = _load_proof(ns.file, loader)
    out = translate_proof(proof, ns.to, _axioms(ns))
    _emit(ns, dump_proof(out))
    return 0


def cmd_prove(ns) -> int:
    goal = nseq(output=parse_formula(ns.formula))
    ax = _axioms(ns)
    try:
        proof = prove_bounded(goal, ax, ns.depth)
    except ValueError as e:
        raise _Fail(2, str(e))
    if proof is None:
        atoms = one_world_countermodel(goal)
        if atoms is not None:
            held = (f"{', '.join(atoms)} hold" if len(atoms) > 1 else
                    f"{atoms[0]} holds" if atoms else "no atom holds")
            print(f"no proof at any depth: false in the one-world model where {held}",
                  file=sys.stderr)
        elif (found := two_world_countermodel(goal, ax)) is not None:
            model, world = found
            print(f"no proof at any depth: false at world {world} of this two-world model:",
                  file=sys.stderr)
            print(_render_model(model), file=sys.stderr)
        else:
            print(f"no proof within depth {ns.depth}", file=sys.stderr)
        return 1
    _emit(ns, dump_proof(proof))
    return 0


def _load_model(text: str):
    worlds, leq, acc, val = [], [], [], []
    buckets = {"leq": leq, "acc": acc, "val": val}
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, rest = line.partition(":")
        key = key.strip()
        if not colon or key not in ("worlds", "leq", "acc", "val"):
            raise ParseError(f"line {i}: expected worlds/leq/acc/val section")
        for item in (c.strip() for c in rest.split(",")):
            if not item:
                continue
            parts = item.split()
            if key == "worlds":
                worlds.extend(parts)
            elif len(parts) == 2:
                buckets[key].append((parts[0], parts[1]))
            else:
                raise ParseError(f"line {i}: expected two names in {item!r}")
    return model_of(worlds, leq, acc, val)


def _render_model(m) -> str:
    """m in the text _load_model reads, without the reflexive leq pairs
    that model_of adds back."""
    def section(key: str, pairs) -> str:
        return f"{key}: {', '.join(f'{a} {b}' for a, b in sorted(pairs))}".rstrip()

    return "\n".join([f"worlds: {' '.join(sorted(m.worlds))}",
                      section("leq", [(a, b) for a, b in m.leq if a != b]),
                      section("acc", m.acc), section("val", m.val)])


def _parse_interp(text: str) -> dict:
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lab, eq, world = chunk.partition("=")
        if not eq or not lab.strip() or not world.strip():
            raise ParseError(f"expected label=world in {chunk!r}")
        out[lab.strip()] = world.strip()
    return out


def cmd_model_eval(ns) -> int:
    try:
        model = _load_model(_read(ns.file))
    except ParseError as e:
        raise _Fail(2, f"{ns.file}: {e}")
    bad = check_model(model)
    if not bad and (ns.hsl or ns.d):
        bad = check_frame_conditions(model, _axioms(ns))
    if bad:
        for v in bad:
            print(v, file=sys.stderr)
        return 1
    if ns.formula is not None:
        f = parse_formula(ns.formula)
    elif ns.sequent is None:
        raise _Fail(2, "give --formula or --sequent")
    elif ns.interp is None:
        raise _Fail(2, "--sequent needs --interp label=world,...")
    else:
        interp, s = _parse_interp(ns.interp), parse_labelled_sequent(ns.sequent)
    try:
        if ns.formula is None:
            ok = sat_sequent(model, interp, s)
        else:
            ok = eval_formula(model, ns.world, f) if ns.world else globally_true(model, f)
    except ValueError as e:  # a world the model lacks, a label left unmapped
        raise _Fail(2, str(e))
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_axioms(ns) -> int:
    p = Atom("p")
    printed = False
    for n, k in ns.hsl:
        print(f"hsl({n},{k}): {render_formula(hsl_formula(n, k, p))}")
        printed = True
    if ns.d:
        print(f"D: {render_formula(BENCHMARKS['D'])}")
        printed = True
    if not printed:
        for name, f in BENCHMARKS.items():
            print(f"{name}: {render_formula(f)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imseq",
        description="Sequent calculi with propagation for intuitionistic modal logics")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="parse a formula and print it back")
    sp.add_argument("formula")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("reach", help="witness path between two nodes")
    sp.add_argument("rel", help="relational atoms, e.g. 'v R u, u R w'")
    sp.add_argument("start")
    sp.add_argument("end")
    _add_axiom_flags(sp)
    sp.set_defaults(func=cmd_reach)

    sp = sub.add_parser("check", help="check a proof file")
    sp.add_argument("file")
    sp.add_argument("--calculus", default="either",
                    choices=("labelled", "base", "refined", "either", "nested"))
    _add_axiom_flags(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("refine", help="eliminate the relational rules")
    sp.add_argument("file")
    sp.add_argument("-o", "--out")
    _add_axiom_flags(sp)
    sp.set_defaults(func=cmd_refine)

    sp = sub.add_parser("translate", help="translate a proof between calculi")
    sp.add_argument("file")
    sp.add_argument("--to", required=True, choices=("nested", "labelled"))
    sp.add_argument("-o", "--out")
    _add_axiom_flags(sp)
    sp.set_defaults(func=cmd_translate)

    sp = sub.add_parser("prove", help="bounded search for a nested proof")
    sp.add_argument("formula")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("-o", "--out")
    _add_axiom_flags(sp)
    sp.set_defaults(func=cmd_prove)

    sp = sub.add_parser("model-eval", help="evaluate in a finite model")
    sp.add_argument("file", help="model file: worlds/leq/acc/val lines")
    sp.add_argument("--formula")
    sp.add_argument("--world")
    sp.add_argument("--sequent")
    sp.add_argument("--interp", help="label=world, comma separated")
    _add_axiom_flags(sp)
    sp.set_defaults(func=cmd_model_eval)

    sp = sub.add_parser("axioms", help="print benchmark formulas")
    _add_axiom_flags(sp)
    sp.set_defaults(func=cmd_axioms)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return ns.func(ns)
    except _Fail as e:
        print(e.msg, file=sys.stderr)
        return e.code
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 1
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
