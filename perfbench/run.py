"""Benchmark for imseq: four seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload prove --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

One run sets the workload up (import plus inputs), then repeats passes
over its items until --seconds have gone by, timing one more set-up
after each pass.  A pass runs every item once, one after another, and
then checks every output.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics.
The last line of output is one JSON object; the exit code is non-zero
when any output is wrong.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import TRACED, Tracer
from workloads import RUNGS, WORKLOADS, tail_index

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("formula", "grammar", "nested", "labelled", "refine", "translate",
          "proofio", "models", "gen")
MIN_TRACED_PAIRS = 2
HARD_GOALS = 5

END_TO_END = (("items_per_s", "1/s"), ("p50_ms", "ms"), ("tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_library(root: Path) -> SimpleNamespace:
    """Import imseq afresh from root/src, so set-up can be timed again."""
    src = root / "src"
    for name in [n for n in sys.modules if n == "imseq" or n.startswith("imseq.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("imseq")
    if Path(pkg.__file__).resolve().parent != (src / "imseq").resolve():
        raise ImportError(f"imseq imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"imseq.{m}") for m in LAYERS})


def render_cache(lib):
    """The formula renderer's lru_cache, or None once it has none."""
    fn = lib.formula.render_formula
    return fn if hasattr(fn, "cache_info") else None


class Pass:
    """One pass: per-item seconds, error messages and, when traced, the
    tracer's totals and per-item premise attempts."""

    def __init__(self, lat, errors, failed, self_s=None, counters=None,
                 item_calls=None):
        self.lat = lat
        self.wall = sum(lat)
        self.errors = errors
        self.failed = failed
        self.self_s = self_s or {}
        self.counters = counters or {}
        self.item_calls = item_calls or []


def run_pass(wl, lib, tracer: Tracer | None = None) -> Pass:
    items = wl.items()
    cache = render_cache(lib)
    if cache is not None:
        cache.cache_clear()
    lat, outs, item_calls = [], [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for item in items:
            before = tracer.calls["nested.premises_of_nested"] if tracer else 0
            t0 = time.perf_counter()
            try:
                out, dt = wl.run(item)
            except Exception as e:  # a raising item is a failed item
                out, dt = e, time.perf_counter() - t0
            outs.append(out)
            lat.append(dt)
            if tracer is not None:
                item_calls.append(tracer.calls["nested.premises_of_nested"] - before)
    finally:
        if tracer is not None:
            tracer.uninstall()
    info = cache.cache_info() if cache is not None else None
    errors = []
    for i, (item, out) in enumerate(zip(items, outs)):
        if isinstance(out, Exception):
            errors.append(f"item {i} raised {type(out).__name__}: {out}")
            continue
        if hasattr(wl, "record") and tracer is None:
            wl.record(item, out)
        msg = wl.check(i, item, out)
        if msg:
            errors.append(msg)
    failed_items = len(errors)
    if hasattr(wl, "check_pass"):
        msg = wl.check_pass(outs)
        if msg:
            errors.append(msg)
    if tracer is None:
        return Pass(lat, errors, failed_items)
    counters = {"calls": dict(tracer.calls), "raised": dict(tracer.raised),
                "counts": dict(tracer.counts),
                "render_cache": None if info is None else
                (info.hits, info.misses, info.currsize)}
    return Pass(lat, errors, failed_items, dict(tracer.self_s), counters, item_calls)


def setup(name: str, seed: int):
    """Import the library afresh and build the workload: (lib, wl, seconds)."""
    t0 = time.perf_counter()
    lib = import_library(ROOT)
    wl = WORKLOADS[name](lib, seed)
    return lib, wl, time.perf_counter() - t0


def timed_setup(name: str, seed: int) -> float:
    """Seconds for one more set-up, keeping the library in use.

    Set-ups are spread over the run between passes, so that, like the
    other metrics, setup_s reflects the machine over the whole run and
    not over its first second.
    """
    in_use = {n: m for n, m in sys.modules.items()
              if n == "imseq" or n.startswith("imseq.")}
    try:
        return setup(name, seed)[2]
    finally:
        for n in [n for n in sys.modules if n == "imseq" or n.startswith("imseq.")]:
            del sys.modules[n]
        sys.modules.update(in_use)


def item_means(passes: list) -> list:
    """Each item's mean seconds over the passes.

    A shared machine can switch between fast and slow phases lasting
    tens of seconds.  A mean moves smoothly with the share of each phase
    in a run; a median snaps to whichever phase dominates.
    """
    return [statistics.fmean(p.lat[i] for p in passes)
            for i in range(len(passes[0].lat))]


def end_to_end(wl, passes: list, setups: list) -> tuple:
    """Latency metrics read each item's mean over the run's passes."""
    per_item = item_means(passes)
    pick = wl.latency_items(len(per_item)) if hasattr(wl, "latency_items") else range(len(per_item))
    lat = sorted(per_item[i] for i in pick)
    n = len(lat)
    tail = tail_index(n)
    metrics = {
        "items_per_s": len(per_item) / sum(per_item),
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": lat[tail] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "p50_ms": f"{n} items, each the mean of {len(passes)} passes",
        "tail_ms": f"p{100 * (tail + 1) / n:.1f}, {n - 1 - tail} of {n} items above it",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    extra = {}
    if wl.name == "ladder":
        by_rung: dict = {}
        for (rung, _), dt in zip(wl.cases, per_item):
            by_rung.setdefault(rung, []).append(dt)
        extra["top_rung_ms"] = (statistics.median(by_rung[RUNGS[-1]]) * 1e3, "ms")
        extra["growth_exp"] = (wl.growth(by_rung), "1")
    return metrics, notes, extra


def per_layer(wl, plain: list, traced: list) -> tuple:
    """Per-layer metrics from the traced passes, and the hard goal numbers."""
    def med_self(name):
        return statistics.median(p.self_s.get(name, 0.0) for p in traced)

    first = traced[0]
    calls = first.counters["calls"]
    raised = first.counters["raised"]
    counts = first.counters["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for mod, fn in TRACED:
        if not fn.startswith("load_"):
            m[f"{mod}.{fn}.self_s"] = med_self(f"{mod}.{fn}")
    m["proofio.load.self_s"] = med_self("proofio.load_nested_proof") + med_self("proofio.load_labelled_proof")
    for name in ("grammar.reach_all", "grammar.derives", "grammar.reachable",
                 "nested.premises_of_nested", "nested.prop_graph_nested",
                 "labelled.premises_of_labelled", "formula.parse_formula",
                 "models.eval_formula"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["grammar.reach_all.graph_nodes"] = counts.get("grammar.reach_all.graph_nodes", 0)
    m["grammar.reach_all.witness_use_ratio"] = ratio(
        counts.get("nested.premises_of_nested.propagation_attempts", 0),
        counts.get("grammar.reach_all.witnesses", 0))
    m["grammar.derives.letters"] = counts.get("grammar.derives.letters", 0)
    m["nested.premises_of_nested.reject_ratio"] = ratio(
        raised.get("nested.premises_of_nested", 0), calls.get("nested.premises_of_nested", 0))
    cache = first.counters["render_cache"]
    m["formula.render_formula.hit_ratio"] = ratio(cache[0], cache[0] + cache[1]) if cache else 0.0
    m["formula.render_formula.entries"] = cache[2] if cache else 0
    if wl.name == "ladder":
        for fn in ("derives", "reachable"):
            m[f"grammar.{fn}.growth_exp"] = wl.growth(
                {r: s for (f, r), s in wl.call_s.items() if f == fn})
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    m["trace.overhead_ratio"] = traced_wall / plain_wall - 1 if plain_wall else 0.0
    m["trace.coverage"] = ratio(sum(first.self_s.values()), first.wall)
    hard = []
    if wl.name == "prove":
        untraced = item_means(plain)
        ranked = sorted(range(len(first.item_calls)), key=lambda i: (-first.item_calls[i], i))
        for i in ranked[:HARD_GOALS]:
            hard.append((i + 1, first.item_calls[i], untraced[i] * 1e3))
    for rank in range(HARD_GOALS):
        _, attempts, ms = hard[rank] if rank < len(hard) else (0, 0, 0.0)
        m[f"prove.hard{rank + 1}.attempts"] = attempts
        m[f"prove.hard{rank + 1}.ms"] = ms
    return m, [goal for goal, _, _ in hard]


PER_LAYER_UNITS = (("self_s", "s"), ("calls", "count"), ("graph_nodes", "count"),
                   ("letters", "count"), ("entries", "count"), ("attempts", "count"),
                   ("ms", "ms"))


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith("." + suffix):
            return unit
    return "1"


def run_one(args) -> int:
    lib, wl, first = setup(args.workload, args.seed)
    setups = [first]
    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    t_start = time.perf_counter()
    while True:
        plain.append(run_pass(wl, lib))
        if not args.trace:
            setups.append(timed_setup(args.workload, args.seed))
        if args.trace:
            traced.append(run_pass(wl, lib, tracer))
        done = time.perf_counter() - t_start >= args.seconds
        if done and (not args.trace or len(traced) >= MIN_TRACED_PAIRS):
            break
    passes = plain + traced
    attempted = sum(len(p.lat) for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    if args.trace:
        ref = traced[0].counters
        for k, p in enumerate(traced[1:], 2):
            if p.counters != ref:
                diff = sorted(key for key in ref if ref[key] != p.counters.get(key))
                errors.append(f"traced pass {k} counters differ from pass 1 in {diff}")
    for e in errors[:10]:
        print(f"FAIL {e}", file=sys.stderr)
    correct = not errors

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced + {len(traced)} traced  items {attempted}")
    if args.trace:
        metrics, hard = per_layer(wl, plain, traced)
        units = {k: unit_of(k) for k in metrics}
        for name in sorted(metrics):
            print(f"  {name:44s} {metrics[name]:.6g} {units[name]}")
        if hard:
            print(f"  hardest goals by premise attempts: "
                  f"{', '.join(f'#{g}' for g in hard)}")
        missing = tracer.missing
        if missing:
            print(f"  not in the library, zero calls: {', '.join(missing)}")
    else:
        metrics, notes, extra = end_to_end(wl, plain, setups)
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"  {name:14s} {metrics[name]:.6g} {unit}  {notes.get(name, '')}")
        for name, (value, unit) in extra.items():
            print(f"  {name:14s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':14s} {failed / attempted if attempted else 0.0:.6g} 1  "
          f"({failed} of {attempted} items)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd).returncode
        status = status or code
    print(f"all workloads: {'ok' if status == 0 else 'FAILED'}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except ImportError as e:
        print(f"cannot import imseq from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
