"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Lines are written to the real stdout so they stay visible under pytest's
capture.  Criterion 6 re-validates every proof conclusion produced by
the other criteria against random models, so it is defined last; running
it on its own is not meaningful.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager

import conftest

from imseq.formula import (BENCHMARKS, axiom_set, parse_formula,
                           render_formula)
from imseq.gen import (random_formula, random_full_nested,
                       random_labelled_proof, random_tree_labelled)
from imseq.grammar import (Production, Sym, derives, grammar_from_axioms,
                           graph_from_pairs, reachable, syms)
from imseq.labelled import (LabelledProof, check_labelled,
                            parse_labelled_sequent, premises_of_labelled,
                            render_labelled_sequent)
from imseq.models import (check_frame_conditions, check_model, globally_true,
                          random_model, sat_sequent)
from imseq.nested import (all_paths, check_nested, node_at, nseq,
                          parse_nested, prove_formula, prove_bounded,
                          render_nested)
from imseq.refine import eliminate_structural
from imseq.structural import (contract_proof, merge_proof, nest_proof,
                              weaken_proof)
from imseq.translate import to_labelled, to_nested
from oracles import canonical_relabel, oracle_reachable, path_in_graph

D, B = Sym.FWD, Sym.BWD

# conclusions collected for the model-soundness criterion, deduplicated
ACCEPTED: dict = {}


def record(kind, ax, obj):
    if kind == "formula":
        key = render_formula(obj)
    elif kind == "labelled":
        key = render_labelled_sequent(obj)
    else:
        key = render_nested(obj)
    ACCEPTED[(ax, kind, key)] = (kind, ax, obj)


def _emit(num, ok, detail, dt, limit):
    bound = f" < {limit:g}s" if limit is not None else ""
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} ({dt:.2f}s{bound})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num, limit=None):
    c = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield c
    except BaseException:
        _emit(num, False, c["detail"] or "raised", time.perf_counter() - t0, limit)
        raise
    dt = time.perf_counter() - t0
    in_time = limit is None or dt < limit
    _emit(num, in_time, c["detail"], dt, limit)
    assert in_time, f"criterion {num} took {dt:.2f}s, limit {limit}s"


def test_criterion_1_grammar_reachability_worked_case():
    with criterion(1, 1.0) as c:
        ax = axiom_set([(2, 1)])
        g = grammar_from_axioms(ax)
        assert g.productions == frozenset({
            Production(D, (B, B, D)),
            Production(B, (B, D, D)),
        })

        pg = graph_from_pairs([("v", "u"), ("u", "w")])
        wit = reachable(pg, g, "w", "u")
        assert wit is not None
        assert path_in_graph(pg, wit)
        assert derives(g, D, wit.steps)
        assert derives(g, D, syms("bbd"))

        concl = parse_labelled_sequent("v R u, u R w ; w: []p |- v: p -> q")
        want = parse_labelled_sequent("v R u, u R w ; w: []p, u: p |- v: p -> q")
        prems = premises_of_labelled(
            concl, "pbox",
            {"world": "w", "formula": "[]p", "to": "u",
             "path": ["w", "b", "u", "b", "v", "d", "u"]},
            ax)
        assert list(prems) == [want]
        c["detail"] = (f"grammar frozen, witness {wit.string!r} in L(<>), "
                       "box propagation step reproduced")


def test_criterion_2_structural_step_permutation_case():
    with criterion(2, 1.0) as c:
        ax = axiom_set([(1, 1)])
        concl = parse_labelled_sequent("w R u, w R v ; u: p |- v: <>p")
        mid = parse_labelled_sequent("w R u, w R v, u R v ; u: p |- v: <>p")
        top = parse_labelled_sequent("w R u, w R v, u R v ; u: p |- u: p")
        top_s = parse_labelled_sequent("w R u, w R v ; u: p |- u: p")

        first = LabelledProof(
            concl, "S",
            {"n": 1, "k": 1, "chain_n": ["w", "u"], "chain_k": ["w", "v"]},
            (LabelledProof(mid, "pdia", {"path": ["v", "b", "w", "d", "u"]},
                           (LabelledProof(top, "id", {}, ()),)),))
        assert check_labelled(first, ax, "either")

        # same steps with the structural rule permuted to the top
        permuted = LabelledProof(
            concl, "pdia", {"path": ["v", "b", "w", "d", "u"]},
            (LabelledProof(
                top_s, "S",
                {"n": 1, "k": 1, "chain_n": ["w", "u"], "chain_k": ["w", "v"]},
                (LabelledProof(top, "id", {}, ()),)),))
        assert check_labelled(permuted, ax, "either")

        # topmost structural step absorbed into the axiom leaf
        second = LabelledProof(
            concl, "pdia", {"path": ["v", "b", "w", "d", "u"]},
            (LabelledProof(top_s, "id", {}, ()),))
        assert check_labelled(second, ax, "refined")

        out = eliminate_structural(first, ax)
        assert out.conclusion == concl
        assert check_labelled(out, ax, "refined")
        assert all(n.rule not in ("S", "diaR", "boxL") for n in out.nodes())
        assert out.rule == second.rule and out.params == second.params
        assert out.premises[0].conclusion == top_s

        record("labelled", ax, concl)
        c["detail"] = "both derivations check, elimination yields the pure proof"


def _formula_count(s):
    n = len(s.inputs) + (1 if s.output is not None else 0)
    return n + sum(_formula_count(k) for k in s.children)


def test_criterion_3_translation_fidelity():
    with criterion(3, 10.0) as c:
        nested_text = "p -> q^o, [ p^i, [ []p^i ] ]"
        labelled_text = "w0 R w1, w1 R w2 ; w1: p, w2: []p |- w0: p -> q"
        lab = to_labelled(parse_nested(nested_text))
        assert render_labelled_sequent(lab) == labelled_text
        assert render_nested(to_nested(lab)) == nested_text
        # same sequent under its original label names
        other = parse_labelled_sequent(
            "w R v, v R u ; v: p, u: []p |- w: p -> q")
        assert render_nested(to_nested(other)) == nested_text

        rng = random.Random(93001)
        done = 0
        while done < 500:
            s = random_full_nested(rng, depth=rng.randint(1, 4), width=2)
            if _formula_count(s) > 12:
                continue
            done += 1
            assert to_nested(to_labelled(s)) == s
        for _ in range(500):
            t = random_tree_labelled(rng, depth=rng.randint(1, 3), width=3)
            back = to_labelled(to_nested(t))
            assert canonical_relabel(back) == canonical_relabel(t)
        c["detail"] = "worked pair bit-exact, 500+500 round trips identical"


def test_criterion_4_reachability_oracle_equivalence():
    with criterion(4, 60.0) as c:
        rng = random.Random(44001)
        disagreements = 0
        for _ in range(300):
            nodes = [f"n{i}" for i in range(rng.randint(1, 6))]
            rel = set()
            for _ in range(rng.randrange(0, 2 * len(nodes) + 1)):
                rel.add((rng.choice(nodes), rng.choice(nodes)))
            pg = graph_from_pairs(rel, extra_nodes=nodes)
            pairs = [(rng.randint(0, 3), rng.randint(0, 3))
                     for _ in range(rng.randrange(0, 3))]
            g = grammar_from_axioms(axiom_set(pairs))
            x, y = rng.choice(nodes), rng.choice(nodes)

            want = oracle_reachable(pg, g, x, y, max_edges=8, max_len=8)
            got = reachable(pg, g, x, y)
            if want and got is None:
                disagreements += 1
            if got is not None:
                if not (path_in_graph(pg, got) and derives(g, D, got.steps)):
                    disagreements += 1
                # inside the oracle's bounds the check is two-sided;
                # (0,0) adds an erasing production the bounded closure misses
                elif len(got.steps) <= 8 and (0, 0) not in pairs and not want:
                    disagreements += 1
        assert disagreements == 0
        c["detail"] = "300 instances against the path oracle, 0 disagreements"


def test_criterion_5_benchmark_provability():
    goals = [(BENCHMARKS[k], axiom_set()) for k in ("A1", "A2", "A3", "A4", "A5")]
    for key, pair in (("T", (0, 0)), ("4", (0, 2)), ("B", (1, 0)), ("5", (1, 1))):
        ax = axiom_set([pair])
        goals.append((BENCHMARKS[key].left, ax))
        goals.append((BENCHMARKS[key].right, ax))
    goals.append((parse_formula("[]p -> <>p"), axiom_set(d=True)))

    with criterion(5, 60.0) as c:
        worst = 0.0
        for f, ax in goals:
            t0 = time.perf_counter()
            p = prove_formula(f, ax, 12)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            assert p is not None, render_formula(f)
            assert check_nested(p, ax), render_formula(f)
            assert dt < 60.0, render_formula(f)
            record("formula", ax, f)
        c["detail"] = f"{len(goals)} goals proved, slowest {worst:.2f}s"


def test_criterion_7_admissible_transforms():
    with criterion(7, 60.0) as c:
        rng = random.Random(77001)
        ax0 = axiom_set()
        ax7 = axiom_set([(1, 1)], d=True)
        sources = []
        attempts = 0
        while len(sources) < 100:
            attempts += 1
            assert attempts < 4000, "provable goal generation stalled"
            ax = ax7 if attempts % 2 else ax0
            goal = random_full_nested(rng, depth=rng.randint(1, 3), width=2)
            p = prove_bounded(goal, ax, 7)
            if p is not None:
                sources.append((ax, p))

        increases = 0
        transforms = 0
        for ax, q in sources:
            assert check_nested(q, ax)
            record("nested", ax, q.conclusion)
            h = q.height()
            spot = rng.choice(all_paths(q.conclusion))
            here = node_at(q.conclusion, spot)
            f = random_formula(rng, 2)

            nested = nest_proof(q)
            assert check_nested(nested, ax)
            increases += nested.height() > h

            weakened = weaken_proof(q, spot, nseq(inputs=(f,)))
            assert check_nested(weakened, ax)
            increases += weakened.height() > h

            wpair = weaken_proof(q, spot, nseq(inputs=(f, f)))
            i0 = len(here.inputs)
            contracted = contract_proof(wpair, spot, i0, i0 + 1)
            assert check_nested(contracted, ax)
            increases += contracted.height() > wpair.height()

            delta = nseq(inputs=(f,))
            wtwo = weaken_proof(q, spot, nseq(children=(delta, delta)))
            k0 = len(here.children)
            merged = merge_proof(wtwo, spot, k0, k0 + 1)
            assert check_nested(merged, ax)
            increases += merged.height() > wtwo.height()

            transforms += 4
            for out in (nested, weakened, contracted, merged):
                record("nested", ax, out.conclusion)
        assert increases == 0
        c["detail"] = (f"100 derivable sequents, {transforms} transforms, "
                       "0 height increases")


def test_criterion_8_elimination_at_scale():
    mixes = [axiom_set([(0, 0)]), axiom_set([(0, 1)]), axiom_set([(1, 0)]),
             axiom_set([(1, 1)]), axiom_set([(2, 1)]), axiom_set([(1, 2)]),
             axiom_set([(2, 2)], d=True), axiom_set([(0, 2)]),
             axiom_set([(2, 0)], d=True), axiom_set([(0, 1), (1, 1)])]
    with criterion(8, 60.0) as c:
        rng = random.Random(88001)
        structural_steps = 0
        for i in range(100):
            ax = mixes[i % len(mixes)]
            p = random_labelled_proof(rng, ax, mode="base", budget=6)
            assert check_labelled(p, ax, "base")
            structural_steps += sum(1 for n in p.nodes() if n.rule == "S")

            out = eliminate_structural(p, ax)
            assert out.conclusion == p.conclusion
            assert check_labelled(out, ax, "refined")
            assert all(n.rule not in ("S", "diaR", "boxL")
                       for n in out.nodes())
            record("labelled", ax, p.conclusion)
        assert structural_steps > 0
        c["detail"] = (f"100 proofs refined, {structural_steps} structural "
                       "steps eliminated, conclusions preserved")


def _guided_interp(rng, m, seq):
    worlds = sorted(m.worlds)
    succ_of = {}
    for a, b in sorted(m.acc):
        succ_of.setdefault(a, []).append(b)
    interp = {}
    for a, b in seq.rel:
        if a not in interp:
            interp[a] = rng.choice(worlds)
        if b not in interp:
            step = succ_of.get(interp[a])
            interp[b] = rng.choice(step) if step else rng.choice(worlds)
    for lab in sorted(seq.labels()):
        interp.setdefault(lab, rng.choice(worlds))
    return interp


def test_criterion_6_model_soundness():
    # runs after the producers above; needs their recorded conclusions
    with criterion(6, 120.0) as c:
        assert len(ACCEPTED) >= 400, "registry incomplete; run the whole module"
        model_cache: dict = {}

        def models_for(ax):
            if ax not in model_cache:
                ms = [random_model(ax, 5, seed) for seed in range(200)]
                for m in ms[:5]:
                    assert check_model(m) == []
                    assert check_frame_conditions(m, ax) == []
                model_cache[ax] = ms
            return model_cache[ax]

        counterexamples = 0
        engaged = 0
        probes = 0
        items = [ACCEPTED[k] for k in sorted(ACCEPTED, key=repr)]
        for idx, (kind, ax, obj) in enumerate(items):
            ms = models_for(ax)
            if kind == "formula":
                for m in ms:
                    probes += 1
                    engaged += 1
                    if not globally_true(m, obj):
                        counterexamples += 1
                continue
            seq = to_labelled(obj) if kind == "nested" else obj
            for j, m in enumerate(ms):
                probes += 1
                rng = random.Random(idx * 1000003 + j)
                interp = _guided_interp(rng, m, seq)
                if all((interp[a], interp[b]) in m.acc for a, b in seq.rel):
                    engaged += 1
                if not sat_sequent(m, interp, seq):
                    counterexamples += 1
        assert counterexamples == 0
        assert engaged > probes // 4
        c["detail"] = (f"{len(ACCEPTED)} conclusions x 200 models, "
                       f"{counterexamples} counterexamples, "
                       f"{engaged}/{probes} probes engaged")
