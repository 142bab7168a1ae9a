"""Regenerate the frozen corpus and expected outputs under data/.

Run from the repository root:

    python3 perfbench/freeze.py

The benchmark compares every run with these files, so rerun this only
to change the corpus on purpose, and say so where the change is
recorded: a perf change must leave them untouched.  It refuses to write
anything unless every proof checks, every check-corpus verdict holds
and derives agrees with reachable on every ladder string.
"""

from __future__ import annotations

import json
import random
import sys

from run import ROOT, import_library, run_pass
from workloads import (DATA, FROZEN_SEED, PIPELINES, Ladder, Sweep, axioms,
                       digest, mutate)

PROVE_DEPTH = 5
PROVE_GOALS = 300
EXTRA_NESTED = 40
LABELLED_PROOFS = 60
AX_EMPTY = {"hsl": [], "d": False}
AX_7 = {"hsl": [[1, 1]], "d": True}
# the axiom mixes of acceptance criterion 8
MIXES = [{"hsl": [[0, 0]], "d": False}, {"hsl": [[0, 1]], "d": False},
         {"hsl": [[1, 0]], "d": False}, {"hsl": [[1, 1]], "d": False},
         {"hsl": [[2, 1]], "d": False}, {"hsl": [[1, 2]], "d": False},
         {"hsl": [[2, 2]], "d": True}, {"hsl": [[0, 2]], "d": False},
         {"hsl": [[2, 0]], "d": True}, {"hsl": [[0, 1], [1, 1]], "d": False}]


def prove_corpus(lib):
    """The criterion-7 goal generator (seed 77001): bracket depth 1 to 3,
    width 2, axiom sets alternating {(1,1), d} and {}."""
    rng = random.Random(FROZEN_SEED)
    goals, proofs = [], []
    for i in range(PROVE_GOALS):
        spec = AX_7 if (i + 1) % 2 else AX_EMPTY
        goal = lib.gen.random_full_nested(rng, depth=rng.randint(1, 3), width=2)
        text = lib.nested.render_nested(goal)
        if lib.nested.render_nested(lib.nested.parse_nested(text)) != text:
            sys.exit(f"goal #{i + 1} does not survive render and parse")
        ax = axioms(lib, spec)
        proof = lib.nested.prove_bounded(goal, ax, PROVE_DEPTH)
        entry = {"axioms": spec, "goal": text, "proved": proof is not None,
                 "digest": None}
        if proof is not None:
            if not lib.nested.check_nested(proof, ax):
                sys.exit(f"goal #{i + 1}: the prover's proof does not check")
            text = lib.proofio.dump_proof(proof)
            entry["digest"] = digest(text)
            proofs.append(("nested", spec, text))
        goals.append(entry)
        print(f"prove goal #{i + 1}: proved={proof is not None}", file=sys.stderr)
    return goals, proofs


def extra_nested(lib):
    """Further easy goals: bracket depth 1 to 2, first ones proved."""
    rng = random.Random(FROZEN_SEED + 1)
    out = []
    attempt = 0
    while len(out) < EXTRA_NESTED:
        attempt += 1
        spec = AX_7 if attempt % 2 else AX_EMPTY
        goal = lib.gen.random_full_nested(rng, depth=rng.randint(1, 2), width=2)
        proof = lib.nested.prove_bounded(goal, axioms(lib, spec), PROVE_DEPTH)
        if proof is not None:
            out.append(("nested", spec, lib.proofio.dump_proof(proof)))
    return out


def labelled_proofs(lib):
    """Base-mode proofs over the criterion-8 mixes, grown from tree roots
    so that refinement can be translated to the nested calculus."""
    rng = random.Random(88001)
    out = []
    for i in range(LABELLED_PROOFS):
        spec = MIXES[i % len(MIXES)]
        base = lib.gen.random_tree_labelled(rng, 2, 2)
        bot = (rng.choice(sorted(base.labels())), lib.formula.Bot())
        root = lib.labelled.LabelledSequent(base.rel, base.ante + (bot,), base.succ)
        p = lib.gen.random_labelled_proof(rng, axioms(lib, spec), mode="base",
                                          budget=6, root=root)
        out.append(("labelled", spec, lib.proofio.dump_proof(p)))
    return out


def main() -> int:
    lib = import_library(ROOT)
    goals, proofs = prove_corpus(lib)
    files = proofs + extra_nested(lib) + labelled_proofs(lib)
    rng = random.Random(FROZEN_SEED)
    rows = []
    for k, (calculus, spec, text) in enumerate(files):
        bad = mutate(rng, text, calculus)
        verdicts = PIPELINES[calculus](lib, text, bad, axioms(lib, spec))
        if not all(verdicts):
            sys.exit(f"check corpus file {k} ({calculus}): verdicts {verdicts}")
        rows.append({"calculus": calculus, "axioms": spec, "proof": text,
                     "verdicts": verdicts})

    DATA.mkdir(exist_ok=True)
    (DATA / "prove.json").write_text(json.dumps(
        {"generator_seed": FROZEN_SEED, "depth": PROVE_DEPTH, "goals": goals},
        indent=1) + "\n")
    with open(DATA / "check.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    golden = {"ladder": {"seed": None, "twins": []},
              "sweep": {"seed": FROZEN_SEED, "counterexamples": 0,
                        "frame_violations": 0}}
    (DATA / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")

    ladder = Ladder(lib, FROZEN_SEED)
    p = run_pass(ladder, lib)
    if p.errors:
        sys.exit(f"ladder: {p.errors[:3]}")
    outs = [ladder.run(item)[0] for item in ladder.items()]
    golden["ladder"] = {"seed": FROZEN_SEED,
                        "twins": [[o[1] for o in out] for out in outs]}
    p = run_pass(Sweep(lib, FROZEN_SEED), lib)
    if p.errors:
        sys.exit(f"sweep: {p.errors[:3]}")
    (DATA / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    print(f"froze {len(goals)} goals ({len(proofs)} proved), {len(rows)} proof "
          f"files, {len(outs)} ladder rows", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
