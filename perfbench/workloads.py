"""The four workloads: their inputs, one timed item, and its checks.

Each workload is a closed loop with one caller: ``run`` times one item
through the library and returns ``(output, seconds)``; ``check`` compares
an output with the expected answer and returns an error message or None.
Only library calls sit inside the timed regions.  Input generation and
checks run outside them, and checks run with the tracer uninstalled, so
they add to no layer.

Library calls go through module attributes (``lib.nested.prove_bounded``)
at call time, so the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import statistics
import time
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Seed the frozen expectations were made with.  prove and check compare
# with frozen answers on every seed; ladder compares twin verdicts only
# on this seed and checks derives against reachable on every seed.
FROZEN_SEED = 77001

clock = time.perf_counter


def axioms(lib, spec: dict):
    return lib.formula.axiom_set([tuple(p) for p in spec["hsl"]], d=spec["d"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tail_index(n: int) -> int:
    """Index, in ascending order, of the sample with ten samples above it;
    the largest sample when there are fewer than eleven."""
    return n - 11 if n >= 11 else n - 1


# --- prove ----------------------------------------------------------------

ATOMS = ("p", "q", "r")
# prove and check take their seed as a renaming of p, q, r to three of
# these letters.  A bijective renaming keeps every search and every
# check step for step, so each seed does the same work on inputs and
# outputs that differ.  Fresh random goals would not: one 300-goal
# corpus per seed took 1.5 s to 23 s at depth 5 here.
NAME_POOL = "abcefghjkmnstuvwxyz"


def atom_renaming(seed: int) -> dict:
    return dict(zip(ATOMS, random.Random(seed).sample(NAME_POOL, len(ATOMS))))


def rename_formula(F, f, ren: dict):
    t = type(f)
    if t is F.Atom:
        return F.Atom(ren.get(f.name, f.name))
    if t is F.Bot:
        return F.Bot()
    if t is F.Dia or t is F.Box:
        return t(rename_formula(F, f.body, ren))
    return t(rename_formula(F, f.left, ren), rename_formula(F, f.right, ren))


def rename_nested(lib, s, ren: dict):
    F = lib.formula
    return lib.nested.NestedSequent(
        tuple(rename_formula(F, f, ren) for f in s.inputs),
        None if s.output is None else rename_formula(F, s.output, ren),
        tuple(rename_nested(lib, c, ren) for c in s.children))


def rename_nested_proof(lib, p, ren: dict):
    return lib.nested.NestedProof(
        rename_nested(lib, p.conclusion, ren), p.rule, dict(p.params),
        tuple(rename_nested_proof(lib, q, ren) for q in p.premises))


class Prove:
    """Bounded proof search on the frozen criterion-7 goal corpus."""

    name = "prove"

    def __init__(self, lib, seed: int):
        self.lib = lib
        spec = json.loads((DATA / "prove.json").read_text())
        self.depth = spec["depth"]
        self.ren = atom_renaming(seed)
        self.back = {v: k for k, v in self.ren.items()}
        self.goals = [(axioms(lib, g["axioms"]),
                       rename_nested(lib, lib.nested.parse_nested(g["goal"]),
                                     self.ren))
                      for g in spec["goals"]]
        self.expect = [(g["proved"], g["digest"]) for g in spec["goals"]]

    def items(self) -> list:
        # fresh sequent objects, so no cached key survives from a pass
        return [(ax, rename_nested(self.lib, goal, {})) for ax, goal in self.goals]

    def run(self, item):
        ax, goal = item
        t0 = clock()
        proof = self.lib.nested.prove_bounded(goal, ax, self.depth)
        return proof, clock() - t0

    def check(self, i: int, item, proof):
        proved, want = self.expect[i]
        if (proof is not None) != proved:
            return f"goal #{i + 1}: proved={proof is not None}, expected {proved}"
        if proof is None:
            return None
        res = self.lib.nested.check_nested(proof, item[0])
        if not res:
            return f"goal #{i + 1}: proof fails check_nested: {res.message}"
        text = self.lib.proofio.dump_proof(
            rename_nested_proof(self.lib, proof, self.back))
        if digest(text) != want:
            return f"goal #{i + 1}: proof JSON differs from the frozen one"
        return None


# --- check ----------------------------------------------------------------

def _proof_nodes(node: dict):
    yield node
    for sub in node["premises"]:
        yield from _proof_nodes(sub)


def mutate(rng: random.Random, text: str, calculus: str) -> str:
    """A copy of a proof file that every checker must reject.

    Either a nested path letter flips (d and b edges never both join two
    nodes of a bracket tree, so the path leaves the sequent's graph), or
    one node's premise count changes (every rule fixes its arity).
    """
    root = json.loads(text)
    nodes = list(_proof_nodes(root))
    paths = [n for n in nodes if "path" in n["params"]]
    if calculus == "nested" and paths and rng.random() < 0.5:
        path = rng.choice(paths)["params"]["path"]
        j = 2 * rng.randrange(len(path) // 2) + 1
        path[j] = "b" if path[j] == "d" else "d"
    else:
        node = rng.choice(nodes)
        if node["premises"]:
            del node["premises"][rng.randrange(len(node["premises"]))]
        else:
            node["premises"].append({"rule": node["rule"],
                                     "conclusion": node["conclusion"],
                                     "params": dict(node["params"]),
                                     "premises": []})
    return json.dumps(root, indent=2) + "\n"


_ATOM = re.compile(r"\b(?:" + "|".join(ATOMS) + r")\b")


def rename_proof_text(text: str, ren: dict) -> str:
    """The proof file with atoms renamed in its conclusions and formula
    parameters.  Labels and node ids are never a bare p, q or r."""
    root = json.loads(text)
    for node in _proof_nodes(root):
        node["conclusion"] = _ATOM.sub(lambda m: ren[m.group()], node["conclusion"])
        if "formula" in node["params"]:
            node["params"]["formula"] = _ATOM.sub(lambda m: ren[m.group()],
                                                  node["params"]["formula"])
    return json.dumps(root, indent=2) + "\n"


def nested_pipeline(lib, text: str, bad: str, ax) -> list:
    """load, check, to labelled, check, back to nested, check, dump; then
    the mutated copy.  Verdicts: checks pass, the round trip proves an
    equal conclusion, the mutant is rejected."""
    p = lib.proofio.load_nested_proof(text)
    v = [bool(lib.nested.check_nested(p, ax))]
    lab = lib.translate.translate_proof(p, "labelled", ax)
    v.append(bool(lib.labelled.check_labelled(lab, ax, "refined")))
    back = lib.translate.translate_proof(lab, "nested", ax)
    v.append(bool(lib.nested.check_nested(back, ax)))
    v.append(back.conclusion == p.conclusion)
    lib.proofio.dump_proof(lab)
    v.append(not lib.nested.check_nested(lib.proofio.load_nested_proof(bad), ax))
    return v


def labelled_pipeline(lib, text: str, bad: str, ax) -> list:
    """load, check in base mode, eliminate_structural, check in refined
    mode, to nested, check, dump; then the mutated copy."""
    p = lib.proofio.load_labelled_proof(text)
    v = [bool(lib.labelled.check_labelled(p, ax, "base"))]
    q = lib.refine.eliminate_structural(p, ax)
    v.append(bool(lib.labelled.check_labelled(q, ax, "refined")))
    v.append(q.conclusion == p.conclusion)
    n = lib.translate.translate_proof(q, "nested", ax)
    v.append(bool(lib.nested.check_nested(n, ax)))
    v.append(n.conclusion == lib.translate.to_nested(p.conclusion))
    lib.proofio.dump_proof(n)
    bad_p = lib.proofio.load_labelled_proof(bad)
    v.append(not lib.labelled.check_labelled(bad_p, ax, "base"))
    return v


PIPELINES = {"nested": nested_pipeline, "labelled": labelled_pipeline}


def read_check_corpus() -> list:
    with open(DATA / "check.jsonl") as fh:
        return [json.loads(line) for line in fh]


class Check:
    """Frozen proof files through the read, check and convert path."""

    name = "check"

    def __init__(self, lib, seed: int):
        self.lib = lib
        ren = atom_renaming(seed)
        # mutants are fixed, so every seed checks the same amount of proof
        rng = random.Random(FROZEN_SEED)
        self.files = []
        for e in read_check_corpus():
            bad = mutate(rng, e["proof"], e["calculus"])
            self.files.append((e["calculus"], axioms(lib, e["axioms"]),
                               rename_proof_text(e["proof"], ren),
                               rename_proof_text(bad, ren), e["verdicts"]))

    def items(self) -> list:
        return self.files

    def run(self, item):
        calculus, ax, text, bad, _ = item
        t0 = clock()
        verdicts = PIPELINES[calculus](self.lib, text, bad, ax)
        return verdicts, clock() - t0

    def check(self, i: int, item, verdicts):
        if verdicts != item[4]:
            return f"file {i}: verdicts {verdicts}, expected {item[4]}"
        return None


# --- ladder ---------------------------------------------------------------

# Two grammars whose productions grow a string by one letter, so every
# rung length is reachable by expansion and rung lengths double exactly.
LADDER_AXIOMS = ({"hsl": [[1, 1]], "d": False}, {"hsl": [[2, 0]], "d": False})
RUNGS = (6, 12, 24, 48)
PER_RUNG = 4


def productions(spec: dict) -> list:
    """The grammar of the paper: d -> b^n d^k and b -> b^k d^n per pair."""
    out = []
    for n, k in spec["hsl"]:
        out.append(("d", "b" * n + "d" * k))
        out.append(("b", "b" * k + "d" * n))
    return out


def expand(rng: random.Random, prods: list, length: int) -> str:
    """A string derived from d by seeded rewriting, `length` letters long."""
    s = ["d"]
    while len(s) < length:
        room = length - len(s)
        moves = [(i, rhs) for i, c in enumerate(s) for lhs, rhs in prods
                 if lhs == c and 0 < len(rhs) - 1 <= room]
        if not moves:
            raise ValueError(f"no rewrite reaches length {length}")
        i, rhs = rng.choice(moves)
        s[i:i + 1] = rhs
    return "".join(s)


class Ladder:
    """derives and reachable on strings of doubling length.

    The strings are drawn from FROZEN_SEED and the run seed picks the
    letter each twin flips.  derives took from 0.09 s to 0.18 s on ten
    64-letter strings of the (2,0) grammar, so strings drawn per seed
    would add that spread to the top rung's few items.
    """

    name = "ladder"

    def __init__(self, lib, seed: int):
        self.lib = lib
        G = lib.grammar
        rng = random.Random(FROZEN_SEED)
        flips = random.Random(seed)
        grammars = [(G.grammar_from_axioms(axioms(lib, spec)), productions(spec))
                    for spec in LADDER_AXIOMS]
        self.cases = []
        for rung in RUNGS:
            for _ in range(PER_RUNG):
                row = []
                for g, prods in grammars:
                    s = expand(rng, prods, rung)
                    j = flips.randrange(rung)
                    twin = s[:j] + ("b" if s[j] == "d" else "d") + s[j + 1:]
                    row.append((g, G.syms(s), G.syms(twin),
                                self._line(s), self._line(twin), str(rung)))
                self.cases.append((rung, row))
        golden = json.loads((DATA / "golden.json").read_text())["ladder"]
        self.twins = golden["twins"] if seed == golden["seed"] else None
        # per-call seconds by (function, rung), from untraced passes
        self.call_s: dict = {}

    def _line(self, s: str):
        """The string's line graph: nodes 0..n, one edge per letter, so
        the only walk from 0 to n spells the string."""
        G = self.lib.grammar
        return G.PropGraph(frozenset(str(i) for i in range(len(s) + 1)),
                           frozenset((str(i), G.Sym(c), str(i + 1))
                                     for i, c in enumerate(s)))

    def items(self) -> list:
        return self.cases

    def run(self, item):
        G = self.lib.grammar
        fwd = G.Sym.FWD
        total = 0.0
        out = []
        for g, s, twin, line_s, line_t, end in item[1]:
            t0 = clock()
            der_s = G.derives(g, fwd, s)
            t1 = clock()
            der_t = G.derives(g, fwd, twin)
            t2 = clock()
            reach_s = G.reachable(line_s, g, "0", end)
            t3 = clock()
            reach_t = G.reachable(line_t, g, "0", end)
            t4 = clock()
            total += t4 - t0
            out.append((der_s, der_t, reach_s is not None, reach_t is not None,
                        (t1 - t0, t2 - t1), (t3 - t2, t4 - t3)))
        return out, total

    def record(self, item, out) -> None:
        for *_, derives_s, reachable_s in out:
            self.call_s.setdefault(("derives", item[0]), []).extend(derives_s)
            self.call_s.setdefault(("reachable", item[0]), []).extend(reachable_s)

    def check(self, i: int, item, out):
        for k, (der_s, der_t, reach_s, reach_t, _, _) in enumerate(out):
            where = f"rung {item[0]} string {i % PER_RUNG} grammar {k}"
            if not (der_s and reach_s):
                return (f"{where}: derivable string rejected "
                        f"(derives={der_s}, reachable={reach_s})")
            if der_t != reach_t:
                return f"{where}: twin derives={der_t} but reachable={reach_t}"
            if self.twins is not None and der_t != self.twins[i][k]:
                return f"{where}: twin verdict {der_t}, frozen {self.twins[i][k]}"
        return None

    def latency_items(self, n: int) -> list:
        """Latency metrics read the top rung only."""
        return [i for i in range(n) if self.cases[i][0] == RUNGS[-1]]

    def growth(self, samples: dict) -> float:
        """log2 of the median time ratio between the top two rungs."""
        hi, lo = samples.get(RUNGS[-1]), samples.get(RUNGS[-2])
        if not hi or not lo:
            return 0.0
        return math.log2(statistics.median(hi) / statistics.median(lo))


# --- sweep ----------------------------------------------------------------

MODELS_PER_AXIOM_SET = 200
MAX_WORLDS = 5


def guided_interp(rng: random.Random, m, seq) -> dict:
    """Labels to worlds, following acc along the relational atoms where it
    can, so that most probes engage the sequent (as in criterion 6)."""
    worlds = sorted(m.worlds)
    succ_of: dict = {}
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


def corpus_conclusions(lib) -> dict:
    """Labelled conclusions of the check corpus, by axiom set."""
    groups: dict = {}
    for e in read_check_corpus():
        text = json.loads(e["proof"])["conclusion"]
        if e["calculus"] == "nested":
            seq = lib.translate.to_labelled(lib.nested.parse_nested(text))
        else:
            seq = lib.labelled.parse_labelled_sequent(text)
        key = json.dumps(e["axioms"], sort_keys=True)
        groups.setdefault(key, {})[lib.labelled.render_labelled_sequent(seq)] = seq
    return {key: list(seqs.values()) for key, seqs in sorted(groups.items())}


class Sweep:
    """Random models, frame and model checks, and sat_sequent.

    As in acceptance criterion 6, the models of an axiom set are
    random_model(ax, 5, j) for j in range(MODELS_PER_AXIOM_SET); the run
    seed draws the guided interpretations.  Model seeds from the run
    seed moved the slowest items by 17% between seeds.
    """

    name = "sweep"

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.expect = json.loads((DATA / "golden.json").read_text())["sweep"]
        rng = random.Random(seed)
        self.models = []
        for key, seqs in corpus_conclusions(lib).items():
            ax = axioms(lib, json.loads(key))
            for j in range(MODELS_PER_AXIOM_SET):
                self.models.append((ax, j, rng.getrandbits(32), seqs))

    def items(self) -> list:
        return self.models

    def run(self, item):
        M = self.lib.models
        ax, mseed, iseed, seqs = item
        t0 = clock()
        m = M.random_model(ax, MAX_WORLDS, mseed)
        violations = len(M.check_model(m)) + len(M.check_frame_conditions(m, ax))
        spent = clock() - t0
        rng = random.Random(iseed)
        counterexamples = engaged = 0
        for seq in seqs:
            interp = guided_interp(rng, m, seq)
            engaged += all((interp[a], interp[b]) in m.acc for a, b in seq.rel)
            t0 = clock()
            holds = M.sat_sequent(m, interp, seq)
            spent += clock() - t0
            counterexamples += not holds
        return (violations, counterexamples, engaged, len(seqs)), spent

    def check(self, i: int, item, out):
        violations, counterexamples, _, _ = out
        if (violations != self.expect["frame_violations"]
                or counterexamples != self.expect["counterexamples"]):
            return (f"model {i}: {violations} frame or model violations, "
                    f"{counterexamples} counterexamples")
        return None

    def check_pass(self, outs: list):
        engaged = sum(o[2] for o in outs if isinstance(o, tuple))
        probes = sum(o[3] for o in outs if isinstance(o, tuple))
        if engaged <= probes // 4:
            return f"only {engaged} of {probes} probes engaged their sequent"
        return None


WORKLOADS = {w.name: w for w in (Prove, Check, Ladder, Sweep)}
