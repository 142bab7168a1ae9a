"""Tree recognition and the two translations, sequent and proof level."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from imseq import translate
from imseq.formula import MAX_NESTING, Atom, Bot, axiom_set, parse_formula
from imseq.gen import (random_full_nested, random_labelled_proof,
                       random_tree_labelled)
from imseq.labelled import (REFINED_RULES, LabelledProof, LabelledSequent,
                            check_labelled, parse_labelled_sequent)
from imseq.nested import (EMPTY, NESTED_RULES, NestedProof, NestedSequent,
                          check_nested, nseq, parse_nested, parse_path_id,
                          path_id, prove_formula)
from imseq.proof import Proof, rebuild
from imseq.proofio import dump_proof, load_labelled_proof, load_nested_proof
from imseq.refine import eliminate_structural
from imseq.translate import is_labelled_tree, to_labelled, to_nested, translate_proof
from oracles import canonical_relabel, ref_proof_to_labelled, ref_proof_to_nested


def L(text):
    return parse_labelled_sequent(text)


def N(text):
    return parse_nested(text)


def test_tree_cert_on_worked_sequent():
    cert = is_labelled_tree(L("w R v, v R u ; v: p, u: []p |- w: p -> q"))
    assert cert is not None
    assert cert.root == "w"
    assert cert.parent == {"v": "w", "u": "v"}


def test_tree_cert_degenerate():
    cert = is_labelled_tree(L("; w: p |- w: p"))
    assert cert is not None
    assert cert.root == "w" and cert.parent == {}


def test_tree_cert_rejections():
    assert is_labelled_tree(L("w R u, v R u ; |- w: p")) is None  # two parents
    assert is_labelled_tree(L("w R u ; v: p |- w: p")) is None    # stray label
    assert is_labelled_tree(L("w R w ; |- w: p")) is None         # self loop
    assert is_labelled_tree(L("w R u, w R u ; |- w: p")) is None  # repeated atom
    assert is_labelled_tree(L("a R b, b R a ; |- c: p")) is None  # detached cycle


def test_to_labelled_worked_example():
    s = N("p -> q^o, [ p^i, [ []p^i ] ]")
    assert to_labelled(s) == L("w0 R w1, w1 R w2 ; w1: p, w2: []p |- w0: p -> q")


def test_to_labelled_small_cases():
    assert to_labelled(N("p & q^o")) == L("; |- w0: p & q")
    assert to_labelled(N("[ p^o ]")) == L("w0 R w1 ; |- w1: p")


def test_to_labelled_needs_full():
    with pytest.raises(ValueError):
        to_labelled(N("p^i"))
    with pytest.raises(ValueError):
        to_labelled(N("p^o, [ q^o ]"))


def test_to_nested_worked_example():
    s = L("w R v, v R u ; v: p, u: []p |- w: p -> q")
    assert to_nested(s) == N("p -> q^o, [ p^i, [ []p^i ] ]")


def test_to_nested_degenerate():
    assert to_nested(L("; |- w: p")) == N("p^o")


def test_to_nested_rejects_non_tree():
    with pytest.raises(ValueError):
        to_nested(L("w R u, v R u ; |- w: p"))


def test_to_nested_label_depth_limit():
    def chain(n):
        rel = tuple((f"w{i}", f"w{i + 1}") for i in range(n))
        return LabelledSequent(rel, (), ("w0", Bot()))

    assert to_nested(chain(MAX_NESTING)) == parse_nested(
        "false^o" + ", [ " * MAX_NESTING + " ]" * MAX_NESTING)
    with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING} levels"):
        to_nested(chain(MAX_NESTING + 1))


def test_to_nested_order_is_canonical():
    a = to_nested(L("w R u, w R v ; u: p, v: q |- w: r"))
    b = to_nested(L("w R v, w R u ; v: q, u: p |- w: r"))
    c = to_nested(L("a R c, a R b ; c: p, b: q |- a: r"))
    assert str(a) == str(b) == str(c)


def test_nested_round_trip_exact():
    rng = random.Random(7001)
    for _ in range(500):
        s = random_full_nested(rng, depth=3, width=2)
        assert to_nested(to_labelled(s)) == s


def test_labelled_round_trip_up_to_renaming():
    rng = random.Random(7002)
    for _ in range(200):
        s = random_tree_labelled(rng)
        back = to_labelled(to_nested(s))
        assert canonical_relabel(back) == canonical_relabel(s)


def test_canonical_relabel_collapses_bijective_copies():
    a = L("w R u, w R v ; u: p, v: q |- w: r")
    b = L("k R m, k R z ; z: p, m: q |- k: r")
    assert canonical_relabel(a) == canonical_relabel(b)
    assert canonical_relabel(a).labels() == {"w0", "w1", "w2"}


def test_translate_single_id_both_ways():
    ax = axiom_set()
    p = LabelledProof(L("; w: p |- w: p"), "id", {}, ())
    q = translate_proof(p, "nested", ax)
    assert check_nested(q, ax)
    assert q.conclusion == N("p^i, p^o")
    back = translate_proof(q, "labelled", ax)
    assert check_labelled(back, ax, "refined")
    assert canonical_relabel(back.conclusion) == canonical_relabel(p.conclusion)


def test_translate_worked_refined_proof():
    ax = axiom_set([(1, 1)])
    concl = L("w R u, w R v ; u: p |- v: <>p")
    top = L("w R u, w R v ; u: p |- u: p")
    p = LabelledProof(concl, "pdia", {"path": ["v", "b", "w", "d", "u"]},
                      (LabelledProof(top, "id", {}, ()),))
    assert check_labelled(p, ax, "refined")

    q = translate_proof(p, "nested", ax)
    assert check_nested(q, ax)
    assert q.conclusion == N("[ <>p^o ], [ p^i ]")
    assert q.rule == "pdia"
    # same step string, node ids substituted for labels
    assert q.params["path"][1::2] == ["b", "d"]


def test_translate_round_trip_random_proofs():
    rng = random.Random(7003)
    ax = axiom_set([(1, 1)], d=True)
    for _ in range(50):
        p = random_labelled_proof(rng, ax, mode="refined", budget=4)
        assert check_labelled(p, ax, "refined")
        q = translate_proof(p, "nested", ax)
        assert check_nested(q, ax)
        back = translate_proof(q, "labelled", ax)
        assert check_labelled(back, ax, "refined")
        assert canonical_relabel(back.conclusion) == canonical_relabel(p.conclusion)
        assert back.height() == p.height()
        assert sorted(n.rule for n in back.nodes()) == sorted(n.rule for n in p.nodes())


def test_translate_after_elimination():
    """Base-mode proofs of tree sequents survive the whole chain:
    eliminate the relational rules, then push through the translation."""
    rng = random.Random(7004)
    ax = axiom_set([(0, 2), (1, 1)])
    used_s = 0
    for _ in range(40):
        base = random_tree_labelled(rng)
        anchor = sorted(base.labels())[0]
        root = LabelledSequent(base.rel, base.ante + ((anchor, Bot()),), base.succ)
        p = random_labelled_proof(rng, ax, mode="base", budget=4, root=root)
        assert check_labelled(p, ax, "base")
        used_s += any(n.rule == "S" for n in p.nodes())
        r = eliminate_structural(p, ax)
        q = translate_proof(r, "nested", ax)
        assert check_nested(q, ax)
        assert q.conclusion == to_nested(root)
    assert used_s > 0


def test_translate_rejects_relational_rules():
    ax = axiom_set([(1, 1)])
    concl = L("w R u, w R v ; u: p |- v: <>p")
    mid = L("w R u, w R v, u R v ; u: p |- v: <>p")
    top = L("w R u, w R v, u R v ; u: p |- u: p")
    p = LabelledProof(concl, "S",
                      {"n": 1, "k": 1, "chain_n": ["w", "u"], "chain_k": ["w", "v"]},
                      (LabelledProof(mid, "pdia", {"path": ["v", "b", "w", "d", "u"]},
                                     (LabelledProof(top, "id", {}, ()),)),))
    with pytest.raises(ValueError, match="eliminate"):
        translate_proof(p, "nested", ax)


def test_translate_rejects_non_tree_conclusion():
    ax = axiom_set()
    p = LabelledProof(L("w R u, v R u ; u: p |- u: p"), "id", {}, ())
    assert check_labelled(p, ax, "refined")
    with pytest.raises(ValueError, match="tree"):
        translate_proof(p, "nested", ax)


def test_translate_rejects_d_at_an_absent_label():
    """d must name a label of its conclusion: a new atom from an absent
    label would leave no labelled tree, so every mode refuses it, and
    translation reports the checker's failure."""
    ax = axiom_set(d=True)
    leaf = LabelledProof(L("zz R u ; w: false |- w: p"), "botL", {}, ())
    p = LabelledProof(L("; w: false |- w: p"), "d", {"world": "zz", "fresh": "u"},
                      (leaf,))
    message = "d: world 'zz' is not a label of the conclusion"
    for mode in ("base", "refined", "either"):
        res = check_labelled(p, ax, mode)
        assert (res.ok, res.message, res.at) == (False, message, "root")
    with pytest.raises(ValueError, match="input proof fails the checker at root: "
                       + re.escape(message)):
        translate_proof(p, "nested", ax)


def test_translate_rejects_broken_input():
    ax = axiom_set()
    bad = LabelledProof(L("; w: p |- w: q"), "id", {}, ())
    with pytest.raises(ValueError):
        translate_proof(bad, "nested", ax)


def test_translate_direction_validation():
    ax = axiom_set()
    p = LabelledProof(L("; w: p |- w: p"), "id", {}, ())
    with pytest.raises(ValueError):
        translate_proof(p, "labelled", ax)
    with pytest.raises(ValueError):
        translate_proof(p, "sideways", ax)


CHECK_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "check.jsonl"
REFINE_TRANSLATE_DIGEST = "ad81afe0c0485393f3cc1875eb50a26c5620ac5910f16e54208aeb41bfc2a3d4"


def test_refine_translate_output_matches_frozen_digest():
    """Byte-identical refine and translate output on the check corpus:
    nested proofs go to labelled and back, labelled proofs are refined
    and then go to nested; one SHA-256 over every output's JSON."""
    h = hashlib.sha256()
    with open(CHECK_CORPUS) as fh:
        entries = [json.loads(line) for line in fh]
    for e in entries:
        ax = axiom_set([tuple(p) for p in e["axioms"]["hsl"]], d=e["axioms"]["d"])
        if e["calculus"] == "nested":
            lab = translate_proof(load_nested_proof(e["proof"]), "labelled", ax)
            outs = [lab, translate_proof(lab, "nested", ax)]
        else:
            refined = eliminate_structural(load_labelled_proof(e["proof"]), ax)
            outs = [refined, translate_proof(refined, "nested", ax)]
        for out in outs:
            h.update(dump_proof(out).encode())
    assert len(entries) == 169
    assert h.hexdigest() == REFINE_TRANSLATE_DIGEST


def _corpus_proofs():
    """(calculus, proof, axioms) for every check-corpus file; labelled
    proofs refined first, so both directions have an input."""
    with open(CHECK_CORPUS) as fh:
        for line in fh:
            e = json.loads(line)
            ax = axiom_set([tuple(p) for p in e["axioms"]["hsl"]], d=e["axioms"]["d"])
            if e["calculus"] == "nested":
                yield "nested", load_nested_proof(e["proof"]), ax
            else:
                yield "labelled", eliminate_structural(
                    load_labelled_proof(e["proof"]), ax), ax


def _generated_proofs(n):
    """n refined labelled proofs: half grown in refined mode, half grown
    in base mode on tree roots and refined."""
    rng = random.Random(7005)
    axes = [axiom_set([(1, 1)], d=True), axiom_set([(0, 2), (1, 1)]), axiom_set(d=True)]
    for i in range(n):
        ax = axes[i % len(axes)]
        if i % 2:
            yield random_labelled_proof(rng, ax, mode="refined", budget=5), ax
            continue
        base = random_tree_labelled(rng)
        anchor = sorted(base.labels())[0]
        root = LabelledSequent(base.rel, base.ante + ((anchor, Bot()),), base.succ)
        yield eliminate_structural(
            random_labelled_proof(rng, ax, mode="base", budget=5, root=root), ax), ax


def _shuffled(p, rng):
    """The proof with the stored order of every conclusion scrambled:
    the brackets at every level of a nested sequent, with the node ids in
    params moved along, or the atoms and antecedent members of a
    labelled sequent."""
    def scramble(s):
        """(scrambled nested sequent, old address -> new address)"""
        kids = [scramble(c) for c in s.children]
        order = list(range(len(kids)))
        rng.shuffle(order)
        moved = {(): ()}
        for new, old in enumerate(order):
            moved.update({(old,) + a: (new,) + b for a, b in kids[old][1].items()})
        return NestedSequent(s.inputs, s.output, tuple(kids[i][0] for i in order)), moved

    def visit(q, _):
        s, params = q.conclusion, dict(q.params)
        if isinstance(s, LabelledSequent):
            rel, ante = list(s.rel), list(s.ante)
            rng.shuffle(rel)
            rng.shuffle(ante)
            s = LabelledSequent(tuple(rel), tuple(ante), s.succ)
        else:
            s, moved = scramble(s)

            def move(x):
                return path_id(moved[parse_path_id(x)])

            if "at" in params:
                params["at"] = move(params["at"])
            if "path" in params:
                params["path"] = [move(x) if i % 2 == 0 else x
                                  for i, x in enumerate(params["path"])]
        return s, q.rule, params, [(sub, None) for sub in q.premises]

    return rebuild(p, visit)


def _same_translation(p, direction, ax):
    out = translate_proof(p, direction, ax)
    ref = (ref_proof_to_nested if direction == "nested" else ref_proof_to_labelled)(p, ax)
    assert dump_proof(out) == dump_proof(ref)
    return out


def test_translation_matches_the_reference_walk():
    """Byte-identical output against the re-translate-every-node
    reference, both ways, on the check corpus, on generated proofs, and
    on copies whose stored premises list brackets, atoms and antecedent
    members in another order than the rules compute them."""
    rng = random.Random(7006)
    cases = list(_corpus_proofs())
    cases += [("labelled", p, ax) for p, ax in _generated_proofs(240)]
    assert len(cases) == 169 + 240
    shuffled = 0
    for calculus, p, ax in cases:
        direction = "labelled" if calculus == "nested" else "nested"
        out = _same_translation(p, direction, ax)
        back = _same_translation(out, calculus, ax)
        for q in (p, out, back):
            mixed = _shuffled(q, rng)
            if dump_proof(mixed) != dump_proof(q):
                shuffled += 1
            target = "nested" if isinstance(q.conclusion, LabelledSequent) else "labelled"
            _same_translation(mixed, target, ax)
    assert shuffled > 500


def _d_chain(n):
    """A nested proof of height n + 1: d applied n times at the root, then
    id.  Every level's conclusion has one more bracket than the last."""
    p, q = Atom("p"), Atom("q")
    inputs = (parse_formula("p & q"), parse_formula("<>q"), p)
    base = (nseq((q,)), nseq((q,)))
    proof = NestedProof(nseq(inputs, p, base + (EMPTY,) * n), "id",
                        {"at": "r", "index": 2}, ())
    for k in reversed(range(n)):
        proof = NestedProof(nseq(inputs, p, base + (EMPTY,) * k), "d", {"at": "r"},
                            (proof,))
    return proof


def _counting(monkeypatch):
    """Counters of NestedSequent constructions and _realign calls."""
    counts = {"built": 0, "realign": 0}
    init, realign = NestedSequent.__init__, translate._realign

    def counted_init(self, *args):
        counts["built"] += 1
        init(self, *args)

    def counted_realign(*args):
        counts["realign"] += 1
        return realign(*args)

    monkeypatch.setattr(NestedSequent, "__init__", counted_init)
    monkeypatch.setattr(translate, "_realign", counted_realign)
    return counts


def test_translation_work_grows_linearly_with_height(monkeypatch):
    """Doubling a d-chain's height at most doubles the nested sequents
    each direction builds (re-translating every node would quadruple
    them), and a proof whose premises are stored as the rules compute
    them is never realigned."""
    ax = axiom_set(d=True)
    counts = _counting(monkeypatch)
    built = {}
    for n in (600, 1200):
        p = _d_chain(n)
        counts.update(built=0, realign=0)
        lab = translate_proof(p, "labelled", ax)
        to_labelled_built = counts["built"]
        counts["built"] = 0
        back = translate_proof(lab, "nested", ax)
        built[n] = (to_labelled_built, counts["built"])
        assert counts["realign"] == 0
        assert back.conclusion == p.conclusion and back.height() == n + 1
    for small, large in zip(built[600], built[1200]):
        assert 0 < large <= 2.2 * small


def test_prover_proofs_are_never_realigned(monkeypatch):
    """Prover proofs store each premise as _premises computes it, also
    after a JSON round trip, so translation never realigns them."""
    ax = axiom_set([(1, 1)], d=True)
    counts = _counting(monkeypatch)
    proved = 0
    for text in ("<>p -> <>(p | q)", "[](p & q) -> []p", "[]p -> <>p",
                 "<>[]p -> []p", "(p -> q) -> []p -> []q", "<>(p & q) -> <>p"):
        p = prove_formula(parse_formula(text), ax, 6)
        if p is None:
            continue
        proved += 1
        for q in (p, load_nested_proof(dump_proof(p))):
            lab = translate_proof(q, "labelled", ax)
            assert dump_proof(lab) == dump_proof(ref_proof_to_labelled(q, ax))
    assert proved >= 4 and counts["realign"] == 0


def _mutant(p, rng, rules):
    """A copy of p with one seeded mutation at a random node: a flipped
    path letter, a dropped or an added premise, or another rule name."""
    nodes = list(p.nodes())
    target = rng.randrange(len(nodes))
    kinds = ["drop" if nodes[target].premises else "add", "rule"]
    if "path" in nodes[target].params and len(nodes[target].params["path"]) > 1:
        kinds.append("path")
    kind = rng.choice(kinds)
    seen = [0]

    def visit(q, _):
        here = seen[0] == target
        seen[0] += 1
        rule, params, subs = q.rule, q.params, list(q.premises)
        if here and kind == "path":
            path = list(params["path"])
            j = 2 * rng.randrange(len(path) // 2) + 1
            path[j] = "b" if path[j] == "d" else "d"
            params = {**params, "path": path}
        elif here and kind == "drop":
            del subs[rng.randrange(len(subs))]
        elif here and kind == "add":
            subs.append(Proof(q.conclusion, q.rule, q.params, ()))
        elif here:
            rule = rng.choice(sorted(rules - {q.rule}))
        return q.conclusion, rule, params, [(sub, None) for sub in subs]

    return rebuild(p, visit)


def test_mutants_fail_where_the_checker_fails():
    """On seeded mutants of generated proofs, in both directions, the
    translation returns a checking proof exactly when the input checks,
    and otherwise raises ValueError naming the checker's first failure."""
    rng = random.Random(7007)
    axes = [axiom_set([(1, 1)], d=True), axiom_set([(0, 2), (1, 1)])]
    failed = 0
    for i in range(300):
        ax = axes[i % 2]
        lab = random_labelled_proof(rng, ax, mode="refined", budget=4)
        nes = translate_proof(lab, "nested", ax)
        for p, rules, direction, checker in (
                (lab, REFINED_RULES, "nested", lambda q: check_labelled(q, ax, "refined")),
                (nes, NESTED_RULES, "labelled", lambda q: check_nested(q, ax))):
            bad = _mutant(p, rng, rules)
            res = checker(bad)
            try:
                out = translate_proof(bad, direction, ax)
            except ValueError as e:
                assert not res, e
                assert str(e) == f"input proof fails the checker at {res.at}: {res.message}"
                failed += 1
                continue
            assert res
            target = check_nested(out, ax) if direction == "nested" else \
                check_labelled(out, ax, "refined")
            assert target
    assert failed > 450


def test_a_drifted_rule_mapping_is_caught(monkeypatch):
    """Both calculi must make the same edit at the principal: a labelled
    rule that computes other premises than the nested one (here orL with
    its premises swapped) raises as drifted instead of giving output."""
    ax = axiom_set()
    p = prove_formula(parse_formula("p | q -> q | p"), ax, 5)
    assert any(q.rule == "orI" for q in p.nodes())
    real = translate.premises_of_labelled

    def swapped(seq, rule, params, axioms):
        prems = real(seq, rule, params, axioms)
        return prems[::-1] if rule == "orL" else prems

    monkeypatch.setattr(translate, "premises_of_labelled", swapped)
    with pytest.raises(ValueError, match="translation drifted at "):
        translate_proof(p, "labelled", ax)
