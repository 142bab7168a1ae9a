"""End-to-end runs of the command line entry point."""

import json
import random
import time

import pytest

from imseq.cli import main
from imseq.formula import MAX_NESTING, MAX_TREE_SIZE, axiom_set, parse_formula
from imseq.gen import random_labelled_proof
from imseq.grammar import MAX_REACH_NODES, MAX_SATURATION_FACTS
from imseq.models import (model_of, one_world_countermodel, sat_sequent,
                          two_world_countermodel)
from imseq.nested import nseq
from imseq.proofio import dump_proof, load_nested_proof
from imseq.translate import to_labelled


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_round_trip(capsys):
    code, out, _ = run(capsys, "parse", "p&q|~r->[]p")
    assert code == 0
    assert out.strip() == "p & q | (r -> false) -> []p"
    code, _, err = run(capsys, "parse", "p &")
    assert code == 2 and err


@pytest.mark.parametrize("nest", [
    lambda n: "~" * n + "p",
    lambda n: "(" * n + "p" + ")" * n,
    lambda n: "p & " * n + "p",
    lambda n: "p -> " * (n // 2) + "<>" * (n - n // 2) + "p",
], ids=["neg", "parens", "and-chain", "imp-then-dia"])
def test_parse_nesting_limit(capsys, nest):
    code, out, _ = run(capsys, "parse", nest(MAX_NESTING))
    assert code == 0 and out.strip()
    code, out, err = run(capsys, "parse", nest(MAX_NESTING + 1))
    assert code == 2 and not out
    assert f"nested deeper than {MAX_NESTING} levels" in err


def test_parse_rejects_iff_blow_up(capsys):
    """<-> shares its sides, so a chain of n prints about 6 * 2^n nodes;
    past MAX_TREE_SIZE it is a parse error instead."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "parse", "p <-> " * 40 + "p")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and not out
    assert f"more than {MAX_TREE_SIZE}" in err and "Traceback" not in err
    code, out, _ = run(capsys, "parse", "p <-> " * 8 + "p")
    assert code == 0
    assert parse_formula(out.strip()) == parse_formula("p <-> " * 8 + "p")


def test_reach_prints_witness(capsys):
    code, out, _ = run(capsys, "reach", "v R u, u R w", "w", "u", "--hsl", "2,1")
    assert code == 0
    assert out.split() == ["w", "b", "u", "b", "v", "d", "u"]
    code, out, _ = run(capsys, "reach", "v R u", "u", "v")
    assert code == 1 and out.strip() == "unreachable"


def test_reach_answers_no_walk_on_a_long_chain(capsys):
    """w0 to w400 along a 400-edge chain spells d^400, which hsl(1,1)
    cannot derive: the bitmask closure says so without saturating."""
    rel = ", ".join(f"w{i} R w{i + 1}" for i in range(400))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "reach", rel, "w0", "w400", "--hsl", "1,1")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out.strip()) == (1, "unreachable")


def test_reach_refuses_a_chain_past_the_saturation_limit(capsys):
    """w1 to w129 along a 129-edge chain has a walk under hsl(1,1), and
    its witness saturation records 100,110 facts, past
    MAX_SATURATION_FACTS (a 128-edge chain records 98,566)."""
    rel = ", ".join(f"w{i} R w{i + 1}" for i in range(129))
    code, out, err = run(capsys, "reach", rel, "w1", "w129", "--hsl", "1,1")
    assert (code, out) == (2, "")
    assert f"passed {MAX_SATURATION_FACTS} facts" in err and "Traceback" not in err


def test_reach_refuses_a_chain_past_the_node_limit(capsys):
    """A chain of MAX_REACH_NODES edges has one node more than the limit:
    refused before the bitmask closure, which there would take about a
    second."""
    n = MAX_REACH_NODES
    rel = ", ".join(f"w{i} R w{i + 1}" for i in range(n))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "reach", rel, "w1", f"w{n}", "--hsl", "1,1")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert f"graph of {n + 1} nodes too large" in err and "Traceback" not in err


def test_prove_axiom_five_conjunct(capsys):
    code, out, _ = run(capsys, "prove", "--hsl", "1,1", "--depth", "12",
                       "<>[]p -> []p")
    assert code == 0
    proof = load_nested_proof(out)
    assert proof.rule == "impO"


def test_prove_unprovable(capsys):
    code, _, err = run(capsys, "prove", "--depth", "6", "p | ~p")
    assert code == 1
    assert "no proof" in err


REFUTED_P = "no proof at any depth: false in the one-world model where no atom holds"


def test_prove_under_seriality_answers_at_depth_50(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "prove", "--d", "--depth", "50", "p")
    assert time.perf_counter() - t0 < 5.0
    assert (code, out, err.strip()) == (1, "", REFUTED_P)


def test_prove_under_seriality_answers_at_depth_300(capsys):
    """p fails in the one-world model, so it is refuted before any
    search."""
    code, out, err = run(capsys, "prove", "--d", "--depth", "300", "p")
    assert (code, out, err.strip()) == (1, "", REFUTED_P)
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["q -> p", "p & q -> r", "[](p -> q) -> <>(r | q)"])
def test_prove_names_a_falsifying_valuation(capsys, text):
    """A goal false in the one-world model gets no proof at any depth,
    and the atoms printed true, with every other atom false, falsify it
    there under models.sat_sequent."""
    code, out, err = run(capsys, "prove", "--hsl", "1,1", "--d", "--depth", "4", text)
    prefix = "no proof at any depth: false in the one-world model where "
    assert (code, out) == (1, "") and err.startswith(prefix)
    held = err.strip()[len(prefix):]
    atoms = [] if held == "no atom holds" else held.rsplit(" ", 1)[0].split(", ")
    seq = to_labelled(nseq(output=parse_formula(text)))
    m = model_of(["w"], acc=[("w", "w")], val=[("w", a) for a in atoms])
    assert not sat_sequent(m, {lab: "w" for lab in seq.labels()}, seq)


TWO_WORLD_P = """no proof at any depth: false at world w0 of this two-world model:
worlds: w0 w1
leq: w0 w1
acc: w0 w0, w1 w1
val: w1 p
"""


@pytest.mark.parametrize("text, flags", [
    ("p | ~p", ("--d",)),
    ("<>p -> []p", ("--d",)),
    ("[](p -> q) | [](q -> p)", ("--hsl", "1,1", "--d")),
    ("<>[]p -> [](p | q)", ("--hsl", "0,1")),
])
def test_prove_names_a_two_world_countermodel(tmp_path, capsys, text, flags):
    """A goal true in the one-world model but false in a two-world one
    gets no proof at any depth, and the model printed after the message
    loads in model-eval, passes its checks for the same axioms, and
    makes the goal false at the world named."""
    code, out, err = run(capsys, "prove", *flags, "--depth", "6", text)
    assert (code, out) == (1, "")
    if text == "p | ~p":  # the README example
        assert err == TWO_WORLD_P
    head, _, body = err.partition("\n")
    world = head.removeprefix("no proof at any depth: false at world ")
    assert world != head
    world = world.removesuffix(" of this two-world model:")
    model = tmp_path / "model.txt"
    model.write_text(body)
    code, out, err = run(capsys, "model-eval", str(model), "--formula", text,
                         "--world", world, *flags)
    assert (code, out, err) == (1, "false\n", "")


def test_prove_too_deep_to_search_exits_2(capsys):
    """[](p -> p) -> (q | (q -> (r | (r -> false)))) holds in every model
    of one or two worlds and escapes both polarity prunes, so under
    seriality the search recurses once per level; past Python's
    recursion limit it fails as a bad depth does, naming the depth, with
    no traceback."""
    text = "[](p -> p) -> (q | (q -> (r | (r -> false))))"
    goal = nseq(output=parse_formula(text))
    assert one_world_countermodel(goal) is None
    assert two_world_countermodel(goal, axiom_set(d=True)) is None
    code, out, err = run(capsys, "prove", "--d", "--depth", "300", text)
    assert (code, out) == (2, "")
    assert "depth 300 is too deep to search" in err
    assert "Traceback" not in err and "no proof" not in err


def test_prove_rejects_negative_depth(capsys):
    code, out, err = run(capsys, "prove", "--depth", "-3", "p -> p")
    assert code == 2
    assert out == "" and "depth" in err and "no proof" not in err


def test_check_and_corruption(tmp_path, capsys):
    code, out, _ = run(capsys, "prove", "--hsl", "1,1", "--depth", "8",
                       "<>[]p -> []p")
    assert code == 0
    good = tmp_path / "good.json"
    good.write_text(out)
    code, out2, _ = run(capsys, "check", "--calculus", "nested",
                        "--hsl", "1,1", str(good))
    assert code == 0 and out2.strip() == "ok"

    doc = json.loads(out)
    doc["premises"][0]["rule"] = "bogus"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--calculus", "nested",
                       "--hsl", "1,1", str(bad))
    assert code == 1
    assert "0" in err and "bogus" in err


def test_check_rejects_malformed_file(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2 and err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("args", [
    ("check",), ("check", "--calculus", "nested"), ("refine",),
    ("translate", "--to", "nested"), ("translate", "--to", "labelled"),
    ("model-eval", "--formula", "p"),
], ids=["check", "check-nested", "refine", "translate-nested",
        "translate-labelled", "model-eval"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, args):
    f = tmp_path / "utf16.json"
    f.write_bytes("{}".encode("utf-16"))  # starts with the mark ff fe
    code, out, err = run(capsys, args[0], str(f), *args[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"{f}: not UTF-8 (byte 0xff at position 0)")
    assert "Traceback" not in err


@pytest.mark.parametrize("calculus, conclusion, path", [
    ("nested", "<>p^o", ["r", "d", 1]),
    ("refined", "w R u ; u: p |- w: <>p", ["w", "d", ["u"]]),
])
def test_check_rejects_walk_nodes_that_are_not_strings(tmp_path, capsys,
                                                       calculus, conclusion, path):
    """A walk node of another JSON type is an invalid instance, reported
    like any other; an exception would escape main and fail the test."""
    f = tmp_path / "walk.json"
    f.write_text(json.dumps({"rule": "pdia", "conclusion": conclusion,
                             "params": {"path": path}, "premises": []}))
    code, out, err = run(capsys, "check", "--calculus", calculus, str(f))
    assert code == 1 and out == ""
    assert err.startswith("invalid at root: pdia: param 'path' ")
    assert "Traceback" not in err


def test_refine_then_translate(tmp_path, capsys):
    rng = random.Random(9001)
    ax_flags = ["--hsl", "1,1", "--d"]
    p = random_labelled_proof(rng, axiom_set([(1, 1)], d=True), mode="base", budget=4)
    src = tmp_path / "base.json"
    src.write_text(dump_proof(p))
    refined = tmp_path / "refined.json"
    code, _, _ = run(capsys, "refine", str(src), "-o", str(refined), *ax_flags)
    assert code == 0
    code, out, _ = run(capsys, "check", "--calculus", "refined",
                       str(refined), *ax_flags)
    assert code == 0

    code, _, err = run(capsys, "check", "--calculus", "refined",
                       str(src), *ax_flags)
    if any(n.rule in ("S", "diaR", "boxL") for n in p.nodes()):
        assert code == 1


def test_translate_round_trip_files(tmp_path, capsys):
    rng = random.Random(9002)
    p = random_labelled_proof(rng, axiom_set([(1, 1)]), mode="refined", budget=3)
    src = tmp_path / "refined.json"
    src.write_text(dump_proof(p))
    nested = tmp_path / "nested.json"
    code, _, _ = run(capsys, "translate", "--to", "nested", str(src),
                     "-o", str(nested), "--hsl", "1,1")
    assert code == 0
    code, _, _ = run(capsys, "check", "--calculus", "nested", str(nested),
                     "--hsl", "1,1")
    assert code == 0
    code, out, _ = run(capsys, "translate", "--to", "labelled", str(nested),
                       "--hsl", "1,1")
    assert code == 0
    assert json.loads(out)["rule"] == p.rule


def d_chain_text(n):
    """A nested proof file: d applied n times at the root, closed by id."""
    def conclusion(k):
        return json.dumps("p^i, p^o" + ", [ ]" * k)

    head = "".join(f'{{"rule": "d", "conclusion": {conclusion(k)}, '
                   '"params": {"at": "r"}, "premises": ['
                   for k in range(n))
    leaf = (f'{{"rule": "id", "conclusion": {conclusion(n)}, '
            '"params": {"at": "r", "index": 0}, "premises": []}')
    return head + leaf + "]}" * n


def test_deep_proof_file_fails_cleanly(tmp_path, capsys):
    shallow = tmp_path / "shallow.json"
    shallow.write_text(d_chain_text(20))
    assert run(capsys, "check", "--calculus", "nested", "--d", str(shallow))[0] == 0
    deep = tmp_path / "deep.json"
    deep.write_text(d_chain_text(500))
    for argv in (["check", "--calculus", "nested", "--d"], ["refine"],
                 ["translate", "--to", "labelled"], ["translate", "--to", "nested"]):
        code, out, err = run(capsys, *argv, str(deep))
        assert code == 2 and not out, argv
        assert "nested too deeply" in err and "Traceback" not in err


def test_check_rejects_deep_brackets(tmp_path, capsys):
    def proof_file(n):
        node = {"rule": "id", "conclusion": "[ " * n + "p^i, p^o" + " ]" * n,
                "params": {"at": "r" + ".0" * n, "index": 0}, "premises": []}
        path = tmp_path / f"brackets{n}.json"
        path.write_text(json.dumps(node))
        return str(path)

    assert run(capsys, "check", "--calculus", "nested", proof_file(MAX_NESTING))[0] == 0
    code, out, err = run(capsys, "check", "--calculus", "nested",
                         proof_file(MAX_NESTING + 1))
    assert code == 2 and not out
    assert f"deeper than {MAX_NESTING} bracket levels" in err


def test_translate_rejects_deep_label_trees(tmp_path, capsys):
    """A label chain deeper than MAX_NESTING has no nested form that
    parse_nested could read back: translation fails cleanly."""
    def proof_file(n):
        rel = ", ".join(f"w{i} R w{i + 1}" for i in range(n))
        node = {"rule": "botL", "conclusion": f"{rel} ; w0: false |- w0: p",
                "params": {}, "premises": []}
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps(node))
        return str(path)

    nested = tmp_path / "nested.json"
    code, _, _ = run(capsys, "translate", "--to", "nested", proof_file(MAX_NESTING),
                     "-o", str(nested))
    assert code == 0
    assert run(capsys, "check", "--calculus", "nested", str(nested))[0] == 0
    for n in (MAX_NESTING + 1, 600):
        code, out, err = run(capsys, "translate", "--to", "nested", proof_file(n))
        assert code == 1 and not out
        assert f"deeper than {MAX_NESTING} levels" in err and "Traceback" not in err


def test_model_eval(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text(
        "# two worlds, one step\n"
        "worlds: a b\n"
        "acc: a b\n"
        "val: b p\n")
    code, out, _ = run(capsys, "model-eval", str(model), "--formula", "<>p",
                       "--world", "a")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "model-eval", str(model), "--formula", "<>p")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "model-eval", str(model),
                       "--sequent", "w R u ; u: p |- w: <>p",
                       "--interp", "w=a, u=b")
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("args, message", [
    (("--formula", "p", "--world", "zz"), "unknown world 'zz'"),
    (("--sequent", "w R u ; w: []p |- u: p", "--interp", "w=a"),
     "interpretation misses label 'u'"),
    (("--sequent", "w R u ; w: []p |- u: p", "--interp", "w=a,u=zz"),
     "label 'u' maps outside the model"),
])
def test_model_eval_usage_errors_exit_2(tmp_path, capsys, args, message):
    """A world or label the model lacks is a usage error (2), not the
    false answer (1)."""
    model = tmp_path / "model.txt"
    model.write_text("worlds: a b\nacc: a b\nval: b p\n")
    code, out, err = run(capsys, "model-eval", str(model), *args)
    assert (code, out) == (2, "") and message in err and "Traceback" not in err
    code, out, _ = run(capsys, "model-eval", str(model), "--formula", "p",
                       "--world", "a")
    assert (code, out.strip()) == (1, "false")


def test_model_eval_reports_frame_violation(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("worlds: a b\nacc: a b\n")
    code, _, err = run(capsys, "model-eval", str(model), "--formula", "p", "--d")
    assert code == 1
    assert "seriality" in err


@pytest.mark.parametrize("model, args, code, message", [
    ("worlds: a b\nrel: a b\n", ("--formula", "p"), 2,
     "line 2: expected worlds/leq/acc/val section"),
    ("worlds: a b\nacc: a\n", ("--formula", "p"), 2,
     "line 2: expected two names in 'a'"),
    ("worlds: a\n", (), 2, "give --formula or --sequent"),
    ("worlds: a\n", ("--sequent", "w: p |- w: p"), 2,
     "--sequent needs --interp label=world"),
    ("worlds: a\n", ("--sequent", "w: p |- w: p", "--interp", "w"), 2,
     "expected label=world in 'w'"),
    (None, ("reach", "v R u", "v", "u", "--hsl", "x"), 2,
     "expected N,K with digits: 'x'"),
    (None, ("axioms", "--d"), 0, "D: []p -> <>p\n"),
], ids=["unknown-section", "one-name-pair", "no-formula-or-sequent",
        "sequent-without-interp", "interp-without-world", "reach-bad-hsl",
        "axioms-d"])
def test_malformed_input_and_rare_flags(tmp_path, capsys, model, args, code, message):
    """Malformed model-eval input and a malformed --hsl pair exit 2 with
    their message on stderr; axioms --d prints the D axiom alone.  No
    traceback either way."""
    if model is not None:
        path = tmp_path / "model.txt"
        path.write_text(model)
        args = ("model-eval", str(path)) + args
    got, out, err = run(capsys, *args)
    assert got == code and "Traceback" not in out + err
    if code:
        assert not out and message in err
    else:
        assert (out, err) == (message, "")


def test_axioms_output(capsys):
    code, out, _ = run(capsys, "axioms", "--hsl", "2,1")
    assert code == 0
    assert out.startswith("hsl(2,1): ")
    assert "<><>[]p" in out

    code, out, _ = run(capsys, "axioms")
    assert code == 0
    names = [line.split(":")[0] for line in out.strip().splitlines()]
    assert names == ["A1", "A2", "A3", "A4", "A5", "D", "T", "B", "4", "5"]


def test_usage_errors(capsys):
    assert run(capsys, "prove", "p")[0] == 2          # missing --depth
    assert run(capsys, "axioms", "--hsl", "10,1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
