"""Sequent calculi with grammar-conditioned propagation rules.

Core pieces: formula language and axiom sets, string grammars with path
reachability, finite bi-relational models, labelled and nested sequent
calculi sharing one proof type and one checker walk, structural-rule
elimination, translations between the two calculi, and a bounded prover.
"""

from .formula import (AxiomSet, BENCHMARKS, BOT, Atom, Bot, Box, Dia, And, Or,
                      Imp, Formula, ParseError, axiom_set, hsl_formula,
                      parse_formula, render_formula)
from .grammar import (Grammar, Production, PropGraph, PropPath, Sym, derives,
                      grammar_from_axioms, graph_from_pairs, reach_all,
                      reachable, syms)
from .models import (Model, Violation, check_frame_conditions, check_model,
                     eval_formula, globally_true, model_of, one_world_countermodel,
                     random_model, sat_sequent, two_world_countermodel)
from .proof import CheckResult, Proof, RuleError
from .labelled import (LabelledProof, LabelledSequent, check_labelled,
                       parse_labelled_sequent, premises_of_labelled,
                       render_labelled_sequent)
from .nested import (NestedProof, NestedSequent, check_nested, is_full, nseq,
                     parse_nested, premises_of_nested, prove_bounded,
                     prove_formula, render_nested)
from .structural import contract_proof, merge_proof, nest_proof, weaken_proof
from .refine import eliminate_structural
from .translate import (TreeCert, is_labelled_tree, to_labelled, to_nested,
                        translate_proof)
from .proofio import (dump_proof, load_labelled_proof, load_nested_proof,
                      proof_to_dict)
from .gen import (random_formula, random_full_nested, random_labelled_proof,
                  random_tree_labelled)

__all__ = [
    "AxiomSet", "BENCHMARKS", "BOT", "Atom", "Bot", "Box", "Dia", "And", "Or",
    "Imp", "Formula", "ParseError", "axiom_set", "hsl_formula",
    "parse_formula", "render_formula",
    "Grammar", "Production", "PropGraph", "PropPath", "Sym",
    "derives", "grammar_from_axioms", "graph_from_pairs",
    "reach_all", "reachable", "syms",
    "Model", "Violation", "check_frame_conditions", "check_model",
    "eval_formula", "globally_true", "model_of", "one_world_countermodel",
    "random_model", "sat_sequent", "two_world_countermodel",
    "CheckResult", "Proof", "RuleError",
    "LabelledProof", "LabelledSequent", "check_labelled", "parse_labelled_sequent", "premises_of_labelled",
    "render_labelled_sequent",
    "NestedProof", "NestedSequent", "check_nested", "is_full",
    "nseq", "parse_nested", "premises_of_nested",
    "prove_bounded",
    "prove_formula", "render_nested",
    "contract_proof", "merge_proof", "nest_proof", "weaken_proof",
    "eliminate_structural",
    "TreeCert", "is_labelled_tree",
    "to_labelled", "to_nested", "translate_proof",
    "dump_proof", "load_labelled_proof", "load_nested_proof", "proof_to_dict",
    "random_formula", "random_full_nested", "random_labelled_proof",
    "random_tree_labelled",
]
