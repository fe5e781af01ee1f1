"""The package's public names, pinned so that adding or removing one shows
up as an edit to this list."""

import types

import fuzzmin

PUBLIC_NAMES = [
    "Algebra", "AndConcept", "BaazConcept", "BisimReport", "ComposeRole",
    "ConceptAssertion", "ConceptName", "ConceptNode", "ConstantConcept", "Degree",
    "DegreeAggregate", "DistinctAssertion", "ExistsConcept", "FeatureError", "FeatureSet",
    "FiniteLatticeAlgebra", "ForallConcept", "FuzzyGraph", "GodelAlgebra", "GraphStats",
    "ImpliesConcept", "Interpretation", "InverseRole", "LukasiewiczAlgebra", "Nominal",
    "NotConcept", "OrConcept", "ParseError", "Partition", "ProductAlgebra",
    "RoleAssertion", "RoleName", "RoleNode", "SameAssertion", "StarRole",
    "TBoxAxiom", "TestRole", "UnionRole", "UniversalRole", "UsageError",
    "bundled_lattice_path", "canonical_relation", "check_axioms", "check_features", "compcb",
    "eval_concept", "eval_role", "graph_from_json", "interpretation_from_json",
    "interpretation_json_pieces", "interpretation_to_graph", "interpretation_to_json",
    "is_bisimulation", "is_stable", "largest_bisimulation", "load_graph",
    "load_interpretation", "load_lattice", "load_relation", "make_algebra", "minimize",
    "naive_coarsest_stable_refinement", "parse_concept", "parse_role", "print_concept",
    "print_role", "prune_unreachable", "quotient", "satisfies",
]


def test_public_names_are_pinned():
    # submodules are left out: importing fuzzmin.cli or fuzzmin.generate
    # anywhere in the run adds them as attributes of the package
    names = sorted(
        name for name, value in vars(fuzzmin).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
