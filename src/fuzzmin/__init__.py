"""fuzzmin: minimize fuzzy interpretations and weighted labeled graphs by
crisp bisimulation, with exact-rational degree arithmetic throughout."""

from .algebra import (
    Algebra,
    Degree,
    FiniteLatticeAlgebra,
    GodelAlgebra,
    LukasiewiczAlgebra,
    ProductAlgebra,
    bundled_lattice_path,
    check_axioms,
    load_lattice,
    make_algebra,
)
from .errors import FeatureError, ParseError, UsageError
from .fdl import (
    AndConcept,
    BaazConcept,
    BisimReport,
    ComposeRole,
    ConceptAssertion,
    ConceptName,
    ConceptNode,
    ConstantConcept,
    DistinctAssertion,
    ExistsConcept,
    FeatureSet,
    ForallConcept,
    ImpliesConcept,
    Interpretation,
    InverseRole,
    Nominal,
    NotConcept,
    OrConcept,
    RoleAssertion,
    RoleName,
    RoleNode,
    SameAssertion,
    StarRole,
    TBoxAxiom,
    TestRole,
    UnionRole,
    UniversalRole,
    canonical_relation,
    check_features,
    eval_concept,
    eval_role,
    interpretation_from_json,
    interpretation_json_pieces,
    interpretation_to_graph,
    interpretation_to_json,
    is_bisimulation,
    largest_bisimulation,
    load_interpretation,
    load_relation,
    minimize,
    prune_unreachable,
    quotient,
    satisfies,
)
from .graph import FuzzyGraph, GraphStats, graph_from_json, load_graph
from .partition import Partition
from .refine import (
    DegreeAggregate,
    compcb,
    is_stable,
    naive_coarsest_stable_refinement,
)
from .syntax import parse_concept, parse_role, print_concept, print_role

__version__ = "0.1.0"
