import hashlib
import random
from fractions import Fraction as F

import pytest

from fuzzmin import (
    ConceptAssertion,
    ConceptName,
    DistinctAssertion,
    ExistsConcept,
    FeatureSet,
    ForallConcept,
    FuzzyGraph,
    GodelAlgebra,
    Interpretation,
    LukasiewiczAlgebra,
    ProductAlgebra,
    RoleAssertion,
    RoleName,
    SameAssertion,
    TBoxAxiom,
    UsageError,
    canonical_relation,
    compcb,
    eval_concept,
    eval_role,
    interpretation_to_graph,
    interpretation_to_json,
    is_bisimulation,
    largest_bisimulation,
    minimize,
    prune_unreachable,
    quotient,
    satisfies,
)
from fuzzmin.partition import Partition
from fuzzmin.fdl import (
    FEATURE_NAMES,
    ComposeRole,
    ConstantConcept,
    ImpliesConcept,
    StarRole,
    TestRole,
    UniversalRole,
    _encoding,
)
from fuzzmin.graph import _union_store
from fuzzmin.algebra import bundled_lattice_path, load_lattice
from fuzzmin.generate import GeneratorParams, random_concept, random_interpretation, random_role
from fuzzmin.syntax import parse_concept, parse_role
from helpers import (
    PHI_I,
    PHI_IO,
    PHI_O,
    PHI_PSI,
    chain_interp,
    collapse_interp,
    degree_oracle,
    collapsed_twin,
    dense_concept_values,
    dense_role_matrix,
    graph_by_names,
    label_vector,
    largest_bisimulation_by_fixpoint,
    out_maps,
    prune_by_names,
    quotient_by_names,
    role_instances,
    two_component_interp,
    union_graph_by_names,
)

GODEL = GodelAlgebra()
PRODUCT = ProductAlgebra()
LUK = LukasiewiczAlgebra()

SOME_R_A = ExistsConcept(RoleName("r"), ConceptName("A"))
ALL_R_A = ForallConcept(RoleName("r"), ConceptName("A"))
R_PLUS = ComposeRole(StarRole(RoleName("r")), RoleName("r"))


# --- semantics -----------------------------------------------------------------

GOLDEN_TABLE = {
    # concept -> (godel, product, lukasiewicz) at element a
    "some": (F("0.6"), F("0.48"), F("0.4")),
    "all": (F("0.6"), F("0.75"), F("0.8")),
    "some_plus": (F("0.7"), F("0.504"), F("0.4")),
    "all_plus": (F("0.6"), F("0.75"), F("0.8")),
}


@pytest.mark.parametrize("column,alg", [(0, GODEL), (1, PRODUCT), (2, LUK)])
def test_golden_evaluation_table(column, alg):
    i = chain_interp(alg)
    a = i.element_id("a")
    concepts = {
        "some": SOME_R_A,
        "all": ALL_R_A,
        "some_plus": ExistsConcept(R_PLUS, ConceptName("A")),
        "all_plus": ForallConcept(R_PLUS, ConceptName("A")),
    }
    for key, node in concepts.items():
        assert eval_concept(i, node, PHI_PSI)[a] == GOLDEN_TABLE[key][column], key


# role shapes the generator rarely draws: double and pushed-down inverses,
# closures of compositions, tests under an inverse, the universal role
RARE_ROLES = ["r0--", "(r0;r1)-*", "((r0|r1-)*;r0)", "(A0?;r0*)-", "U", "U-"]
ORACLE_ALGEBRAS = {
    "godel": GODEL,
    "product": PRODUCT,
    "lukasiewicz": LUK,
    **{name: load_lattice(bundled_lattice_path(name)) for name in ("godel5", "lukasiewicz4", "boolean")},
}


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_evaluator_matches_dense_oracle(name):
    alg = ORACLE_ALGEBRAS[name]
    full = FeatureSet.from_names(FEATURE_NAMES)
    params = GeneratorParams(n_min=2, n_max=8, edge_factor=3, pool_size=3)  # n <= 10 with clones
    rng = random.Random(f"dense-oracle:{name}")
    for seed in range(10):
        i = random_interpretation(params, seed, alg)
        assert i.n <= 10
        cnames, rnames, inames = list(i.concept_names), list(i.role_names), list(i.individual_names)
        roles = [parse_role(text, full) for text in RARE_ROLES]
        roles += [random_role(rng, full, 3, rnames, cnames, inames, alg) for _ in range(4)]
        bodies = [ConceptName("A0")]
        bodies += [random_concept(rng, full, 2, cnames, rnames, inames, alg) for _ in range(2)]
        for role in roles:
            assert eval_role(i, role, full) == dense_role_matrix(i, role), (seed, role)
            for body in bodies:
                for node in (ExistsConcept(role, body), ForallConcept(role, body)):
                    assert eval_concept(i, node, full) == dense_concept_values(i, node), (seed, node)
        for _ in range(4):
            node = random_concept(rng, full, 3, cnames, rnames, inames, alg)
            assert eval_concept(i, node, full) == dense_concept_values(i, node), (seed, node)


def test_universal_role_is_all_top():
    i = chain_interp(GODEL)
    rows = eval_role(i, UniversalRole(), PHI_PSI)
    assert all(v == F(1) for row in rows for v in row)


def test_inverse_is_transpose():
    i = chain_interp(GODEL)
    forward = eval_role(i, RoleName("r"), PHI_I)
    backward = eval_role(i, __import__("fuzzmin").InverseRole(RoleName("r")), PHI_I)
    n = i.n
    assert all(forward[x][y] == backward[y][x] for x in range(n) for y in range(n))


def test_test_role_is_diagonal():
    i = chain_interp(GODEL)
    rows = eval_role(i, TestRole(ConceptName("A")), PHI_PSI)
    for x in range(i.n):
        for y in range(i.n):
            if x == y:
                assert rows[x][y] == eval_concept(i, ConceptName("A"), PHI_PSI)[x]
            else:
                assert rows[x][y] == F(0)


def test_test_concept_evaluated_once_per_evaluation(monkeypatch):
    from fuzzmin import fdl

    i = chain_interp(GODEL)
    full = FeatureSet.from_names(FEATURE_NAMES)
    node = parse_concept("some ((some r* . A)? ; r)* . A", full)
    inner = node.role.child.left.concept  # some r* . A
    calls = []
    original = fdl._concept_values

    def counting(interp, concept, tests):
        if concept is inner:
            calls.append(concept)
        return original(interp, concept, tests)

    monkeypatch.setattr(fdl, "_concept_values", counting)
    assert eval_concept(i, node, full) == dense_concept_values(i, node)
    assert len(calls) == 1
    calls.clear()
    role = node.role
    assert eval_role(i, role, full) == dense_role_matrix(i, role)
    assert len(calls) == 1  # once for all the columns, too


def test_constant_concept_everywhere():
    i = chain_interp(GODEL)
    assert eval_concept(i, ConstantConcept(F("0.3")), PHI_PSI) == [F("0.3")] * 3


def test_forall_counts_zero_degree_pairs():
    # no outgoing edges: the residuum of bottom is top everywhere
    i = Interpretation(GODEL, ["x"], concepts={"A": {}}, roles={"r": []})
    assert eval_concept(i, ForallConcept(RoleName("r"), ConstantConcept(F(0))), PHI_PSI) == [F(1)]


def test_forward_roles_read_predecessor_lists():
    # some/all over r and r* read r's per-target lists; only r- needs the
    # per-source lists, which the interpretation builds on first use
    i = chain_interp(GODEL)
    full = FeatureSet.from_names(FEATURE_NAMES)
    for text in ("some r . A", "all r . A", "some r* . A"):
        node = parse_concept(text, full)
        assert eval_concept(i, node, full) == dense_concept_values(i, node)
    assert i._out == {}
    node = parse_concept("some r- . A", full)
    assert eval_concept(i, node, full) == dense_concept_values(i, node)
    assert list(i._out) == ["r"]


def test_inverse_role_builds_per_source_lists_of_its_own_role_only():
    # 50 roles: `some r0- . A` makes r0's per-source lists and no other's
    rng = random.Random(5)
    names = [f"e{k}" for k in range(100)]
    roles = {f"r{j}": [(x, y, "1") for x, y in {(rng.choice(names), rng.choice(names))
                                                for _ in range(200)}]
             for j in range(50)}
    i = Interpretation(GODEL, names, concepts={"A": {x: "1" for x in names[::3]}}, roles=roles)
    full = FeatureSet.from_names(FEATURE_NAMES)
    node = parse_concept("some r0- . A", full)
    assert eval_concept(i, node, full) == dense_concept_values(i, node)
    assert list(i._out) == ["r0"]


def test_feature_gate_on_eval():
    i = chain_interp(GODEL)
    bare = FeatureSet.from_names(["baaz"])
    with pytest.raises(UsageError):
        eval_role(i, UniversalRole(), bare)
    with pytest.raises(UsageError):
        eval_concept(i, ExistsConcept(StarRole(RoleName("r")), ConceptName("A")), bare)


def test_unknown_names_rejected():
    i = chain_interp(GODEL)
    with pytest.raises(UsageError):
        eval_concept(i, ConceptName("Nope"), PHI_PSI)
    with pytest.raises(UsageError):
        eval_role(i, RoleName("nope"), PHI_PSI)


# --- bisimulation checking ------------------------------------------------------

def pair_ids(i1, i2, pairs):
    return {(i1.element_id(x), i2.element_id(y)) for x, y in pairs}


def test_golden_relation_passes():
    i1, i2 = collapse_interp(GODEL), collapsed_twin(GODEL)
    z = pair_ids(i1, i2, [("u", "u'"), ("v", "v'"), ("w", "v'")])
    for phi in (PHI_PSI, PHI_O):
        assert is_bisimulation(i1, i2, z, phi).ok


def test_identity_relation_is_auto_bisimulation():
    i = collapse_interp(GODEL)
    z = {(x, x) for x in range(i.n)}
    assert is_bisimulation(i, i, z, PHI_IO).ok


def test_extra_pair_fails_condition_9():
    i1, i2 = collapse_interp(GODEL), collapsed_twin(GODEL)
    z = pair_ids(i1, i2, [("u", "u'"), ("v", "v'"), ("w", "v'"), ("u", "v'")])
    report = is_bisimulation(i1, i2, z, PHI_PSI)
    assert not report.ok
    assert report.condition == 9
    assert report.witness == ("u", "v'")
    assert str(report) == "condition (9) violated at (u,v')"


def test_empty_relation_is_vacuously_fine():
    i1, i2 = collapse_interp(GODEL), collapsed_twin(GODEL)
    assert is_bisimulation(i1, i2, set(), PHI_PSI).ok
    # even with the universal role: conditions are guarded by non-emptiness
    assert is_bisimulation(i1, i2, set(), PHI_PSI.with_universal()).ok


def test_forth_violation_detected():
    i1, i2 = collapse_interp(GODEL), collapsed_twin(GODEL)
    # v' cannot match u's 0.9-successor if u is paired with v'
    z = pair_ids(i1, i2, [("u", "v'"), ("v", "v'"), ("w", "v'")])
    report = is_bisimulation(i1, i2, z, PHI_PSI)
    assert not report.ok and report.condition == 9  # label check fires first

    # same interpretation against itself with a broken pair: 1 vs 0.5 labels
    z2 = {(i1.element_id("v"), i1.element_id("w")), (i1.element_id("u"), i1.element_id("v"))}
    report2 = is_bisimulation(i1, i1, z2, PHI_PSI)
    assert not report2.ok


def test_forth_and_back_reports_name_the_successor():
    # x's r-successors y and z both lack a match of degree 1 in i2; the
    # report names y, first in (x, y) order, not in the order given
    i1 = Interpretation(GODEL, ["x", "y", "z"], roles={"r": [("x", "z", "1"), ("x", "y", "1")]})
    i2 = Interpretation(GODEL, ["x'", "y'"], roles={"r": [("x'", "y'", "0.5")]})
    z = pair_ids(i1, i2, [("x", "x'"), ("y", "y'"), ("z", "y'")])
    report = is_bisimulation(i1, i2, z, PHI_PSI)
    assert (report.ok, report.condition, report.witness) == (False, 10, ("x", "x'"))
    assert report.detail == "no matching r-successor for y"
    assert str(report) == "condition (10) violated at (x,x')"

    # mirrored, forth holds at (x', x) and back fails on the same successor
    report = is_bisimulation(i2, i1, {(xp, x) for x, xp in z}, PHI_PSI)
    assert (report.ok, report.condition, report.witness) == (False, 11, ("x'", "x"))
    assert report.detail == "no matching r-successor for y"
    assert str(report) == "condition (11) violated at (x',x)"


def test_inverse_role_failure_reported_as_r_minus():
    # r holds both ways; only the inverse r- fails, at b' whose
    # r--successor c' lies outside the relation
    i1 = Interpretation(GODEL, ["a", "b"], roles={"r": [("a", "b", "1")]})
    i2 = Interpretation(GODEL, ["a'", "b'", "c'"], roles={"r": [("a'", "b'", "1"), ("c'", "b'", "0.5")]})
    z = pair_ids(i1, i2, [("a", "a'"), ("b", "b'")])
    inverse = FeatureSet.from_names(["baaz", "inverse"])  # no universal role: c' stays unmatched
    assert is_bisimulation(i1, i2, z, FeatureSet()).ok
    report = is_bisimulation(i1, i2, z, inverse)
    assert (report.ok, report.condition, report.witness) == (False, 11, ("b", "b'"))
    assert report.detail == "no matching r--successor for c'"

    report = is_bisimulation(i2, i1, {(xp, x) for x, xp in z}, inverse)
    assert (report.ok, report.condition, report.witness) == (False, 10, ("b'", "b"))
    assert report.detail == "no matching r--successor for c'"


def test_every_role_checked_before_any_inverse():
    # r- fails and s fails forth; s is reported, since every r comes first
    i1 = Interpretation(GODEL, ["a", "b"], roles={"r": [("a", "b", "1")], "s": [("a", "b", "1")]})
    i2 = Interpretation(GODEL, ["a'", "b'", "c'"], roles={
        "r": [("a'", "b'", "1"), ("c'", "b'", "0.5")],
        "s": [("a'", "b'", "0.5")],
    })
    z = pair_ids(i1, i2, [("a", "a'"), ("b", "b'")])
    for phi in (PHI_PSI, PHI_I):
        report = is_bisimulation(i1, i2, z, phi)
        assert (report.ok, report.condition, report.witness) == (False, 10, ("a", "a'"))
        assert report.detail == "no matching s-successor for b"


def test_totality_and_surjectivity_with_universal():
    base = FeatureSet.from_names(["baaz"])
    i1 = Interpretation(GODEL, ["x", "y"], concepts={"A": {"x": "1", "y": "1"}}, roles={"r": []})
    i2 = Interpretation(GODEL, ["z"], concepts={"A": {"z": "1"}}, roles={"r": []})
    z = {(0, 0)}  # y stays unmatched
    assert is_bisimulation(i1, i2, z, base).ok
    report = is_bisimulation(i1, i2, z, base.with_universal())
    assert not report.ok and report.condition == 14
    # mirrored: an element of the right side unmatched
    report = is_bisimulation(i2, i1, {(0, 0)}, base.with_universal())
    assert not report.ok and report.condition == 15


CHECK_REPORTS_DIGEST = "3310ceaccc64ce4a3c099f9826a9b1bae995b32dd55f3b1bf2744e84f133d3ef"


def check_reports_digest() -> str:
    """SHA-256 over `is_bisimulation`'s (ok, condition, witness, detail) on
    2,000 seeded interpretations with two roles, each against itself with
    the identity plus one random pair, under baaz and under baaz,inverse.
    The witness and detail name the first failing pair and successor, so
    the digest pins the order in which successors are read."""
    params = GeneratorParams(n_min=2, n_max=12, concept_count=0, role_count=2,
                             individual_count=1)
    phis = (FeatureSet.from_names(["baaz"]), FeatureSet.from_names(["baaz", "inverse"]))
    digest = hashlib.sha256()
    for seed in range(2000):
        i = random_interpretation(params, seed, GODEL)
        rng = random.Random(f"check:{seed}")
        z = {(x, x) for x in range(i.n)} | {(rng.randrange(i.n), rng.randrange(i.n))}
        for phi in phis:
            report = is_bisimulation(i, i, z, phi)
            digest.update(repr((report.ok, report.condition, report.witness,
                                report.detail)).encode())
    return digest.hexdigest()


def test_check_reports_are_pinned():
    assert check_reports_digest() == CHECK_REPORTS_DIGEST


def test_signature_mismatch_rejected():
    i1 = chain_interp(GODEL)
    other = Interpretation(GODEL, ["x"], concepts={"B": {}}, roles={"r": []})
    with pytest.raises(UsageError):
        is_bisimulation(i1, other, set(), PHI_PSI)


def test_largest_bisimulation_golden():
    i1, i2 = collapse_interp(GODEL), collapsed_twin(GODEL)
    expected = pair_ids(i1, i2, [("u", "u'"), ("v", "v'"), ("w", "v'")])
    for phi in (PHI_PSI, PHI_O, PHI_PSI.with_universal()):
        assert largest_bisimulation(i1, i2, phi) == expected


def test_largest_bisimulation_empty_when_labels_differ():
    a = Interpretation(GODEL, ["x"], concepts={"A": {"x": "1"}}, roles={"r": []})
    b = Interpretation(GODEL, ["y"], concepts={"A": {"y": "0.5"}}, roles={"r": []})
    assert largest_bisimulation(a, b, PHI_PSI) == set()


def test_largest_bisimulation_takes_labels_of_both_sides():
    # A is bottom everywhere in a, so a's encoding has no label A at all
    a = Interpretation(GODEL, ["x"], concepts={"A": {"x": "0"}}, roles={"r": []})
    b = Interpretation(GODEL, ["y", "z"], concepts={"A": {"y": "0.5"}}, roles={"r": []})
    base = FeatureSet.from_names(["baaz"])
    assert largest_bisimulation(a, b, base) == {(0, 1)}
    assert largest_bisimulation(b, a, base) == {(1, 0)}


def test_largest_bisimulation_universal_empties_partial_fixpoint():
    base = FeatureSet.from_names(["baaz"])
    a = Interpretation(GODEL, ["x", "y"], concepts={"A": {"x": "1", "y": "0.5"}}, roles={"r": []})
    b = Interpretation(GODEL, ["z"], concepts={"A": {"z": "1"}}, roles={"r": []})
    assert largest_bisimulation(a, b, base) == {(0, 0)}
    assert largest_bisimulation(a, b, base.with_universal()) == set()


def test_largest_auto_bisimulation_matches_partition_blocks():
    params = GeneratorParams(n_min=2, n_max=9, edge_factor=3, pool_size=3)
    for seed in range(12):
        i = random_interpretation(params, seed, GODEL)
        for phi in (PHI_PSI, PHI_O, PHI_I):
            relation = largest_bisimulation(i, i, phi)
            p = compcb(interpretation_to_graph(i, phi))
            from_blocks = {
                (x, y)
                for block in p.blocks
                for x in block
                for y in block
            }
            assert relation == from_blocks, (seed, phi)


BISIM_FEATURES = [
    FeatureSet.from_names(["baaz"]),
    FeatureSet.from_names(["baaz", "inverse"]),
    FeatureSet.from_names(["baaz", "nominal"]),
    FeatureSet.from_names(["baaz", "universal"]),
    FeatureSet.from_names(["baaz", "inverse", "nominal", "universal"]),
]


def test_largest_bisimulation_matches_pairwise_fixpoint():
    params = GeneratorParams(n_min=2, n_max=10, edge_factor=3, pool_size=3, individual_count=2)
    godel5 = load_lattice(bundled_lattice_path("godel5"))
    outcomes = set()
    for k, alg in enumerate([GODEL, PRODUCT, LUK, godel5]):
        for seed in range(12):
            i = random_interpretation(params, 100 * k + seed, alg)
            j = random_interpretation(params, 100 * k + seed + 50, alg)
            for phi in BISIM_FEATURES:
                small = minimize(i, phi)
                for left, right in ((i, i), (i, j), (i, small), (small, i)):
                    relation = largest_bisimulation(left, right, phi)
                    assert relation == largest_bisimulation_by_fixpoint(left, right, phi), (
                        alg, seed, phi.names(), left.n, right.n
                    )
                    if relation:
                        assert is_bisimulation(left, right, relation, phi).ok
                    outcomes.add(bool(relation))
    assert outcomes == {False, True}


def test_largest_bisimulation_of_an_equal_copy_matches_the_auto_call():
    params = GeneratorParams(n_min=2, n_max=10, edge_factor=3, pool_size=3, individual_count=2)
    for seed in range(6):
        i = random_interpretation(params, seed, PRODUCT)
        copy = random_interpretation(params, seed, PRODUCT)
        assert copy is not i
        for phi in BISIM_FEATURES:
            assert largest_bisimulation(i, copy, phi) == largest_bisimulation(i, i, phi)


def test_largest_bisimulation_ignores_shared_element_names():
    # the same names on both sides, each naming the other side's other element
    i1 = Interpretation(GODEL, ["u", "v"], individuals={"a": "u"},
                        concepts={"A": {"u": "1"}}, roles={"r": [("u", "v", "0.5")]})
    i2 = Interpretation(GODEL, ["v", "u"], individuals={"a": "v"},
                        concepts={"A": {"v": "1"}}, roles={"r": [("v", "u", "0.5")]})
    for phi in BISIM_FEATURES:
        relation = largest_bisimulation(i1, i2, phi)
        assert relation == {(0, 0), (1, 1)}
        assert relation == largest_bisimulation_by_fixpoint(i1, i2, phi)


def _assert_union_store_matches_names(i1, i2, phi):
    """The id-built store of the encoded disjoint union against the graph
    built by prefixed names: the same `levels`, vertex-label tables, edge
    labels and statistics, and per target the same sources as a set."""
    built = FuzzyGraph._from_ids(i1.algebra, i1.names + i2.names, *_union_store(
        (i1.n, *_encoding(i1, phi), i1.levels), (i2.n, *_encoding(i2, phi), i2.levels)))
    oracle = union_graph_by_names(i1, i2, phi)
    assert built.levels == oracle.levels
    assert built._labels == oracle._labels
    assert built.edge_label_names == oracle.edge_label_names
    for label in built.edge_label_names:
        assert list(map(set, built.incoming(label))) == list(map(set, oracle.incoming(label))), label
    assert built.stats() == oracle.stats()
    return built


def test_union_store_matches_name_built_union():
    params = GeneratorParams(n_min=2, n_max=12, edge_factor=3, pool_size=4, individual_count=2)
    godel5 = load_lattice(bundled_lattice_path("godel5"))
    differ = 0
    for k, alg in enumerate([GODEL, PRODUCT, LUK, godel5]):
        for seed in range(8):
            i = random_interpretation(params, 60 * k + seed, alg)
            j = random_interpretation(params, 60 * k + seed + 30, alg)
            differ += i.levels != j.levels
            for phi in BISIM_FEATURES[:3]:  # baaz; baaz,inverse; baaz,nominal
                for left, right in ((i, j), (j, i), (i, minimize(i, phi))):
                    _assert_union_store_matches_names(left, right, phi)
    assert differ > 20


def test_union_store_takes_a_concept_from_one_side():
    # A is non-bottom on the left only, B on the right only, and the sides'
    # levels, (0, 1/2, 1) and (0, 1/4, 1/3, 1), merge into one ascending tuple
    left = Interpretation(GODEL, ["u", "v"], individuals={"a": "u"},
                          concepts={"A": {"u": "1/2"}, "B": {"v": "0"}},
                          roles={"r": [("u", "v", "1")]})
    right = Interpretation(GODEL, ["w", "x"], individuals={"a": "x"},
                           concepts={"A": {}, "B": {"w": "1/3"}},
                           roles={"r": [("x", "w", "1/4")]})
    for phi in BISIM_FEATURES[:3]:
        built = _assert_union_store_matches_names(left, right, phi)
        assert built.levels == (0, F(1, 4), F(1, 3), F(1, 2), 1)
        assert built._labels["A"] == {0: 3} and built._labels["B"] == {2: 2}


def test_largest_bisimulation_signature_mismatch_rejected():
    i1 = chain_interp(GODEL)
    other = Interpretation(GODEL, ["x"], concepts={"B": {}}, roles={"r": []})
    with pytest.raises(UsageError, match="signature mismatch"):
        largest_bisimulation(i1, other, PHI_PSI)


@pytest.mark.parametrize("bisimulation", [
    lambda i1, i2: is_bisimulation(i1, i2, set(), PHI_PSI),
    lambda i1, i2: largest_bisimulation(i1, i2, PHI_PSI),
], ids=["is_bisimulation", "largest_bisimulation"])
def test_bisimulation_rejects_interpretations_over_different_algebras(bisimulation):
    with pytest.raises(UsageError, match="interpretations use different algebras"):
        bisimulation(chain_interp(GODEL), chain_interp(PRODUCT))


def test_largest_bisimulation_rejects_a_role_named_like_an_inverse():
    # under inverse, r's reversed copy is labelled r-, so a role named r-
    # cannot be told apart from it; without inverse the names are fine
    def build():
        return Interpretation(GODEL, ["u", "v"], roles={"r": [("u", "v", "1")], "r-": []})

    i, copy = build(), build()
    for right in (i, copy):
        with pytest.raises(UsageError, match="collides with the inverse label"):
            largest_bisimulation(i, right, PHI_I)
        assert largest_bisimulation(i, right, PHI_PSI) == largest_bisimulation_by_fixpoint(
            i, right, PHI_PSI
        )


# --- graph encoding -------------------------------------------------------------

def test_encoding_psi_case():
    g = interpretation_to_graph(two_component_interp(GODEL), PHI_PSI)
    assert g.vertex_label_names == ()
    assert g.edge_label_names == ("r",)


def test_encoding_nominal_labels():
    g = interpretation_to_graph(two_component_interp(GODEL), PHI_O)
    assert g.vertex_label_names == ("o",)
    a = g.vertex_id("a")
    assert label_vector(g, a) == (F(1),)
    assert all(label_vector(g, v) == (F(0),) for v in range(g.n) if v != a)


def test_encoding_drops_concepts_without_a_non_bottom_degree():
    i = Interpretation(GODEL, ["u", "v"], concepts={"A": {"u": "0", "v": "0"}, "B": {"v": "0.5"}},
                       roles={"r": []})
    g = interpretation_to_graph(i, PHI_PSI)
    assert g.vertex_label_names == ("B",)
    assert [label_vector(g, v) for v in range(g.n)] == [(F(0),), (F(1, 2),)]


def test_encoding_inverse_doubles_edges():
    i = two_component_interp(GODEL)
    g = interpretation_to_graph(i, PHI_I)
    assert g.edge_label_names == ("r", "r-")
    stats = g.stats()
    assert stats.m == 20
    b, a = g.vertex_id("b"), g.vertex_id("a")
    assert out_maps(g)[b]["r-"][a] == F("0.8")


def test_encoding_reads_the_interpretation_store_without_a_copy():
    # r is the per-target store, r- the per-source store, and both share levels
    i = two_component_interp(GODEL)
    g = interpretation_to_graph(i, PHI_I)
    assert g.incoming("r") is i._in["r"]
    assert g.incoming("r-") is i._out["r"]
    assert g.levels is i.levels


def test_encoding_rejects_colliding_inverse_label():
    i = Interpretation(GODEL, ["x"], roles={"r": [("x", "x", "1")], "r-": [("x", "x", "1")]})
    with pytest.raises(UsageError):
        interpretation_to_graph(i, PHI_I)


def test_encoding_from_ids_matches_name_built_graph():
    full = FeatureSet.from_names(FEATURE_NAMES)
    params = GeneratorParams(n_min=2, n_max=12, edge_factor=3, pool_size=5)
    for k, alg in enumerate([GODEL, PRODUCT, LUK, load_lattice(bundled_lattice_path("godel5"))]):
        for seed in range(10):
            i = random_interpretation(params, 40 * k + seed, alg)
            fast, slow = interpretation_to_graph(i, full), graph_by_names(i, full)
            assert fast.names == slow.names
            assert fast.vertex_label_names == slow.vertex_label_names
            assert fast.edge_label_names == slow.edge_label_names
            assert fast.edges == slow.edges
            assert fast.stats() == slow.stats()
            assert fast.initial_partition() == slow.initial_partition()
    clash = Interpretation(GODEL, ["x"], roles={"r": [("x", "x", "1")], "r-": [("x", "x", "1")]})
    with pytest.raises(UsageError):
        interpretation_to_graph(clash, full)


def test_concept_and_role_degrees_share_one_levels_tuple():
    # concept degrees that no role has, and three texts of one degree in
    # concepts and roles alike: every concept degree, the initial partition
    # and the statistics match the degree-keyed oracle, `levels` holds every
    # degree in use and top, and l counts role degrees only
    godel5 = load_lattice(bundled_lattice_path("godel5"))
    for alg, equal, concept_only, role_only in [
        (GODEL, ["0.5", "1/2", "2/4"], ["0.3", "7/10", "1"], ["1/4", "0.25", "3/4"]),
        (PRODUCT, ["0.5", "1/2", "2/4"], ["1/3", "0.9"], ["0.2", "1"]),
        (LUK, ["0.5", "1/2", "2/4"], ["0.1", "6/10"], ["0.7", "1", "1/1"]),
        (godel5, ["2", "02", "+2"], ["1", "3"], ["4"]),
    ]:
        rng = random.Random(f"levels:{alg.name}")
        for _ in range(6):
            names = [f"e{k}" for k in range(rng.randint(2, 20))]
            first, last = names[0], names[-1]
            concepts = {c: {x: rng.choice(equal + concept_only)
                            for x in rng.sample(names, rng.randint(0, len(names)))}
                        for c in ("A", "B")}
            concepts["A"][first], concepts["B"][last] = concept_only[0], equal[2]
            roles = {"r": [(first, last, equal[0])], "s": []}
            for rname, entries in roles.items():
                pairs = {(rng.choice(names), rng.choice(names)) for _ in names} - {(first, last)}
                entries += [(x, y, rng.choice(equal + role_only)) for x, y in sorted(pairs)]
            doc = {"domain": names, "individuals": {"o": rng.choice(names)},
                   "concepts": concepts, "roles": roles}
            i = Interpretation(alg, names, doc["individuals"], concepts, roles)
            role_degrees = {alg.parse_degree(d) for entries in roles.values() for _, _, d in entries}
            for phi in (PHI_PSI, PHI_IO):
                degrees, partition, stats = degree_oracle(alg, doc, phi)
                for cname in ("A", "B"):
                    assert [i.concept_degree(cname, x) for x in range(i.n)] == [
                        degrees[cname].get(x, alg.bottom) for x in range(i.n)]
                g = interpretation_to_graph(i, phi)
                assert g.initial_partition() == partition
                assert g.stats() == stats
                assert stats.l == len(role_degrees)
                in_use = {d for table in degrees.values() for d in table.values()} | role_degrees
                assert i.levels == (alg.bottom, *sorted(in_use | {alg.top}))
                assert len(i.levels) - 1 > stats.l  # concept_only[0] is a level, not an edge degree


# --- quotient / minimize ---------------------------------------------------------

def role_map(i, rname):
    return {
        (i.names[x], i.names[y]): degree
        for (x, y), degree in role_instances(i, rname).items()
    }


def test_quotient_golden_collapse():
    i = collapse_interp(GODEL)
    g = interpretation_to_graph(i, PHI_PSI)
    p = compcb(g)
    j = quotient(i, p)
    assert sorted(j.names) == ["{u}", "{v,w}"]
    assert j.individuals["a"] == j.element_id("{u}")
    assert role_map(j, "r") == {("{u}", "{v,w}"): F("0.9"), ("{v,w}", "{v,w}"): F("0.8")}
    assert j.concept_degree("A", j.element_id("{u}")) == F(1)
    assert j.concept_degree("A", j.element_id("{v,w}")) == F("0.5")


def test_quotient_identity_partition_is_isomorphic():
    from fuzzmin import Partition

    i = collapse_interp(GODEL)
    p = Partition([{x} for x in range(i.n)], i.n)
    j = quotient(i, p)
    assert j.n == i.n
    assert role_map(j, "r") == {
        ("{" + a + "}", "{" + b + "}"): degree
        for (a, b), degree in role_map(i, "r").items()
    }


def test_quotient_requires_matching_partition():
    from fuzzmin import Partition

    i = collapse_interp(GODEL)
    with pytest.raises(UsageError):
        quotient(i, Partition([{0}, {1}], 2))


def test_minimize_sizes_and_roles_per_feature_set():
    i = two_component_interp(GODEL)
    j1 = minimize(i, PHI_PSI)
    assert j1.n == 2
    u, v = "{a,a2}", "{b,b2,b3,c,d,e}"
    assert role_map(j1, "r") == {(u, v): F("0.8"), (v, v): F(1)}
    assert j1.names[j1.individuals["o"]] == u

    j2 = minimize(i, PHI_O)
    assert j2.n == 3
    assert role_map(j2, "r") == {
        ("{a}", v): F("0.8"), ("{a2}", v): F("0.8"), (v, v): F(1)
    }

    for phi in (PHI_I, PHI_IO):
        j3 = minimize(i, phi)
        assert j3.n == 7
        assert role_map(j3, "r") == {
            ("{a}", "{b}"): F("0.8"),
            ("{b}", "{c}"): F("0.7"),
            ("{b}", "{d}"): F(1),
            ("{c}", "{e}"): F(1),
            ("{d}", "{e}"): F(1),
            ("{e}", "{d}"): F(1),
            ("{a2}", "{b2,b3}"): F("0.8"),
            ("{b2,b3}", "{b2,b3}"): F(1),
        }


def test_minimize_collapse_matches_twin():
    j = minimize(collapse_interp(GODEL), PHI_PSI)
    twin = collapsed_twin(GODEL)
    assert j.n == twin.n
    # match via the individual: a -> {u} <-> u'
    assert j.concept_degree("A", j.individuals["a"]) == twin.concept_degree("A", twin.individuals["a"])
    assert role_map(j, "r") == {("{u}", "{v,w}"): F("0.9"), ("{v,w}", "{v,w}"): F("0.8")}


def test_canonical_relation_is_bisimulation():
    i = two_component_interp(GODEL)
    for phi in (PHI_PSI, PHI_O, PHI_I, PHI_IO):
        g = interpretation_to_graph(i, phi)
        p = compcb(g)
        j = quotient(i, p)
        z = canonical_relation(i, p, j)
        assert is_bisimulation(i, j, z, phi).ok
        assert is_bisimulation(i, j, z, phi.with_universal()).ok


def test_minimize_idempotent():
    i = two_component_interp(GODEL)
    for phi in (PHI_PSI, PHI_O, PHI_I):
        j = minimize(i, phi)
        again = minimize(j, phi)
        assert again.n == j.n
        p = compcb(interpretation_to_graph(j, phi))
        assert all(len(block) == 1 for block in p.blocks)


# --- pruning ---------------------------------------------------------------------

# pruning is defined only without the universal role
PHI_PRUNE = FeatureSet.from_names(["baaz", "comp", "union", "star", "test"])
PHI_PRUNE_I = FeatureSet.from_names(["baaz", "comp", "union", "star", "test", "inverse"])


def test_prune_goldens():
    i = two_component_interp(GODEL)
    kept = prune_unreachable(i, PHI_PRUNE)
    assert sorted(kept.names) == ["a", "b", "c", "d", "e"]
    kept_inv = prune_unreachable(i, PHI_PRUNE_I)
    assert sorted(kept_inv.names) == ["a", "b", "c", "d", "e"]


def test_prune_identity_when_all_named():
    i = Interpretation(
        GODEL, ["x", "y"],
        individuals={"a": "x", "b": "y"},
        roles={"r": []},
    )
    assert prune_unreachable(i, PHI_PRUNE).names == i.names


def test_prune_requires_individuals():
    i = chain_interp(GODEL)
    with pytest.raises(UsageError):
        prune_unreachable(i, PHI_PSI)


def test_prune_rejects_the_universal_role():
    # pruning would drop c, and with it some U . A at a would fall from 1 to 0
    i = Interpretation(GODEL, ["a", "c"], individuals={"o": "a"}, concepts={"A": {"c": "1"}})
    phi = FeatureSet.from_names(["baaz", "universal"])
    assert eval_concept(i, parse_concept("some U . A", phi), phi)[i.element_id("a")] == 1
    with pytest.raises(UsageError, match="universal"):
        prune_unreachable(i, phi)


def test_prune_then_minimize_stays_bisimilar_to_original():
    i = two_component_interp(GODEL)
    kept = prune_unreachable(i, PHI_PRUNE)
    j = minimize(kept, PHI_PRUNE)
    relation = largest_bisimulation(i, j, PHI_PRUNE)
    for a in i.individual_names:
        assert (i.individuals[a], j.individuals[a]) in relation


# --- satisfaction -----------------------------------------------------------------

def test_satisfies_concept_assertions():
    i = Interpretation(
        GODEL, ["a", "b", "c"],
        individuals={"a": "a"},
        concepts={"A": {"a": "1", "b": "0.6", "c": "0.9"}},
        roles={"r": [("a", "b", "0.8"), ("a", "c", "0.5"), ("b", "c", "0.7")]},
    )
    assert satisfies(i, PHI_PSI, ConceptAssertion(SOME_R_A, "a", ">=", F("0.6")))
    assert not satisfies(i, PHI_PSI, ConceptAssertion(SOME_R_A, "a", ">", F("0.6")))

    ip = Interpretation(
        PRODUCT, ["a", "b", "c"],
        individuals={"a": "a"},
        concepts={"A": {"a": "1", "b": "0.6", "c": "0.9"}},
        roles={"r": [("a", "b", "0.8"), ("a", "c", "0.5"), ("b", "c", "0.7")]},
    )
    assert not satisfies(ip, PHI_PSI, ConceptAssertion(ALL_R_A, "a", ">", F("0.75")))
    assert satisfies(ip, PHI_PSI, ConceptAssertion(ALL_R_A, "a", ">=", F("0.75")))


def test_satisfies_tbox_reflexive_axiom():
    i = chain_interp(LUK)
    axiom = TBoxAxiom(ConceptName("A"), ConceptName("A"), ">=", F(1))
    assert satisfies(i, PHI_PSI, axiom)


def test_satisfies_role_and_equality_assertions():
    i = Interpretation(
        GODEL, ["x", "y"],
        individuals={"a": "x", "b": "y", "c": "y"},
        roles={"r": [("x", "y", "0.4")]},
    )
    assert satisfies(i, PHI_PSI, RoleAssertion(RoleName("r"), "a", "b", ">=", F("0.4")))
    assert not satisfies(i, PHI_PSI, RoleAssertion(RoleName("r"), "a", "b", "<", F("0.4")))
    assert satisfies(i, PHI_PSI, SameAssertion("b", "c"))
    assert satisfies(i, PHI_PSI, DistinctAssertion("a", "b"))
    with pytest.raises(UsageError):
        satisfies(i, PHI_PSI, SameAssertion("a", "zz"))


def test_tbox_axiom_validates_comparison():
    with pytest.raises(UsageError):
        TBoxAxiom(ConceptName("A"), ConceptName("A"), "<", F(1))


def test_satisfies_reads_a_lattice_bound_as_a_chain_index():
    # bounds go through the algebra's one check, as file degrees do
    godel5 = load_lattice(bundled_lattice_path("godel5"))
    i = Interpretation(godel5, ["x", "y"], individuals={"a": "x"}, concepts={"A": {"x": "2", "y": "3"}})
    a = ConceptName("A")
    for stmt in (TBoxAxiom(a, a, ">=", F(1, 2)), ConceptAssertion(a, "a", ">=", F(1, 2))):
        with pytest.raises(UsageError, match="chain index"):
            satisfies(i, PHI_PSI, stmt)
    assert satisfies(i, PHI_PSI, ConceptAssertion(a, "a", ">=", F(2)))
    assert not satisfies(i, PHI_PSI, ConceptAssertion(a, "a", ">", F(2)))
    # min over the domain of residuum(3, A) is 2 under godel5's Goedel residuum
    axiom = TBoxAxiom(ConstantConcept(F(3)), a, ">=", F(2))
    assert satisfies(i, PHI_PSI, axiom)
    assert not satisfies(i, PHI_PSI, TBoxAxiom(axiom.left, a, ">", F(2)))


# --- JSON round-trips ----------------------------------------------------------------

def test_interpretation_json_roundtrip(tmp_path):
    import json

    from fuzzmin import interpretation_to_json, load_interpretation

    i = collapse_interp(GODEL)
    path = tmp_path / "i.json"
    path.write_text(json.dumps(interpretation_to_json(i)))
    back = load_interpretation(str(path), GODEL)
    assert back.names == i.names
    assert back.individuals == i.individuals
    assert role_instances(back, "r") == role_instances(i, "r")
    for cname in i.concept_names:
        for x in range(i.n):
            assert back.concept_degree(cname, x) == i.concept_degree(cname, x)


def test_load_interpretation_keeps_decimals_exact(tmp_path):
    from fuzzmin import load_interpretation

    path = tmp_path / "plain.json"
    path.write_text('{"domain": ["x"], "concepts": {"A": {"x": 0.8}}, "roles": {}}')
    i = load_interpretation(str(path), GODEL)
    assert i.concept_degree("A", 0) == F(4, 5)


def test_zero_role_instance_rejected():
    with pytest.raises(UsageError):
        Interpretation(GODEL, ["x"], roles={"r": [("x", "x", "0")]})


def test_duplicate_role_instance_rejected():
    with pytest.raises(UsageError):
        Interpretation(GODEL, ["x"], roles={"r": [("x", "x", "1"), ("x", "x", "0.5")]})


def test_vocabulary_collision_rejected():
    with pytest.raises(UsageError):
        Interpretation(GODEL, ["x"], individuals={"A": "x"}, concepts={"A": {"x": "1"}})


# --- seeded property sweeps --------------------------------------------------------

CONFIGS = [
    FeatureSet.from_names(["baaz", "comp", "union", "star", "test"]),
    FeatureSet.from_names(["baaz", "comp", "union", "star", "test", "nominal"]),
    FeatureSet.from_names(["baaz", "comp", "union", "star", "test", "inverse"]),
    FeatureSet.from_names(["baaz", "comp", "union", "star", "test", "universal"]),
]


def test_random_preservation_sweep():
    params = GeneratorParams(n_min=2, n_max=8, edge_factor=3, pool_size=3)
    rng = random.Random("fdl-sweep")
    for seed in range(8):
        for alg in (GODEL, PRODUCT, LUK):
            i = random_interpretation(params, seed, alg)
            for phi in CONFIGS:
                g = interpretation_to_graph(i, phi)
                p = compcb(g)
                j = quotient(i, p)
                z = canonical_relation(i, p, j)
                assert is_bisimulation(i, j, z, phi).ok
                assert minimize(j, phi).n == j.n
                bisim = largest_bisimulation(i, i, phi)
                for _ in range(4):
                    c = random_concept(rng, phi, 3, list(i.concept_names),
                                       list(i.role_names), list(i.individual_names), alg)
                    values = eval_concept(i, c, phi)
                    assert all(values[x] == values[y] for x, y in bisim)


# --- id-built quotient and pruning -------------------------------------------------

FULL_MINUS_UNIVERSAL = FeatureSet.from_names(
    ["baaz", "comp", "union", "star", "test", "inverse", "nominal"]
)


def _random_partition(rng, n):
    blocks: list[list[int]] = []
    for x in rng.sample(range(n), n):
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(x)
        else:
            blocks.append([x])
    return Partition(blocks, n)


def _assert_same_interpretation(built, oracle, phi):
    """An id-built interpretation against its by-names oracle: the same
    document, and the same compact `levels` (only the degrees its roles
    use) and graph statistics, which the document alone does not show."""
    assert interpretation_to_json(built) == interpretation_to_json(oracle)
    assert built.levels == oracle.levels
    assert interpretation_to_graph(built, phi).stats() == interpretation_to_graph(oracle, phi).stats()


def test_quotient_from_ids_matches_name_built_quotient():
    full = FeatureSet.from_names(FEATURE_NAMES)
    params = GeneratorParams(n_min=2, n_max=14, edge_factor=3, pool_size=5, individual_count=2)
    rng = random.Random("quotient-by-names")
    for k, alg in enumerate([GODEL, PRODUCT, LUK, load_lattice(bundled_lattice_path("godel5"))]):
        for seed in range(12):
            i = random_interpretation(params, 50 * k + seed, alg)
            for phi in (full, PHI_PSI):
                g = interpretation_to_graph(i, phi)
                p = compcb(g)
                _assert_same_interpretation(quotient(i, p), quotient_by_names(i, p), phi)
            # any partition, stable or not: the first member in name order
            # gives the concept degrees, the sup over members the role degrees
            p = _random_partition(rng, i.n)
            _assert_same_interpretation(quotient(i, p), quotient_by_names(i, p), full)


def test_quotient_rejects_colliding_block_names():
    i = Interpretation(GODEL, ["a", "b", "a,b"])
    p = Partition([[0, 1], [2]], 3)  # both blocks are named "{a,b}"
    for build in (quotient, quotient_by_names):
        with pytest.raises(UsageError):
            build(i, p)


def test_prune_from_ids_matches_name_built_prune():
    params = GeneratorParams(n_min=2, n_max=14, edge_factor=2, pool_size=4, individual_count=2)
    for k, alg in enumerate([GODEL, PRODUCT, LUK, load_lattice(bundled_lattice_path("godel5"))]):
        for seed in range(12):
            i = random_interpretation(params, 50 * k + seed, alg)
            for phi in (FULL_MINUS_UNIVERSAL, PHI_PRUNE):
                _assert_same_interpretation(prune_unreachable(i, phi), prune_by_names(i, phi), phi)
