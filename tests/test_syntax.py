import random
from fractions import Fraction as F
from functools import reduce

import pytest

from fuzzmin import (
    AndConcept,
    BaazConcept,
    ComposeRole,
    ConceptName,
    ConceptNode,
    ConstantConcept,
    ExistsConcept,
    FeatureError,
    FeatureSet,
    ForallConcept,
    GodelAlgebra,
    ImpliesConcept,
    InverseRole,
    Nominal,
    NotConcept,
    OrConcept,
    ParseError,
    RoleName,
    RoleNode,
    StarRole,
    TestRole,
    UnionRole,
    UniversalRole,
    check_features,
    parse_concept,
    parse_role,
    print_concept,
    print_role,
)
from fuzzmin.fdl import FEATURE_NAMES
from fuzzmin.generate import random_concept, random_role

FULL = FeatureSet.from_names(FEATURE_NAMES)
BARE = FeatureSet.from_names(["baaz"])


def test_parse_exists():
    assert parse_concept("some r . A", BARE) == ExistsConcept(RoleName("r"), ConceptName("A"))


def test_parse_star_composition():
    phi = FeatureSet.from_names(["baaz", "comp", "star"])
    assert parse_concept("some (r* ; r) . A", phi) == ExistsConcept(
        ComposeRole(StarRole(RoleName("r")), RoleName("r")), ConceptName("A")
    )


def test_inverse_requires_feature():
    with pytest.raises(FeatureError):
        parse_concept("some r- . A", BARE)
    assert parse_concept("some r- . A", FULL) == ExistsConcept(
        InverseRole(RoleName("r")), ConceptName("A")
    )


def test_role_union():
    assert parse_role("r | s", FULL) == UnionRole(RoleName("r"), RoleName("s"))


def test_test_role_feature_gate():
    with pytest.raises(FeatureError):
        parse_role("(A ?)", BARE)
    assert parse_role("(A ?)", FULL) == TestRole(ConceptName("A"))
    assert parse_role("(A) ?", FULL) == TestRole(ConceptName("A"))
    assert parse_role("((A & B) ?)", FULL) == TestRole(
        AndConcept(ConceptName("A"), ConceptName("B"))
    )


def test_nominal_feature_gate():
    with pytest.raises(FeatureError):
        parse_concept("{a}", BARE)
    assert parse_concept("{a}", FULL) == Nominal("a")


def test_universal_feature_gate():
    with pytest.raises(FeatureError):
        parse_concept("all U . A", BARE)


def test_canonical_fraction_printing():
    assert print_concept(parse_concept("all U . (A -> 0.5)", FULL)) == "all U . (A -> 1/2)"
    assert print_concept(parse_concept("0.25", BARE)) == "1/4"
    assert print_concept(parse_concept("1", BARE)) == "1"


def test_degree_literals():
    assert parse_concept("0.8", BARE) == ConstantConcept(F(4, 5))
    assert parse_concept("7/10", BARE) == ConstantConcept(F(7, 10))


def test_precedence_and_over_or_over_implies():
    node = parse_concept("A & B | C -> D", BARE)
    assert node == ImpliesConcept(
        OrConcept(AndConcept(ConceptName("A"), ConceptName("B")), ConceptName("C")),
        ConceptName("D"),
    )


def test_implies_right_associative():
    node = parse_concept("A -> B -> C", BARE)
    assert node == ImpliesConcept(
        ConceptName("A"), ImpliesConcept(ConceptName("B"), ConceptName("C"))
    )


def test_prefix_binds_tighter_than_and():
    assert parse_concept("not A & B", BARE) == AndConcept(
        NotConcept(ConceptName("A")), ConceptName("B")
    )
    assert parse_concept("tri A & B", BARE) == AndConcept(
        BaazConcept(ConceptName("A")), ConceptName("B")
    )


def test_quantifier_body_extends_right():
    assert parse_concept("some r . A & B", BARE) == ExistsConcept(
        RoleName("r"), AndConcept(ConceptName("A"), ConceptName("B"))
    )
    assert parse_concept("(some r . A) & B", BARE) == AndConcept(
        ExistsConcept(RoleName("r"), ConceptName("A")), ConceptName("B")
    )


def test_role_postfix_precedence():
    assert parse_role("r ; s-", FULL) == ComposeRole(
        RoleName("r"), InverseRole(RoleName("s"))
    )
    assert parse_role("(r ; s)-", FULL) == InverseRole(
        ComposeRole(RoleName("r"), RoleName("s"))
    )
    assert parse_role("r | s ; t", FULL) == UnionRole(
        RoleName("r"), ComposeRole(RoleName("s"), RoleName("t"))
    )
    assert parse_role("r--", FULL) == InverseRole(InverseRole(RoleName("r")))


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_concept("some r A", BARE)
    assert "'.'" in str(err.value)
    with pytest.raises(ParseError):
        parse_concept("A &", BARE)
    with pytest.raises(ParseError):
        parse_concept("A @ B", BARE)
    with pytest.raises(ParseError):
        parse_concept("A B", BARE)  # trailing input
    with pytest.raises(ParseError):
        parse_role("(A ?", FULL)
    with pytest.raises(ParseError):
        parse_concept("0.5/2", BARE)


def test_keywords_are_not_names():
    with pytest.raises(ParseError):
        parse_concept("not", BARE)
    with pytest.raises(ParseError):
        parse_role("all", FULL)


def test_primed_names_allowed():
    assert parse_concept("A'", BARE) == ConceptName("A'")


def test_universal_role_prints_bare():
    assert print_role(UniversalRole()) == "U"


def test_roundtrip_fuzzed_asts():
    godel = GodelAlgebra()
    rng = random.Random("syntax-roundtrip")
    concepts = ["A", "B", "C'"]
    roles = ["r", "s"]
    individuals = ["a", "b"]
    for _ in range(400):
        node = random_concept(rng, FULL, rng.randint(0, 6), concepts, roles, individuals, godel)
        text = print_concept(node)
        assert parse_concept(text, FULL) == node, text
    for _ in range(200):
        node = random_role(rng, FULL, rng.randint(0, 5), roles, concepts, individuals, godel)
        text = print_role(node)
        assert parse_role(text, FULL) == node, text


def test_print_parse_canonical_fixpoint():
    samples = [
        "some (r* ; r) . A",
        "not (A | B) -> tri C",
        "all (r | s)- . (A & 0.5)",
        "some ((not A) ?) . {a}",
        "A & B & C | D",
        "some U . all r . A -> B",
    ]
    for text in samples:
        first = parse_concept(text, FULL)
        printed = print_concept(first)
        assert parse_concept(printed, FULL) == first
        assert print_concept(parse_concept(printed, FULL)) == printed


def test_roundtrip_under_the_nodes_own_features():
    # each node is printed and parsed under the feature set it was generated
    # under, so a '?'-test of a concept '|' must parse with 'union' off
    godel = GodelAlgebra()
    rng = random.Random("syntax-roundtrip-phi")
    optional = [name for name in FULL.names() if name != "baaz"]
    concepts = ["A", "B", "C'"]
    roles = ["r", "s"]
    individuals = ["a", "b"]
    for _ in range(400):
        phi = FeatureSet.from_names(["baaz"] + [name for name in optional if rng.random() < 0.5])
        node = random_concept(rng, phi, rng.randint(0, 6), concepts, roles, individuals, godel)
        text = print_concept(node)
        assert parse_concept(text, phi) == node, (text, phi.names())
        node = random_role(rng, phi, rng.randint(0, 5), roles, concepts, individuals, godel)
        text = print_role(node)
        assert parse_role(text, phi) == node, (text, phi.names())


def test_concept_union_inside_a_test_needs_no_role_union():
    phi = FeatureSet.from_names(["baaz", "test"])
    a_or_b = OrConcept(ConceptName("A"), ConceptName("B"))
    assert parse_concept("some ((A | B) ?) . C", phi) == ExistsConcept(
        TestRole(a_or_b), ConceptName("C")
    )
    assert parse_role("(A | B) ?", phi) == TestRole(a_or_b)
    with pytest.raises(FeatureError):
        parse_concept("some (r | s) . A", phi)


def test_features_checked_on_chains_deeper_than_the_recursion_limit():
    # the only disabled constructor is the deepest leaf of a left-deep chain
    chain = parse_role("r- ; " + " ; ".join(["r"] * 3000), FULL)
    with pytest.raises(FeatureError, match="inverse"):
        check_features(chain, FeatureSet.from_names(["baaz", "comp"]))


def same_tree(a, b) -> bool:
    """a == b for expression trees, compared on a stack of pairs: `==` on the
    node records recurses once per level."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (ConceptNode, RoleNode)):
            stack.extend((getattr(x, name), getattr(y, name)) for name in x._fields)
        elif x != y:
            return False
    return True


NAMES = [ConceptName(f"A{k}") for k in range(3000)]
ROLES = [RoleName(f"r{k}") for k in range(3000)]
DEEP_TREES = {
    "and": lambda: reduce(AndConcept, NAMES),
    "or": lambda: reduce(OrConcept, NAMES),
    "implies": lambda: reduce(lambda right, left: ImpliesConcept(left, right), reversed(NAMES)),
    "compose": lambda: reduce(ComposeRole, ROLES),
    "union": lambda: reduce(UnionRole, ROLES),
    "postfix": lambda: reduce(lambda node, k: (InverseRole if k % 2 else StarRole)(node),
                              range(3000), RoleName("r")),
}


@pytest.mark.parametrize("kind", list(DEEP_TREES))
def test_print_parse_roundtrip_on_chains_deeper_than_the_recursion_limit(kind):
    node = DEEP_TREES[kind]()
    if isinstance(node, RoleNode):
        text = print_role(node)
        assert same_tree(parse_role(text, FULL), node)
    else:
        text = print_concept(node)
        assert same_tree(parse_concept(text, FULL), node)
    assert "(" not in text  # a chain prints flat
