"""`some R*` and `all R*`: the evaluator's one search per star against the
Kleene iteration it replaced (`helpers.kleene_concept_values`), its
t-norm and residuum calls on long paths and cycles, the size of a star's
automaton, and star queries on a minimized social network."""

import pytest

from fuzzmin import (FeatureSet, Interpretation, canonical_relation, compcb, eval_concept,
                     interpretation_to_graph, parse_concept, parse_role, quotient)
from fuzzmin.algebra import bundled_lattice_path, load_lattice, make_algebra
from fuzzmin.fdl import FEATURE_NAMES, ConceptName, ExistsConcept, ForallConcept, _StarAutomaton
from fuzzmin.generate import GeneratorParams, random_interpretation
from helpers import kleene_concept_values, role_instances
from test_trace_digest import social_interpretation

FULL = FeatureSet.from_names(FEATURE_NAMES)

# r is r0, s is r1, A is A0 and B is A1 in the generated interpretations
STAR_SHAPES = [
    "r0*", "(r0-)*", "(r0 | r1-)*", "(r0 ; r1)*", "(r0 ; A0?)*", "((r0 ; r1)* ; A1?)*",
    "((r0)*)-",
    "((some r0* . A1)? ; r1)*",  # a star inside a test inside a star
    "U*", "(r0 ; U)*", "(U ; A1?)*",
]

VERIFY_ALGEBRAS = ["godel", "product", "lukasiewicz", "godel5"]


def algebra(name):
    if name == "godel5":
        return load_lattice(bundled_lattice_path(name))
    return make_algebra(name)


@pytest.mark.parametrize("name", VERIFY_ALGEBRAS)
def test_star_search_matches_kleene_oracle(name):
    alg = algebra(name)
    roles = [parse_role(text, FULL) for text in STAR_SHAPES]
    params = GeneratorParams(n_min=2, n_max=32, edge_factor=3, pool_size=4)
    for seed in range(75):
        i = random_interpretation(params, seed, alg)
        assert i.n <= 40
        for role in roles:
            for node in (ExistsConcept(role, ConceptName("A0")),
                         ForallConcept(role, ConceptName("A0"))):
                values = eval_concept(i, node, FULL)
                assert values == kleene_concept_values(i, node), (seed, node)
                # exact: Fractions for the unit interval, chain indices for a lattice
                assert {type(d) for d in values} == {type(alg.top)}


def count_calls(alg) -> list:
    """Wrap tnorm and residuum on the algebra instance; the returned list
    gets one entry per call."""
    calls = []
    for name in ("tnorm", "residuum"):
        def counted(a, b, op=getattr(alg, name)):
            calls.append(1)
            return op(a, b)
        setattr(alg, name, counted)
    return calls


def one_label(alg, n: int, cycle: bool, some: bool) -> Interpretation:
    """u0 -> u1 -> ... -> u(n-1) along r at 9/10, back to u0 on a cycle.
    A is 1/2 at the last element and, for `all`, 1 elsewhere, so that
    the last element's value reaches every other one."""
    names = [f"u{k}" for k in range(n)]
    edges = [(names[k], names[(k + 1) % n], "0.9") for k in range(n if cycle else n - 1)]
    concept = {} if some else dict.fromkeys(names, "1")
    concept[names[-1]] = "0.5"
    return Interpretation(alg, names, concepts={"A": concept}, roles={"r": edges})


QUERIES = {True: "some r* . A", False: "all r* . A"}


@pytest.mark.parametrize("name", ["godel", "product"])
@pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
@pytest.mark.parametrize("some", [True, False], ids=["some", "all"])
def test_star_makes_at_most_m_plus_n_calls(name, cycle, some):
    alg = algebra(name)
    i = one_label(alg, 2000, cycle, some)
    m = len(role_instances(i, "r"))
    calls = count_calls(alg)
    eval_concept(i, parse_concept(QUERIES[some], FULL), FULL)
    assert 0 < len(calls) <= m + i.n


@pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
@pytest.mark.parametrize("some", [True, False], ids=["some", "all"])
def test_kleene_oracle_breaks_the_call_bound(cycle, some):
    # the bound above catches a return to Kleene rounds, already at n = 200
    alg = make_algebra("godel")
    i = one_label(alg, 200, cycle, some)
    m = len(role_instances(i, "r"))
    node = parse_concept(QUERIES[some], FULL)
    calls = count_calls(alg)
    expected = kleene_concept_values(i, node)
    assert len(calls) > 10 * (m + i.n)
    assert eval_concept(i, node, FULL) == expected


def two_elements() -> Interpretation:
    return Interpretation(make_algebra("godel"), ["a", "b"], concepts={"A": {"b": "1"}},
                          roles={"r": [("a", "b", "0.8")], "s": [("b", "a", "0.5")]})


@pytest.mark.parametrize("text,states", [
    ("r*", 1), ("(r-)*", 1), ("(r | s-)*", 1), ("(r*)*", 1), ("(r ; s)*", 2),
    ("(r | (s ; r)*)*", 3),
])
def test_star_automaton_states(text, states):
    automaton = _StarAutomaton(two_elements(), parse_role(text, FULL), False, {})
    assert len(automaton.accepting) == states and automaton.accepting[0]


def test_star_automaton_is_linear_in_the_expression():
    # every term can follow every other, so sets of following positions
    # would hold 3,000 x 3,000 pairs; here each term adds one state and at
    # most two moves
    terms = 3000
    i = two_elements()
    role = parse_role("(" + " ; ".join(["r*"] * terms) + ")*", FULL)
    automaton = _StarAutomaton(i, role, False, {})
    assert len(automaton.accepting) <= terms + 1
    assert sum(map(len, automaton.into)) <= 2 * terms + 1
    assert (eval_concept(i, ExistsConcept(role, ConceptName("A")), FULL)
            == eval_concept(i, parse_concept("some r* . A", FULL), FULL))


STAR_QUERIES = [
    "some follows* . Active",
    "all (likes | follows-)* . Popular",
    "some (follows ; Active?)* . Popular",
]


def test_star_queries_agree_on_the_quotient():
    i = social_interpretation(1)
    phi = FeatureSet.from_names(["baaz", "comp", "union", "star", "test", "inverse"])
    p = compcb(interpretation_to_graph(i, phi))
    reduced = quotient(i, p)
    assert i.n == 300 and reduced.n < i.n
    relation = canonical_relation(i, p, reduced)
    assert len(relation) == i.n
    for text in STAR_QUERIES:
        node = parse_concept(text, phi)
        original, small = eval_concept(i, node, phi), eval_concept(reduced, node, phi)
        assert len(set(original)) > 1, text
        assert all(original[x] == small[y] for x, y in relation), text
