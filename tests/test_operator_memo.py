"""The evaluator's per-evaluation operator memo (`algebra._OperatorMemo`):
its results under id reuse, the checked operator calls it saves, and the
evaluator against the Kleene oracle at n = 100, where degrees repeat."""

import random
from fractions import Fraction

import pytest

from fuzzmin import FeatureSet, Interpretation, eval_concept, eval_role, parse_concept, parse_role
from fuzzmin import algebra as algebra_module
from fuzzmin.algebra import _OperatorMemo, bundled_lattice_path, load_lattice, make_algebra
from fuzzmin.fdl import FEATURE_NAMES
from fuzzmin.generate import degree_pool
from helpers import kleene_concept_values

FULL = FeatureSet.from_names(FEATURE_NAMES)

VERIFY_ALGEBRAS = ["godel", "product", "lukasiewicz", "godel5"]

OPERATORS = {"tnorm": 2, "snorm": 2, "residuum": 2, "neg": 1, "baaz": 1}


def algebra(name):
    if name == "godel5":
        return load_lattice(bundled_lattice_path(name))
    return make_algebra(name)


@pytest.mark.parametrize("name", VERIFY_ALGEBRAS)
def test_memo_survives_id_reuse(name):
    # Each argument is a new object, dropped right after its call, so
    # CPython hands its id to a later argument; a memo keyed on ids that
    # did not keep its arguments alive would answer for the wrong value.
    # A lattice takes integral Fractions, so its arguments are fresh too.
    # Each operator, and each join, gets a memo of its own.
    alg = algebra(name)
    top = alg.size - 1 if name == "godel5" else 12
    rng = random.Random(name)

    def fresh():
        if name == "godel5":
            return Fraction(rng.randint(0, top))
        return Fraction(rng.randint(0, top), top)

    cases = [(op, getattr(_OperatorMemo(alg), op), getattr(alg, op), arity)
             for op, arity in OPERATORS.items()]
    cases += [(join.__name__, _OperatorMemo(alg).modal(some)[0], join, 2)
              for some, join in ((True, max), (False, min))]
    for op, memoized, plain, arity in cases:
        for _ in range(10_000):
            args = [fresh() for _ in range(arity)]
            got, want = memoized(*args), plain(*args)
            assert got == want, (op, args)
            del args


def hundred(alg, seed: int) -> Interpretation:
    """100 elements, concepts A and B on about half of them each, roles r
    and s with about 300 instances each, degrees from a pool of 4."""
    rng = random.Random(f"memo:{seed}")
    pool = degree_pool(rng, 4, alg)
    names = [f"x{k}" for k in range(100)]
    concepts = {c: {x: rng.choice(pool) for x in names if rng.random() < 0.5} for c in "AB"}
    roles = {r: {(rng.choice(names), rng.choice(names)): rng.choice(pool) for _ in range(300)}
             for r in "rs"}
    return Interpretation(alg, names, concepts=concepts,
                          roles={r: [(x, y, d) for (x, y), d in pairs.items()]
                                 for r, pairs in roles.items()})


def count_calls(alg) -> dict:
    """Wrap every operator on the algebra instance, as the benchmark's
    tracer does; the returned dict counts the calls per operator."""
    calls = dict.fromkeys(OPERATORS, 0)
    for name in OPERATORS:
        def counted(*args, name=name, op=getattr(alg, name)):
            calls[name] += 1
            return op(*args)
        setattr(alg, name, counted)
    return calls


def test_some_makes_one_tnorm_call_per_distinct_pair():
    alg = make_algebra("product")
    i = hundred(alg, 1)
    instances = i.role_instances("r")
    a = [i.concept_degree("A", x) for x in range(i.n)]
    bound = len(set(instances.values())) * len(set(a))
    assert bound < len(instances)  # one call per instance would break the bound
    calls = count_calls(alg)
    values = eval_concept(i, parse_concept("some r . A", FULL), FULL)
    assert 0 < calls["tnorm"] <= bound
    assert sum(calls.values()) == calls["tnorm"]
    assert values == kleene_concept_values(i, parse_concept("some r . A", FULL))


def test_eval_role_shares_one_memo_across_columns():
    # column y reads each degree against top (at y) and bottom (elsewhere)
    alg = make_algebra("product")
    i = hundred(alg, 2)
    bound = 2 * len(i.levels)
    assert bound < len(i.role_instances("r"))
    calls = count_calls(alg)
    rows = eval_role(i, parse_role("r", FULL), FULL)
    assert 0 < sum(calls.values()) <= bound
    assert {(x, y): d for x, row in enumerate(rows) for y, d in enumerate(row) if d} == dict(
        i.role_instances("r"))


ROLES = ["r", "r-", "r ; s", "r | s", "r*", "B ?"]
CHILDREN = ["A", "(A & all s . B)"]


@pytest.mark.parametrize("name", VERIFY_ALGEBRAS)
def test_memoized_evaluation_matches_kleene_oracle_at_n100(name):
    alg = algebra(name)
    i = hundred(alg, 3)
    assert i.n == 100
    for role in ROLES:
        for child in CHILDREN:
            for quantifier in ("some", "all"):
                node = parse_concept(f"{quantifier} ({role}) . {child}", FULL)
                values = eval_concept(i, node, FULL)
                assert values == kleene_concept_values(i, node), (role, child, quantifier)
                assert {type(d) for d in values} == {type(alg.top)}


def memo_tables(memoized) -> tuple[dict, list]:
    """A memoized operator's results and kept arguments, from its closure."""
    cells = dict(zip(memoized.__code__.co_freevars, memoized.__closure__))
    return cells["results"].cell_contents, cells["keep"].cell_contents


@pytest.mark.parametrize("name", VERIFY_ALGEBRAS)
def test_memo_starts_over_at_its_bound(monkeypatch, name):
    # with the bound lowered to 8, each memoized operator drops its results
    # and its kept arguments together when it is full: results stay exact
    # under id reuse, the tables never exceed the bound, and a repeat
    # inside one round is still answered from the memo
    monkeypatch.setattr(algebra_module, "_MEMO_ENTRIES", 8)
    alg = algebra(name)
    top = alg.size - 1 if name == "godel5" else 12
    rng = random.Random(f"bound:{name}")

    def fresh():
        if name == "godel5":
            return Fraction(rng.randint(0, top))
        return Fraction(rng.randint(0, top), top)

    calls = count_calls(alg)
    memo = _OperatorMemo(alg)
    for op, arity in OPERATORS.items():
        memoized = getattr(memo, op)
        results, keep = memo_tables(memoized)
        started = calls[op]
        for k in range(1_000):
            args = [fresh() for _ in range(arity)]
            assert memoized(*args) == getattr(alg, op)(*args), (op, args)
            assert memoized(*args) == getattr(alg, op)(*args), (op, args)  # a repeat
            assert 1 <= len(results) <= 8 and len(keep) == arity * len(results), (op, k)
            del args
        # each round: the memo's own call plus the two plain ones
        assert calls[op] - started == 3 * 1_000, op
    # the same eval with a bound below its distinct pairs
    i = hundred(alg, 4)
    node = parse_concept("some (r ; s) . (A & all s- . B)", FULL)
    values = eval_concept(i, node, FULL)
    assert values == kleene_concept_values(i, node)
    monkeypatch.setattr(algebra_module, "_MEMO_ENTRIES", 1 << 12)
    assert eval_concept(i, node, FULL) == values
