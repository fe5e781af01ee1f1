"""The one-pass document reader (`graph._Reader`) against the two-pass reader
it replaced (`helpers.interpretation_by_triples`, `helpers.graph_by_triples`):
the same stores from valid documents, the same first error from faulty ones,
and derived stores ranked without hashing a degree."""

import json
import os
import random
import re
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzmin import FeatureSet, FuzzyGraph, GodelAlgebra, Interpretation, UsageError
from fuzzmin.algebra import bundled_lattice_path, load_lattice, read_json
from fuzzmin.fdl import (
    ConceptName,
    compcb,
    eval_concept,
    interpretation_from_json,
    interpretation_to_graph,
    prune_unreachable,
    quotient,
)
from fuzzmin.generate import GeneratorParams, random_interpretation
from fuzzmin.graph import graph_from_json
from helpers import PHI_PSI, graph_by_triples, interpretation_by_triples

GODEL = GodelAlgebra()
GODEL5 = load_lattice(bundled_lattice_path("godel5"))


def _read(text: str):
    """A JSON text read back through `read_json`, bare decimals as Fractions."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        return read_json(path)
    finally:
        os.unlink(path)


def _outcome(build):
    """What a build gives: its store, or its UsageError's message."""
    try:
        built = build()
    except UsageError as exc:
        return "error", str(exc)
    if isinstance(built, Interpretation):
        return built.levels, built._concepts, built._in, built._l, built.individuals
    return built.levels, built._labels, built._in, built._l


# --- random documents, both readers ------------------------------------------

# per algebra, value spellings: (kind, payload); "frac" is a fresh Fraction
# per build, "dec" a bare JSON decimal that read_json makes a Fraction
VALUES = {
    "godel": [("text", t) for t in ("0", "0.5", "1/2", "1", "1/4", "0.25", "3/4", "0.75")]
    + [("int", 0), ("int", 1), ("frac", (1, 2)), ("frac", (3, 4)), ("frac", (0, 1)),
       ("dec", "0.5"), ("dec", "0.25"), ("dec", "0.0")],
    "godel5": [("text", t) for t in ("0", "1", "2", "3", "4")]
    + [("int", 0), ("int", 2), ("int", 4), ("frac", (3, 1)), ("frac", (1, 1)), ("dec", "2.0")],
}
FAULTY_VALUES = [("text", "2/0"), ("text", "7"), ("text", "x"), ("text", "1e999999999"),
                 ("bool", True), ("float", 0.5)]


def _value(spec, json_text: bool):
    kind, payload = spec
    if kind == "frac":
        return F(*payload) if not json_text else f"{payload[0]}/{payload[1]}"
    if kind == "dec":
        return _Bare(payload) if json_text else F(payload)
    return payload


class _Bare(str):
    """A bare JSON number: `_json` writes it unquoted."""


def _json(doc) -> str:
    """The JSON text of doc, each `_Bare` written as a bare number."""
    def mark(value):
        if isinstance(value, dict):
            return {key: mark(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [mark(item) for item in value]
        return f"\x00{value}" if isinstance(value, _Bare) else value
    return re.sub(r'"\\u0000([^"]*)"', r"\1", json.dumps(mark(doc)))


@st.composite
def specs(draw, algebra_name):
    """A document spec over a small domain: concepts, roles and one
    individual, each value drawn from the algebra's spellings, with rare
    faults: a bad value, an unknown name, a malformed entry; duplicate
    pairs come from the random pairs."""
    names = [f"e{k}" for k in range(draw(st.integers(1, 4)))]
    faulty = draw(st.integers(0, 3)) == 0
    name = st.sampled_from(names * 3 + ["ghost", "ghost2"] if faulty else names)
    value = st.sampled_from(VALUES[algebra_name] + (FAULTY_VALUES if faulty else []))
    concepts = draw(st.dictionaries(st.sampled_from(["A", "B"]), st.dictionaries(name, value, max_size=4),
                                    max_size=2))
    entry = st.tuples(name, name, value)
    if faulty:
        entry = entry | st.sampled_from([("e0",), ("e0", 3, ("text", "1"))])
    pairs = None if faulty else (lambda e: e[:2])
    roles = draw(st.dictionaries(st.sampled_from(["r", "s", "A"]),
                                 st.lists(entry, max_size=6, unique_by=pairs), max_size=2))
    individuals = draw(st.dictionaries(st.just("a"), name, max_size=1))
    return names, individuals, concepts, roles


def _entry(spec, json_text, as_tuple):
    *parts, value = spec
    if len(parts) < 2:  # a malformed entry: its last item is a name
        parts, value = [*parts, value], None
    items = [*parts, _value(value, json_text)] if value is not None else parts
    return tuple(items) if as_tuple else list(items)


def _interpretation_doc(spec, json_text: bool, generated: bool):
    names, individuals, concepts, roles = spec
    doc = {"domain": list(names), "individuals": dict(individuals),
           "concepts": {c: {x: _value(v, json_text) for x, v in table.items()}
                        for c, table in concepts.items()},
           "roles": {r: [_entry(e, json_text, not json_text) for e in entries]
                     for r, entries in roles.items()}}
    if json_text:
        return _read(_json(doc))
    if generated:  # role entries from a generator, each Fraction made as it is read
        doc["roles"] = {r: (_entry(e, False, True) for e in entries) for r, entries in roles.items()}
    return doc


@pytest.mark.parametrize("algebra_name", ["godel", "godel5"])
@pytest.mark.parametrize("form", ["json", "tuples", "generated"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_reader_matches_the_two_pass_reader(algebra_name, form, data):
    algebra = GODEL if algebra_name == "godel" else GODEL5
    spec = data.draw(specs(algebra_name))

    def doc():
        return _interpretation_doc(spec, form == "json", form == "generated")

    def by_reader():
        d = doc()
        if form == "json":
            return interpretation_from_json(d, algebra)
        return Interpretation(algebra, d["domain"], d["individuals"], d["concepts"], d["roles"])

    def by_triples():
        d = doc()
        return interpretation_by_triples(algebra, d["domain"], d["individuals"], d["concepts"],
                                         d["roles"])

    assert _outcome(by_reader) == _outcome(by_triples)


@pytest.mark.parametrize("algebra_name", ["godel", "godel5"])
@pytest.mark.parametrize("form", ["json", "tuples"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_graph_reader_matches_the_two_pass_reader(algebra_name, form, data):
    algebra = GODEL if algebra_name == "godel" else GODEL5
    names, _, concepts, roles = data.draw(specs(algebra_name))
    json_text = form == "json"

    def doc():
        labels: dict = {}
        for label, table in concepts.items():
            for x, v in table.items():
                labels.setdefault(x, {})[label] = _value(v, json_text)
        edges = []
        for label, entries in roles.items():
            for e in entries:
                items = list(_entry(e, json_text, False))
                edges.append(items[:1] + [label] + items[1:])
        if not json_text:
            edges = [tuple(e) for e in edges]
        d = {"vertices": list(names), "vertex_labels": labels, "edges": edges}
        return _read(_json(d)) if json_text else d

    def by_reader():
        d = doc()
        if json_text:
            return graph_from_json(d, algebra)
        return FuzzyGraph(algebra, d["vertices"], d["vertex_labels"], d["edges"])

    def by_triples():
        d = doc()
        return graph_by_triples(algebra, d["vertices"], d["vertex_labels"], d["edges"])

    assert _outcome(by_reader) == _outcome(by_triples)


def test_equal_degrees_under_many_spellings_get_one_rank():
    doc = _read('{"domain": ["u", "v", "w"], "concepts": {"A": {"u": 0.5, "v": "1/2", "w": 0}},'
                ' "roles": {"r": [["u", "v", "0.5"], ["v", "w", 0.50], ["w", "u", "2/4"]]}}')
    i = interpretation_from_json(doc, GODEL)
    assert i.levels == (0, F(1, 2), 1) and i._l == 1
    assert i._concepts == {"A": {0: 1, 1: 1}}
    assert i._in["r"] == (((2, 1),), ((0, 1),), ((1, 1),))


def test_top_level_is_the_algebra_top_object():
    # the evaluator's operator memo keys on object ids, so a parsed top
    # must not stand in for the algebra's own
    i = Interpretation(GODEL, ["u", "v"], concepts={"A": {"u": "1", "v": "1/2"}},
                       roles={"r": [("u", "v", F(1))]})
    assert i.levels == (0, F(1, 2), 1) and i.levels[-1] is GODEL.top
    assert Interpretation(GODEL, ["u"]).levels[-1] is GODEL.top


# --- the first fault in document order ------------------------------------------

ROLE_FAULTS = ["shape", "text", "bottom", "name", "duplicate"]
CONCEPT_FAULTS = ["text", "name"]
GOOD = [("u", "v", "1/2"), ("v", "w", "1"), ("w", "x", "1/4")]


def _role_fault(kind: str, second: bool):
    """A faulty [from, to, degree] entry; `second` picks a variant, so two
    faults of one kind give two messages.  A duplicate repeats a pair of
    GOOD, which come first."""
    return {
        "shape": ("v",) if second else ("u", "v"),
        "text": ("x", "u", "x/y" if second else "2/0"),
        "bottom": ("x", "v", "0") if second else ("u", "x", "0"),
        "name": ("u", "ghost2" if second else "ghost1", "1"),
        "duplicate": ("v", "w", "1/4") if second else ("u", "v", "1"),
    }[kind]


def _concept_fault(kind: str, second: bool):
    """A faulty (element, degree) concept entry."""
    if kind == "text":
        return ("w", "x/y") if second else ("v", "2/0")
    return ("ghost2" if second else "ghost1", "1")


def _fault_doc(first, second, graph: bool, as_tuples: bool):
    """A document holding the two faults, each a (place, kind) pair or None,
    concepts before roles, GOOD's entries before the role faults."""
    concept = {"x": "1/2"}
    entries = list(GOOD)
    for k, fault in enumerate((first, second)):
        if fault is None:
            continue
        place, kind = fault
        if place == "concepts":
            x, degree = _concept_fault(kind, k == 1)
            concept[x] = degree
        else:
            entries.append(_role_fault(kind, k == 1))
    make = tuple if as_tuples else list
    names = ["u", "v", "w", "x"]
    if graph:
        labels = {x: {"A": degree} for x, degree in concept.items()}
        edges = [make([e[0], "r", *e[1:]]) for e in entries]
        return {"vertices": names, "vertex_labels": labels, "edges": edges}
    return {"domain": names, "concepts": {"A": concept}, "roles": {"r": [make(e) for e in entries]}}


def _build(doc, graph: bool, oracle: bool, from_json: bool):
    if from_json:
        doc = _read(json.dumps(doc))
    if graph:
        args = (GODEL, doc["vertices"], doc["vertex_labels"], doc["edges"])
        if oracle:
            return graph_by_triples(*args)
        return graph_from_json(doc, GODEL) if from_json else FuzzyGraph(*args)
    args = (GODEL, doc["domain"], None, doc["concepts"], doc["roles"])
    if oracle:
        return interpretation_by_triples(*args)
    return interpretation_from_json(doc, GODEL) if from_json else Interpretation(*args)


def _message(doc, graph: bool, oracle: bool, from_json: bool) -> str:
    with pytest.raises(UsageError) as exc:
        _build(doc, graph, oracle, from_json)
    return str(exc.value)


FAULT_PAIRS = (
    [(("concepts", a), ("concepts", b)) for a in CONCEPT_FAULTS for b in CONCEPT_FAULTS]
    + [(("concepts", a), ("roles", b)) for a in CONCEPT_FAULTS for b in ROLE_FAULTS]
    + [(("roles", a), ("roles", b)) for a in ROLE_FAULTS for b in ROLE_FAULTS]
)


@pytest.mark.parametrize("graph", [False, True], ids=["interpretation", "graph"])
@pytest.mark.parametrize("entries", ["json-lists", "tuples"])
@pytest.mark.parametrize("first,second", FAULT_PAIRS,
                         ids=[f"{a[0]}-{a[1]}-then-{b[0]}-{b[1]}" for a, b in FAULT_PAIRS])
def test_two_faults_report_the_first(first, second, graph, entries):
    from_json = entries == "json-lists"
    both = _fault_doc(first, second, graph, not from_json)
    message = _message(both, graph, False, from_json)
    assert message == _message(both, graph, True, from_json)
    if graph and second == ("roles", "shape") and first[0] == "roles" and first[1] != "shape":
        # a graph document's edges are all checked for shape before any
        # edge's degree, as the two-pass reader did
        expected = _message(_fault_doc(None, second, graph, not from_json), graph, True, from_json)
    else:
        expected = _message(_fault_doc(first, None, graph, not from_json), graph, True, from_json)
    assert message == expected


def test_a_fault_message_names_its_entry():
    doc = _fault_doc(("roles", "bottom"), ("roles", "name"), False, False)
    assert _message(doc, False, False, False) == "role instance r(u,x) has degree 0; omit it"
    doc = _fault_doc(("concepts", "name"), ("roles", "text"), False, False)
    assert _message(doc, False, False, False) == "unknown element or individual 'ghost1'"
    doc = {"domain": ["u"], "concepts": {}, "roles": {"r": [["ghost1", "ghost2", "1"]]}}
    assert (_message(doc, False, False, False) == _message(doc, False, True, False)
            == "unknown name 'ghost1' in role instance r(ghost1,ghost2)")
    doc = _fault_doc(("roles", "duplicate"), ("roles", "shape"), True, True)
    assert _message(doc, True, False, False) == "edge ('v', 'r') must be [from, label, to, degree]"


def test_a_repeated_pair_before_a_fault_is_reported_first():
    # the faulty last entry equals the first (0.5 == 1/2) but is not it, so
    # the repeated pair between them is the first fault
    entries = [("u", "w", F(1, 2)), ("v", "w", "1"), ("v", "w", "1"), ("u", "w", 0.5)]
    doc = {"domain": ["u", "v", "w"], "concepts": {}, "roles": {"r": entries}}
    assert (_message(doc, False, False, False) == _message(doc, False, True, False)
            == "duplicate role instance r(v,w)")
    doc = {"vertices": ["u", "v", "w"], "vertex_labels": {},
           "edges": [(x, "r", y, degree) for x, y, degree in entries]}
    assert (_message(doc, True, False, False) == _message(doc, True, True, False)
            == "duplicate edge (v,r,w)")


# --- derived stores ------------------------------------------------------------

def test_quotient_and_pruning_hash_no_degree(monkeypatch):
    params = GeneratorParams(n_min=20, n_max=30, edge_factor=3, pool_size=6, individual_count=3)
    prune_phi = FeatureSet.from_names(["baaz", "inverse", "nominal"])
    cases = []
    for seed in range(4):
        i = random_interpretation(params, seed, GODEL)
        cases.append((i, compcb(interpretation_to_graph(i, PHI_PSI))))
    calls = []
    original = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or original(self))
    hash(F(1, 3))
    assert len(calls) == 1  # the count sees a call
    calls.clear()
    for i, p in cases:
        assert quotient(i, p).n == len(p.blocks)
        assert prune_unreachable(i, prune_phi).n <= i.n
    assert calls == []


def test_derived_levels_keep_only_the_degrees_in_use():
    i = Interpretation(GODEL, ["u", "v", "w", "x"], individuals={"a": "u"},
                       concepts={"A": {"w": "1/3"}}, roles={"r": [("u", "v", "1/2"), ("w", "x", "3/4")]})
    assert i.levels == (0, F(1, 3), F(1, 2), F(3, 4), 1)
    pruned = prune_unreachable(i, FeatureSet.from_names(["baaz"]))
    assert pruned.names == ("u", "v") and pruned.levels == (0, F(1, 2), 1)
    assert pruned._in["r"] == ((), ((0, 1),)) and pruned._l == 1


# --- concept columns --------------------------------------------------------------

def test_concept_column_reads_its_table():
    rng = random.Random(5)
    names = [f"e{k}" for k in range(50)]
    i = Interpretation(GODEL, names, concepts={"A": {x: f"{rng.randrange(5)}/4" for x in names[::3]}})
    phi = FeatureSet.from_names(["baaz"])
    assert eval_concept(i, ConceptName("A"), phi) == [i.concept_degree("A", x) for x in range(50)]
    with pytest.raises(UsageError, match="^unknown concept name 'B'$"):
        eval_concept(i, ConceptName("B"), phi)
