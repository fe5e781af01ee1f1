"""The input boundary: each distinct degree text is parsed once per document
without dropping a check, and every loader raises only UsageError."""

import json
import time
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzmin import FeatureSet, FuzzyGraph, GodelAlgebra, Interpretation, UsageError
from fuzzmin.algebra import MAX_LATTICE_SIZE, bundled_lattice_path, load_lattice
from fuzzmin.cli import main
from fuzzmin.fdl import FEATURE_NAMES, interpretation_from_json, load_relation
from fuzzmin.generate import GeneratorParams, random_interpretation
from fuzzmin.graph import _Reader, graph_from_json
from fuzzmin.syntax import parse_concept
from helpers import label_vector

GODEL = GodelAlgebra()
GODEL5 = load_lattice(bundled_lattice_path("godel5"))


# --- the degree reader keeps every check -----------------------------------------

def test_equal_values_of_other_types_are_still_checked():
    with pytest.raises(UsageError):
        Interpretation(GODEL, ["x", "y"], concepts={"A": {"x": 1, "y": 1.0}})
    with pytest.raises(UsageError):
        Interpretation(GODEL, ["x", "y"], concepts={"A": {"x": "1", "y": 1.0}})
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL, ["x", "y"], {"x": {"A": 1}, "y": {"A": 1.0}})
    # 1.0 after an equal 1 elsewhere in the document: in a role, or a concept then a role
    with pytest.raises(UsageError):
        Interpretation(GODEL, ["x", "y"], roles={"r": [("x", "y", 1), ("y", "x", 1.0)]})
    with pytest.raises(UsageError):
        Interpretation(GODEL, ["x", "y"], concepts={"A": {"x": 1}}, roles={"r": [("x", "y", 1.0)]})
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL, ["x", "y"], {"x": {"A": 1}}, [("x", "r", "y", 1.0)])
    assert Interpretation(GODEL5, ["x"], concepts={"A": {"x": 3}}).concept_degree("A", 0) == 3
    with pytest.raises(UsageError):
        Interpretation(GODEL5, ["x", "y"], concepts={"A": {"x": 3, "y": 3.0}})
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL5, ["x", "y"], {}, [("x", "r", "y", 3), ("y", "r", "x", 3.0)])


@pytest.mark.parametrize("alg", [GODEL, GODEL5], ids=["godel", "godel5"])
def test_same_bad_text_raises_every_time(alg):
    for _ in range(2):
        for text in ("2/0", "7"):
            with pytest.raises(UsageError):
                Interpretation(alg, ["x", "y"], concepts={"A": {"x": text, "y": text}})
            with pytest.raises(UsageError):
                Interpretation(alg, ["x", "y"], roles={"r": [("x", "y", text)]})
            with pytest.raises(UsageError):
                FuzzyGraph(alg, ["x", "y"], {"x": {"A": text}})
    # within one document: the constructors' reader keeps no failed text
    reader = _Reader(alg)
    for _ in range(2):
        with pytest.raises(UsageError):
            reader.k("2/0")
        with pytest.raises(UsageError):
            reader.k("7")
    assert reader.degrees == [alg.bottom]


def test_repeated_huge_exponent_exits_2_fast(tmp_path, capsys):
    doc = {
        "domain": [f"u{k}" for k in range(2000)],
        "concepts": {"A": {f"u{k}": "1e999999999" for k in range(2000)}},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["minimize", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: ")
    start = time.perf_counter()
    with pytest.raises(UsageError):
        Interpretation(GODEL, ["x", "y"], roles={"r": [("x", "y", "1e999999999")]})
    with pytest.raises(UsageError):
        FuzzyGraph(GODEL, ["x"], {"x": {"A": "1e999999999"}})
    assert time.perf_counter() - start < 1


def test_text_and_int_give_the_same_lattice_degree():
    i = Interpretation(GODEL5, ["x", "y", "z"], concepts={"A": {"x": "3", "y": 3, "z": "3"}},
                       roles={"r": [("x", "y", 3), ("y", "z", "3")]})
    assert [i.concept_degree("A", x) for x in range(3)] == [3, 3, 3]
    assert i.levels == (0, 3, 4)
    assert set(i._concepts["A"].values()) == {1}
    assert set(i.role_instances("r").values()) == {3}


def test_equal_texts_share_one_degree_object():
    i = Interpretation(
        GODEL, ["u", "v", "w"],
        concepts={"A": {"u": "0.5", "v": "0.5"}, "B": {"w": "0.5"}},
        roles={"r": [("u", "v", "0.5"), ("v", "w", "0.5")]},
    )
    assert i.concept_degree("A", 0) == F(1, 2)
    assert i.concept_degree("A", 0) is i.concept_degree("A", 1)
    assert i.concept_degree("A", 0) is i.concept_degree("B", 2)
    assert i.role_instances("r")[(0, 1)] is i.concept_degree("A", 0)
    assert i.role_instances("r")[(1, 2)] is i.concept_degree("A", 0)
    g = FuzzyGraph(GODEL, ["u", "v"], {"u": {"A": "1/2"}, "v": {"A": "1/2"}},
                   [("u", "r", "v", "1/2")])
    assert label_vector(g, 0)[0] is label_vector(g, 1)[0] is g.levels[1]


def test_degree_objects_made_while_reading_keep_their_own_k():
    # a generator's fresh Fractions die once read, and a lattice degree is
    # an int, not the Fraction: the reader keeps each one, so no later
    # object reuses its id and its k
    degrees = [F(k % 4 + 1) for k in range(200)]
    names = [f"x{k}" for k in range(201)]
    i = Interpretation(GODEL5, names, roles={"r": (
        (names[k], names[k + 1], F(d.numerator)) for k, d in enumerate(degrees))})
    assert [i.role_instances("r")[k, k + 1] for k in range(200)] == degrees


def test_one_k_per_distinct_degree_object(monkeypatch):
    # `verify`'s interpretations share their pool's degree objects across
    # instances: the reader parses, and gives a k to, each object once
    params = GeneratorParams(n_min=2, n_max=10, edge_factor=3, pool_size=4,
                             concept_count=2, role_count=2, individual_count=1)
    shared = 0
    for alg in (GodelAlgebra(), GODEL5):
        for seed in range(3):
            parsed = []  # keeps every value alive, so ids stay distinct
            parse = alg.parse_degree
            monkeypatch.setattr(alg, "parse_degree", lambda value: parsed.append(value) or parse(value))
            i = random_interpretation(params, seed, alg)
            monkeypatch.undo()
            instances = (sum(len(i._concepts[c]) for c in i.concept_names)
                         + sum(len(i.role_instances(r)) for r in i.role_names))
            assert len({id(value) for value in parsed}) == len(parsed) <= instances, (alg.name, seed)
            shared += instances - len(parsed)
    assert shared > 0


# --- fuzz: only UsageError out of the loaders ----------------------------------

NAMES = st.sampled_from(["u", "v", "w", "A", "r", "s-", ""])
DEGREE_TEXTS = st.sampled_from(
    ["0", "1", "0.5", "1/2", "2", "-1", "1/0", "1e999999999", "1e-3", "nan", "inf", "3",
     " 1", "0x1", "1_0", "١", "4/5", "0.800"]
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6), NAMES, DEGREE_TEXTS,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(NAMES, st.text(max_size=3)), children, max_size=3),
    ),
    max_leaves=6,
)
# read_json gives Fractions for bare decimals
DEGREES = st.one_of(DEGREE_TEXTS, SCALARS, st.fractions())


def _mostly(strategy):
    """Values of strategy, or one time in eight any JSON-like value."""
    return st.integers(0, 7).flatmap(lambda k: JSON_VALUES if k == 0 else strategy)


INTERPRETATION_DOCS = _mostly(st.fixed_dictionaries(
    {"domain": _mostly(st.lists(NAMES, min_size=1, max_size=6, unique=True))},
    optional={
        "individuals": _mostly(st.dictionaries(NAMES, NAMES, max_size=3)),
        "concepts": _mostly(
            st.dictionaries(NAMES, st.dictionaries(NAMES, DEGREES, max_size=4), max_size=3)
        ),
        "roles": _mostly(st.dictionaries(
            NAMES, st.lists(_mostly(st.tuples(NAMES, NAMES, DEGREES).map(list)), max_size=4),
            max_size=3,
        )),
    },
))
GRAPH_DOCS = _mostly(st.fixed_dictionaries(
    {"vertices": _mostly(st.lists(NAMES, min_size=1, max_size=6, unique=True))},
    optional={
        "vertex_labels": _mostly(
            st.dictionaries(NAMES, st.dictionaries(NAMES, DEGREES, max_size=3), max_size=3)
        ),
        "edges": _mostly(st.lists(
            _mostly(st.tuples(NAMES, NAMES, NAMES, DEGREES).map(list)), max_size=4,
        )),
    },
))
ALGEBRAS = st.sampled_from([GODEL, GODEL5])
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _only_usage_errors(load, *args):
    try:
        load(*args)
    except UsageError:
        pass


@FUZZ
@given(doc=INTERPRETATION_DOCS, alg=ALGEBRAS)
def test_fuzz_interpretation_from_json(doc, alg):
    _only_usage_errors(interpretation_from_json, doc, alg)


@FUZZ
@given(doc=GRAPH_DOCS, alg=ALGEBRAS)
def test_fuzz_graph_from_json(doc, alg):
    _only_usage_errors(graph_from_json, doc, alg)


RELATION_TEXTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.lists(st.lists(NAMES, max_size=3), max_size=4).map(json.dumps),
    st.text(max_size=20),
)
LEFT = Interpretation(GODEL, ["u", "v"])
RIGHT = Interpretation(GODEL, ["w", "A"])


@pytest.fixture(scope="module")
def relation_path(tmp_path_factory):
    return tmp_path_factory.mktemp("relation") / "relation.json"


@FUZZ
@given(data=st.one_of(RELATION_TEXTS.map(lambda text: text.encode("utf-8", "surrogatepass")),
                      st.binary(max_size=20)))
def test_fuzz_load_relation(relation_path, data):
    relation_path.write_bytes(data)
    _only_usage_errors(load_relation, str(relation_path), LEFT, RIGHT)


EXPRESSION_TOKENS = st.sampled_from(
    ["some", "all", "not", "tri", ".", "(", ")", "&", "|", "->", ";", "*", "?", "-", "{", "}",
     "A", "r", "U", "0.5", "1/0", "1e999999999", "a", " "]
)
EXPRESSIONS = st.one_of(
    st.text(max_size=30),
    st.lists(EXPRESSION_TOKENS, max_size=25).map(" ".join),
)


@FUZZ
@given(text=EXPRESSIONS, full=st.booleans())
def test_fuzz_parse_concept(text, full):
    phi = FeatureSet.from_names(FEATURE_NAMES) if full else FeatureSet.from_names(["baaz"])
    _only_usage_errors(parse_concept, text, phi)


def _godel_chain(size: int) -> dict:
    """A well-formed Godel chain of `size` elements as a lattice document."""
    top = size - 1
    return {
        "chain": size,
        "tnorm": [[min(a, b) for b in range(size)] for a in range(size)],
        "snorm": [[max(a, b) for b in range(size)] for a in range(size)],
        "residuum": [[top if a <= b else b for b in range(size)] for a in range(size)],
        "neg": [top] + [0] * top,
    }


@pytest.fixture(scope="module")
def lattice_path(tmp_path_factory):
    return tmp_path_factory.mktemp("lattice") / "lattice.json"


@pytest.mark.parametrize("key,value", [("chain", "5"), ("chain", None), ("chain", 2.5),
                                       ("chain", True), ("tnorm", 3), ("tnorm", [0, 1, 2]),
                                       ("neg", 7), ("residuum", "abc")])
def test_malformed_lattice_exits_2(key, value, lattice_path, tmp_path, capsys):
    lattice_path.write_text(json.dumps({**_godel_chain(3), key: value}))
    interp = tmp_path / "one.json"
    interp.write_text('{"domain": ["u"]}')
    assert main(["minimize", "--input", str(interp), "--algebra", f"lattice:{lattice_path}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lattice_above_the_size_cap_exits_2_fast(lattice_path, tmp_path, capsys):
    lattice_path.write_text(json.dumps(_godel_chain(MAX_LATTICE_SIZE)))
    assert load_lattice(str(lattice_path)).size == MAX_LATTICE_SIZE
    lattice_path.write_text(json.dumps(_godel_chain(MAX_LATTICE_SIZE + 1)))
    interp = tmp_path / "one.json"
    interp.write_text('{"domain": ["u"]}')
    start = time.perf_counter()
    assert main(["minimize", "--input", str(interp), "--algebra", f"lattice:{lattice_path}"]) == 2
    assert time.perf_counter() - start < 1
    assert "too large" in capsys.readouterr().err


def _table(size: int, width: int):
    return st.lists(st.lists(st.integers(-1, size), min_size=width, max_size=width),
                    min_size=width, max_size=width)


LATTICE_DOCS = _mostly(st.integers(1, 4).flatmap(lambda size: st.fixed_dictionaries({
    "chain": st.one_of(st.just(size), st.integers(-2, 2 * MAX_LATTICE_SIZE), SCALARS),
    **{key: _mostly(_table(size, size)) for key in ("tnorm", "snorm", "residuum")},
    "neg": _mostly(st.lists(st.integers(-1, size), min_size=size, max_size=size)),
})))


@FUZZ
@given(doc=LATTICE_DOCS)
def test_fuzz_load_lattice(lattice_path, doc):
    lattice_path.write_text(json.dumps(doc))
    _only_usage_errors(load_lattice, str(lattice_path))
