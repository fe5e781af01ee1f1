"""The one writer: `interpretation_json_pieces` joins to exactly the text of
`json.dumps(interpretation_dict(i), indent=1) + "\\n"`, the dict-built
document kept in `helpers` as its oracle, and `interpretation_to_json` is
that text parsed."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzmin import (
    FeatureSet,
    GodelAlgebra,
    Interpretation,
    LukasiewiczAlgebra,
    ProductAlgebra,
    interpretation_json_pieces,
    interpretation_to_json,
    minimize,
)
from fuzzmin.algebra import bundled_lattice_path, load_lattice
from fuzzmin.cli import main
from fuzzmin.generate import GeneratorParams, random_interpretation
from helpers import interpretation_dict

GODEL = GodelAlgebra()
ALGEBRAS = {
    "godel": GODEL,
    "product": ProductAlgebra(),
    "lukasiewicz": LukasiewiczAlgebra(),
    "godel5": load_lattice(bundled_lattice_path("godel5")),
}


def _oracle(i: Interpretation) -> str:
    return json.dumps(interpretation_dict(i), indent=1) + "\n"


def _written(i: Interpretation) -> str:
    return "".join(interpretation_json_pieces(i))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_writer_matches_json_dumps_on_random_interpretations(name):
    alg = ALGEBRAS[name]
    params = GeneratorParams(n_min=1, n_max=25, edge_factor=4, pool_size=5,
                             concept_count=3, role_count=3, individual_count=3)
    phi = FeatureSet.from_names(["baaz", "inverse", "nominal"])
    for seed in range(25):
        i = random_interpretation(params, seed, alg)
        assert _written(i) == _oracle(i), seed
        assert interpretation_to_json(i) == interpretation_dict(i), seed
        reduced = minimize(i, phi)  # block names: braces and commas
        assert _written(reduced) == _oracle(reduced), seed


ESCAPED = ['quote"d', "back\\slash", "nul\x00", "tab\t", "nl\n", "unit\x1f", "del\x7f", "/"]
NON_ASCII = ["é", "☃", "日本", "😀", "lone\ud800"]


def test_writer_escapes_names_as_json_dumps():
    names = ESCAPED + NON_ASCII
    i = Interpretation(
        GODEL, names,
        individuals={f"a{name}": name for name in names},
        concepts={f"C{name}": {name: "1/3"} for name in names},
        roles={f"r{name}": [(name, names[0], "0.5"), (names[-1], name, "1")] for name in names},
    )
    text = _written(i)
    assert text == _oracle(i)
    assert text.isascii()


def test_writer_formats_equal_degrees_held_as_distinct_objects():
    # equal degrees under separate keys, as from distinct objects or the
    # texts "1/2", "2/4" and "0.5", get one rank, so they write alike
    halves = [F(1, 2), F(2, 4), F(5, 10)]
    assert halves[0] == halves[1] == halves[2] and halves[0] is not halves[1]
    i = Interpretation(
        GODEL, ["u", "v", "w"],
        concepts={"A": {"u": halves[0], "v": halves[1], "w": F(1, 3)}, "B": {"w": halves[2]}},
        roles={"r": [("u", "v", halves[1]), ("v", "w", halves[2]), ("w", "u", F(1))]},
    )
    assert i.levels == (F(0), F(1, 3), F(1, 2), F(1))
    assert _written(i) == _oracle(i)
    parsed = Interpretation(GODEL, ["u", "v"], concepts={"A": {"u": "1/2", "v": "0.5"}},
                            roles={"r": [("u", "v", "2/4")]})
    assert _written(parsed) == _oracle(parsed)


@pytest.mark.parametrize("individuals,concepts,roles", [
    ({}, {}, {}),
    ({}, {"A": {}}, {"r": []}),
    ({"a": "u"}, {"A": {"u": "0"}, "B": {"v": "1"}}, {"r": [], "s": [("u", "v", "1")]}),
], ids=["no-sections", "bottom-concept-and-empty-role", "mixed"])
def test_writer_empty_sections(individuals, concepts, roles):
    i = Interpretation(GODEL, ["u", "v"], individuals, concepts, roles)
    assert _written(i) == _oracle(i)


@settings(max_examples=100, deadline=None)
@given(names=st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True),
       data=st.data())
def test_writer_matches_json_dumps_on_any_names(names, data):
    pick = st.sampled_from(names)
    degree = st.sampled_from(["0", "1/7", "0.5", "1"])
    edges = data.draw(st.dictionaries(st.tuples(pick, pick), degree.filter(lambda d: d != "0"),
                                      max_size=4))
    i = Interpretation(
        GODEL, names,
        individuals=data.draw(st.dictionaries(st.text(max_size=3).map("i".__add__), pick,
                                              max_size=3)),
        concepts={"A": data.draw(st.dictionaries(pick, degree, max_size=4))},
        roles={"r": [(x, y, d) for (x, y), d in edges.items()]},
    )
    assert _written(i) == _oracle(i)


def test_minimize_writes_the_same_bytes_to_output_and_stdout(tmp_path, capsysbinary):
    i = random_interpretation(GeneratorParams(n_min=20, n_max=30, individual_count=2), 3, GODEL)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(interpretation_to_json(i)))
    out = tmp_path / "out.json"
    argv = ["minimize", "--input", str(path), "--features", "baaz,inverse"]
    assert main(argv + ["--output", str(out)]) == 0
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert out.read_bytes() == stdout
    assert stdout.decode() == _oracle(minimize(i, FeatureSet.from_names(["baaz", "inverse"])))
