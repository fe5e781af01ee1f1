"""No stage of `minimize` makes a reference cycle, so `cmd_minimize` may run
with the cyclic collector paused; and it puts the collector back as it
found it, on every exit."""

import gc
import json

import pytest

from fuzzmin import (
    FeatureSet,
    compcb,
    eval_concept,
    interpretation_json_pieces,
    interpretation_to_graph,
    interpretation_to_json,
    largest_bisimulation,
    load_interpretation,
    minimize,
    parse_concept,
    prune_unreachable,
    quotient,
)
from fuzzmin import cli
from fuzzmin.algebra import bundled_lattice_path, load_lattice
from fuzzmin.generate import GeneratorParams, random_interpretation

PHI = FeatureSet.from_names(["baaz", "comp", "union", "star", "test", "inverse", "nominal"])
PARAMS = GeneratorParams(n_min=30, n_max=40, edge_factor=4, pool_size=4,
                         concept_count=3, role_count=3, individual_count=3)
LATTICE_PATH = bundled_lattice_path("godel5")


@pytest.fixture()
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if enabled:
        gc.enable()


def cycle_free(stage, *args):
    """Run one stage and assert that it left no cyclic garbage."""
    gc.collect()
    result = stage(*args)
    assert gc.collect() == 0, stage.__name__
    return result


def write(i) -> str:
    return "".join(interpretation_json_pieces(i))


@pytest.mark.parametrize("algebra_name", ["godel", "godel5"])
def test_minimize_stages_make_no_reference_cycles(algebra_name, tmp_path, collector_off):
    if algebra_name == "godel5":
        alg = cycle_free(load_lattice, LATTICE_PATH)
    else:
        alg = cli.make_algebra("godel")
    path = tmp_path / "in.json"
    path.write_text(json.dumps(interpretation_to_json(random_interpretation(PARAMS, 5, alg))))

    i = cycle_free(load_interpretation, str(path), alg)
    i = cycle_free(prune_unreachable, i, PHI)
    g = cycle_free(interpretation_to_graph, i, PHI)
    p = cycle_free(compcb, g)
    reduced = cycle_free(quotient, i, p)
    cycle_free(write, reduced)


def test_library_stages_make_no_reference_cycles(collector_off):
    alg = cli.make_algebra("product")
    i = random_interpretation(PARAMS, 6, alg)
    j = random_interpretation(PARAMS, 7, alg)
    assert cycle_free(largest_bisimulation, i, i, PHI)
    cycle_free(largest_bisimulation, i, j, PHI)
    cycle_free(largest_bisimulation, i, minimize(i, PHI), PHI)
    concept = cycle_free(parse_concept, "some (r0* ; r1-) . (A0 & {a0}) | all (A1 ?) . A2", PHI)
    cycle_free(eval_concept, i, concept, PHI)


def test_cmd_minimize_makes_no_reference_cycles(tmp_path, collector_off):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(interpretation_to_json(
        random_interpretation(PARAMS, 8, cli.make_algebra("godel")))))
    args = cli.build_parser().parse_args(
        ["minimize", "--input", str(path), "--features", "baaz,inverse,nominal",
         "--output", str(tmp_path / "out.json")])
    assert cycle_free(cli.cmd_minimize, args) == cli.EXIT_OK


def _inputs(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"domain": ["u", "v"], "roles": {"r": [["u", "v", "1"]]}}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": "uv"}')
    return {0: str(good), 2: str(bad), 3: str(tmp_path / "missing.json")}


@pytest.mark.parametrize("code", [0, 2, 3])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cmd_minimize_restores_the_collector(code, enabled, tmp_path, monkeypatch, capsys):
    seen = []
    real_compcb = cli.compcb

    def recording_compcb(g):
        seen.append(gc.isenabled())
        return real_compcb(g)

    monkeypatch.setattr(cli, "compcb", recording_compcb)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert cli.main(["minimize", "--input", _inputs(tmp_path)[code]]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False] if code == 0 else [])
