"""Each output check of the benchmark accepts fuzzmin's real output on a
small input and rejects a corrupted copy of it.

    python3 -m pytest bench/test_checks.py      # from the root of a checkout
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
from fuzzmin import bundled_lattice_path, cli  # noqa: E402


def _minimize(tmp_path, model, algebra: str, features: str) -> dict:
    source, target = tmp_path / "in.json", tmp_path / "out.json"
    source.write_text(json.dumps(model.to_json()))
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["minimize", "--input", str(source), "--algebra", algebra,
                         "--features", features, "--output", str(target)])
    assert code == 0
    return json.loads(target.read_text())


def _merge_two_blocks(doc: dict) -> dict:
    """The quotient with its first two blocks merged into one."""
    old = set(doc["domain"][:2])
    new = "{" + ",".join(sorted(m for b in old for m in b[1:-1].split(","))) + "}"
    out = copy.deepcopy(doc)
    out["domain"] = [b for b in out["domain"] if b not in old] + [new]
    for c, table in out["concepts"].items():
        out["concepts"][c] = {(new if b in old else b): d for b, d in table.items()}
    for r, entries in out["roles"].items():
        merged = {}
        for s, t, d in entries:
            merged[(new if s in old else s, new if t in old else t)] = d
        out["roles"][r] = [[s, t, d] for (s, t), d in merged.items()]
    return out


def _change_one_degree(doc: dict, other: str) -> dict:
    out = copy.deepcopy(doc)
    role = next(r for r, entries in out["roles"].items() if entries)
    entry = out["roles"][role][0]
    entry[2] = other if entry[2] != other else out["roles"][role][1][2]
    return out


def test_social_check(tmp_path):
    model = inputs.social(7, base=60, twins=15, base_edges=150)
    doc = _minimize(tmp_path, model, "godel", "baaz,inverse")
    assert reference.check_social(model, doc) == []
    assert reference.check_social(model, _merge_two_blocks(doc))
    assert reference.check_social(model, _change_one_degree(doc, "1/8"))


def test_social_twin_rule(tmp_path):
    """A quotient that splits a twin from its source fails the twin rule even
    when the expected partition is wrong in the same way."""
    model = inputs.social(7, base=60, twins=15, base_edges=150)
    doc = _minimize(tmp_path, model, "godel", "baaz,inverse")
    twin = model.names[next(iter(model.twin_of))]
    block = next(b for b in doc["domain"] if twin in b[1:-1].split(","))
    rest = [m for m in block[1:-1].split(",") if m != twin]
    split = copy.deepcopy(doc)
    split["domain"] = [b for b in doc["domain"] if b != block]
    split["domain"] += ["{" + twin + "}", "{" + ",".join(rest) + "}"]
    ids = {name: x for x, name in enumerate(model.names)}
    expected = {frozenset(ids[m] for m in b[1:-1].split(",")) for b in split["domain"]}
    assert any("twin" in p for p in reference.check_quotient(model, expected, split))


def test_chains_check(tmp_path):
    chains = inputs.chains(7, count=3, total=60, jitter=5)
    doc = _minimize(tmp_path, chains.model,
                    "lattice:" + bundled_lattice_path("godel5"), "baaz")
    assert reference.check_chains(chains, doc) == []
    assert reference.check_chains(chains, _merge_two_blocks(doc))
    assert reference.check_chains(chains, _change_one_degree(doc, "1"))


def test_eval_check(tmp_path):
    model = inputs.semantics_model(7)
    source = tmp_path / "in.json"
    source.write_text(json.dumps(model.to_json()))
    for shape, at in inputs.semantics_queries(7, model):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", "--input", str(source), "--algebra", "product",
                             "--features", inputs.SEM_FEATURES,
                             inputs.render_concept(shape), model.names[at]])
        assert code == 0
        printed = out.getvalue()
        assert reference.check_eval(model, shape, at, printed) == []
        changed = "1/7" if printed.strip() != "1/7" else "1/9"
        assert reference.check_eval(model, shape, at, changed)


def test_bisimulation_check():
    from fuzzmin import fdl, make_algebra

    model = inputs.semantics_model(7)
    i = fdl.interpretation_from_json(model.to_json(), make_algebra("product"))
    phi = fdl.FeatureSet.from_names(inputs.SEM_FEATURES.split(","))
    pairs = fdl.largest_bisimulation(i, i, phi)
    assert reference.check_bisimulation(model, pairs) == []
    t, s = next(iter(model.twin_of.items()))
    assert reference.check_bisimulation(model, pairs - {(t, s)})
    assert reference.check_bisimulation(model, pairs | {(0, 1), (1, 0)})


def test_verify_check():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--cases", "3", "--seed", "7"])
    assert reference.check_verify(code, out.getvalue(), 3) == []
    assert reference.check_verify(1, out.getvalue(), 3)
    assert reference.check_verify(code, out.getvalue().replace("stability: 3/3", "stability: 2/3"), 3)


def test_metric_names_match_benchmark_json(monkeypatch, capsys):
    """A short run prints exactly the metrics BENCHMARK.json declares."""
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(ROOT)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "semantics", "--seed", "7", "--seconds", "0.1",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared[kind]}


def test_host_speed_scale():
    """A scale factor is the loop's reference time over the mean of the
    reading before the timed work and the one after it."""
    import run

    for kind, (_make, reference_s) in run.SPEED_LOOPS.items():
        speed = run.HostSpeed(kind)
        factor = speed.factor()
        before, after = speed.readings
        assert factor == reference_s / ((before + after) / 2)
