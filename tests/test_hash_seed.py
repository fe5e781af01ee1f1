"""Data output must not depend on the hash seed of the process.

Sets of names or of ids iterate in an order that changes with
`PYTHONHASHSEED`, so a result that leaked such an order would differ
between two runs of the same command.  Each command runs in its own
`python -m fuzzmin` process, at seeds 0 and 1, and both runs must print
the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fuzzmin
from fuzzmin import (FeatureSet, canonical_relation, compcb, interpretation_to_graph,
                     interpretation_to_json, make_algebra, quotient)
from fuzzmin.generate import GeneratorParams, random_graph, random_interpretation
from helpers import label_vector

FEATURES = "baaz,inverse,nominal"
SOURCE = str(Path(fuzzmin.__file__).resolve().parent.parent)


def _write_inputs(work: Path) -> str:
    """The seeded interpretation, its quotient, the relation between them and
    a seeded graph, as files; returns the quotient as `minimize` must print it."""
    alg = make_algebra("godel")
    params = GeneratorParams(n_min=150, n_max=200, pool_size=6, concept_count=3,
                             role_count=4, individual_count=3)
    i = random_interpretation(params, 7, alg)
    (work / "interp.json").write_text(json.dumps(interpretation_to_json(i)))
    # the element-to-block relation into the quotient, for `check`
    p = compcb(interpretation_to_graph(i, FeatureSet.from_names(FEATURES.split(","))))
    reduced = quotient(i, p)
    (work / "reduced.json").write_text(json.dumps(interpretation_to_json(reduced)))
    relation = sorted([i.names[x], reduced.names[y]] for x, y in canonical_relation(i, p, reduced))
    (work / "relation.json").write_text(json.dumps(relation))

    g = random_graph(GeneratorParams(n_min=60, n_max=80, pool_size=6, vertex_labels=2,
                                     edge_labels=3), 7, alg)
    fmt, names = alg.format_degree, g.names
    (work / "graph.json").write_text(json.dumps({
        "vertices": list(names),
        "vertex_labels": {names[v]: {lab: fmt(d) for lab, d in zip(g.vertex_label_names,
                                                                  label_vector(g, v)) if d}
                          for v in range(g.n)},
        "edges": [[names[s], lab, names[t], fmt(d)] for s, lab, t, d in g.edges],
    }))
    return json.dumps(interpretation_to_json(reduced), indent=1) + "\n"


def _run(seed: int, args: list[str]) -> bytes:
    pythonpath = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": pythonpath}
    done = subprocess.run([sys.executable, "-m", "fuzzmin", *args], env=env,
                          capture_output=True, check=True)
    return done.stdout


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    expected_minimize = _write_inputs(tmp_path)
    interp, features = str(tmp_path / "interp.json"), ["--features", FEATURES]
    commands = {
        "minimize": ["minimize", "--input", interp, *features],
        "minimize --prune": ["minimize", "--input", interp, *features, "--prune"],
        "partition --trace": ["partition", "--input", str(tmp_path / "graph.json"), "--trace"],
        "check": ["check", "--input", interp, "--other", str(tmp_path / "reduced.json"),
                  *features, str(tmp_path / "relation.json")],
    }
    outputs = {}
    for name, args in commands.items():
        outputs[name] = _run(0, args)
        assert _run(1, args) == outputs[name], f"{name} output depends on the hash seed"
    assert outputs["check"] == b"pass\n"
    assert outputs["minimize"].decode() == expected_minimize
