import hashlib
import json
import random

import pytest

from fuzzmin import FeatureSet, GodelAlgebra, check_features, interpretation_to_json
from fuzzmin.algebra import bundled_lattice_path, load_lattice
from fuzzmin.errors import FeatureError
from fuzzmin.fdl import FEATURE_NAMES
from fuzzmin.generate import (
    GeneratorParams,
    degree_pool,
    random_concept,
    random_graph,
    random_interpretation,
    random_role,
)
from helpers import label_vector, role_instances

GODEL = GodelAlgebra()
PARAMS = GeneratorParams(n_min=2, n_max=15, edge_factor=4, pool_size=5)


def graph_fingerprint(g):
    return (g.names, g.vertex_label_names, g.edge_label_names, g.edges,
            tuple(label_vector(g, v) for v in range(g.n)))


def test_same_seed_same_instance():
    for seed in (0, 1, 17):
        assert graph_fingerprint(random_graph(PARAMS, seed, GODEL)) == graph_fingerprint(
            random_graph(PARAMS, seed, GODEL)
        )
        left = interpretation_to_json(random_interpretation(PARAMS, seed, GODEL))
        right = interpretation_to_json(random_interpretation(PARAMS, seed, GODEL))
        assert json.dumps(left) == json.dumps(right)


def test_different_seeds_differ():
    prints = {graph_fingerprint(random_graph(PARAMS, seed, GODEL)) for seed in range(10)}
    assert len(prints) > 1


def test_degree_pool_properties():
    rng = random.Random(5)
    pool = degree_pool(rng, 6, GODEL)
    assert len(set(pool)) == 6
    assert all(0 < d <= 1 for d in pool)

    lattice = load_lattice(bundled_lattice_path("godel5"))
    lpool = degree_pool(random.Random(5), 3, lattice)
    assert all(isinstance(d, int) and 0 < d < 5 for d in lpool)
    assert len(set(lpool)) == 3


def test_generated_expressions_respect_features():
    rng = random.Random("featgen")
    restricted = FeatureSet.from_names(["baaz", "comp"])
    for _ in range(100):
        node = random_concept(rng, restricted, 4, ["A"], ["r"], ["a"], GODEL)
        check_features(node, restricted)  # must not raise
    # a full-featured expression stream eventually trips every gate
    bare = FeatureSet.from_names(["baaz"])
    tripped = False
    for _ in range(100):
        node = random_role(rng, FeatureSet.from_names(FEATURE_NAMES), 4, ["r"], ["A"], ["a"], GODEL)
        try:
            check_features(node, bare)
        except FeatureError:
            tripped = True
    assert tripped


def test_generated_interpretations_load():
    for seed in range(5):
        i = random_interpretation(PARAMS, seed, GODEL)
        assert i.n >= 2
        assert i.individual_names  # defaults include one individual
        for rname in i.role_names:
            for (_, _), degree in role_instances(i, rname).items():
                assert degree > 0


def test_random_interpretations_unchanged():
    # seeded instances are part of the contract: differential runs and
    # recorded failures name a seed, so the output for a seed must not drift
    docs = [
        interpretation_to_json(random_interpretation(GeneratorParams(), seed, GODEL))
        for seed in range(50)
    ]
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest == "046b296f9fd40c3e8d20843667b191d7b182533c4734f73fdb0089cded7a93c2"
