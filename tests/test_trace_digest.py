"""The engine's iteration sequence, pinned by digest.

`compcb`'s choice of Y' and the order of its splits are a property of the
code: a change to the engine's data structures must leave every
`TraceStep` as it was.  Each test renders the full trace of one input,
one line per step, and compares its SHA-256 and step count with the
ones recorded when the test was written.
"""

import hashlib
import random
from fractions import Fraction as F

from fuzzmin import FeatureSet, Interpretation, compcb, interpretation_to_graph
from fuzzmin.algebra import make_algebra
from fuzzmin.generate import GeneratorParams
from fuzzmin.refine import _Refiner
from helpers import compcb_checked
from test_refine import _random_cases, godel5_chain


def trace_digest(g) -> tuple[str, int]:
    """SHA-256 of the rendered trace of `compcb(g)`, and its step count."""
    digest = hashlib.sha256()
    count = 0

    def render(step):
        nonlocal count
        count += 1
        digest.update(repr((
            step.index, step.label, sorted(step.y_prime), sorted(step.y), step.changed,
            [sorted(b) for b in step.partition], [sorted(s) for s in step.splitter],
        )).encode())
        digest.update(b"\n")

    compcb(g, on_iteration=render)
    return digest.hexdigest(), count


def social_interpretation(seed: int, people: int = 240, twins: int = 60,
                          pairs: int = 576) -> Interpretation:
    """A weighted social network in the shape of the benchmark's: two fuzzy
    attributes, two weighted relations, and `twins` copies of people that
    keep their labels, out-edges and in-edges (so each merges with its
    source even under inverses), in a shuffled domain order."""
    rng = random.Random(f"trace-social:{seed}")
    degrees = [F(k, 8) for k in range(1, 9)]
    n = people + twins
    twin_of = dict(zip(range(people, n), rng.sample(range(people), twins)))
    copies = {x: [x] for x in range(people)}
    for t, s in twin_of.items():
        copies[s].append(t)
    order = list(range(n))
    rng.shuffle(order)
    name = {x: f"p{pos}" for pos, x in enumerate(order)}

    concepts = {}
    for cname, share in (("Active", 0.75), ("Popular", 0.5)):
        base = {x: rng.choice(degrees) for x in range(people) if rng.random() < share}
        concepts[cname] = {
            name[c]: str(d) for x, d in base.items() for c in copies[x]
        }
    roles = {}
    for rname in ("follows", "likes"):
        chosen = set()
        while len(chosen) < pairs:
            chosen.add((rng.randrange(people), rng.randrange(people)))
        roles[rname] = [
            (name[xc], name[yc], str(d))
            for (x, y), d in ((p, rng.choice(degrees)) for p in sorted(chosen))
            for xc in copies[x] for yc in copies[y]
        ]
    domain = [f"p{pos}" for pos in range(n)]
    return Interpretation(make_algebra("godel"), domain, concepts=concepts, roles=roles)


def social_graph():
    return interpretation_to_graph(social_interpretation(1),
                                   FeatureSet.from_names(["baaz", "inverse"]))


SOCIAL_DIGEST = "c425c66adee0194dc35484fa41e72f3c8aef9e6fb13ec462fcc01b6401ac602e"
SOCIAL_STEPS = 956
RANDOM_DIGEST = "7f141377e4e5170f9f123eed3834ba212c660c2b5741ab85ccee6aed6364512d"
RANDOM_STEPS = 23917
CHAIN_DIGEST = "b0cb1256264d1a5810018d81cb4641bb0002caa0b8ef1e2036652bf69d344328"
CHAIN_STEPS = 255


def random_graphs():
    params = GeneratorParams(n_min=2, n_max=60, edge_factor=4, pool_size=6,
                             vertex_labels=2, edge_labels=3)
    return [g for _, g in _random_cases(300, params, seed_base=7000)]


def test_social_encoding_trace_is_pinned():
    g = social_graph()
    assert g.n == 300
    assert len(g.initial_partition()) >= 100
    assert trace_digest(g) == (SOCIAL_DIGEST, SOCIAL_STEPS)


def test_random_graph_traces_are_pinned():
    digest = hashlib.sha256()
    steps = 0
    for g in random_graphs():
        one, count = trace_digest(g)
        digest.update(one.encode())
        steps += count
    assert (digest.hexdigest(), steps) == (RANDOM_DIGEST, RANDOM_STEPS)


def test_chain_trace_is_pinned():
    assert trace_digest(godel5_chain(256)) == (CHAIN_DIGEST, CHAIN_STEPS)


def test_social_encoding_takes_both_y_prime_branches(monkeypatch):
    # Y' is the first block of its Q-block, or the second when the first is
    # larger; the pinned social trace must cover both ways of dropping it
    branches = {"first": 0, "second": 0}
    split_q = _Refiner._split_q

    def counting(self, qid, y_prime):
        first = self.qbids[qid][self.qhead[qid]]
        branches["first" if y_prime == first else "second"] += 1
        return split_q(self, qid, y_prime)

    monkeypatch.setattr(_Refiner, "_split_q", counting)
    compcb(social_graph())
    assert branches["first"] > 0 and branches["second"] > 0, branches
    assert sum(branches.values()) == SOCIAL_STEPS


def test_social_encoding_debug_run():
    # compcb_checked re-derives every aggregate from the edges after each step
    g = social_graph()
    assert compcb_checked(g) == compcb(g)
