"""Command-line front end.

Subcommands: minimize, partition, eval, check, verify, stats.  Exit codes:
0 success, 1 verification/check failure, 2 usage or parse error, 3 I/O
error, 4 internal error (a fault in fuzzmin itself, reported as one line
on stderr, never as a traceback).  Data outputs are byte-deterministic for
identical inputs and flags; timing lines go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time
from itertools import islice
from typing import Iterable

from .algebra import bundled_lattice_path, load_lattice, make_algebra, read_json
from .errors import UsageError
from .fdl import (
    FeatureSet,
    block_name,
    canonical_relation,
    eval_concept,
    interpretation_from_json,
    interpretation_json_pieces,
    interpretation_to_graph,
    interpretation_to_json,  # not called here; bench/spans.py wraps it by name
    is_bisimulation,
    largest_bisimulation,
    load_interpretation,
    load_relation,
    minimize,
    prune_unreachable,
    quotient,
    satisfies,
)
from .generate import (
    GeneratorParams,
    random_concept,
    random_concept_assertion,
    random_graph,
    random_interpretation,
    random_tbox_axiom,
)
from .graph import graph_from_json, load_graph
from .partition import ordered_blocks
from .refine import TraceStep, compcb, is_stable, naive_coarsest_stable_refinement
from .syntax import parse_concept

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _features(arg: str) -> FeatureSet:
    return FeatureSet.from_names([p for p in arg.split(",") if p])


def _render_blocks(member_lists: list[list[str]]) -> str:
    return "{" + ",".join(map(block_name, member_lists)) + "}"


def _render_block_family(blocks, names) -> str:
    # ordered as member lists, not as rendered text: "{a,b}" < "{a}" as text
    return _render_blocks([[names[v] for v in ids] for ids in ordered_blocks(blocks, names)])


_BATCH = 4096  # pieces per write of a streamed output


def _write_output(args, pieces: Iterable[str]) -> None:
    """Write non-empty pieces joined in batches of `_BATCH`: one write
    per piece costs more than the join, and batches keep the output
    streamed."""
    pieces = iter(pieces)
    batches = iter(lambda: "".join(islice(pieces, _BATCH)), "")
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as f:
            f.writelines(batches)
    else:
        sys.stdout.writelines(batches)


def cmd_minimize(args) -> int:
    # No stage of minimize makes a reference cycle (tests/test_cycles.py), so
    # reference counting frees everything it allocates; the cyclic collector
    # would only re-scan the graph's many live tuples and aggregates.
    collecting = gc.isenabled()
    gc.disable()
    try:
        algebra = make_algebra(args.algebra)
        phi = _features(args.features)
        interp = load_interpretation(args.input, algebra)
        if args.prune:
            interp = prune_unreachable(interp, phi)
        start = time.perf_counter()
        g = interpretation_to_graph(interp, phi)
        p = compcb(g)
        reduced = quotient(interp, p)
        elapsed_ms = (time.perf_counter() - start) * 1000
        _write_output(args, interpretation_json_pieces(reduced))
        stats = g.stats()
        print(
            f"n={stats.n} m={stats.m} l={stats.l} blocks={len(p)} elapsed_ms={elapsed_ms:.2f}",
            file=sys.stderr,
        )
        return EXIT_OK
    finally:
        if collecting:
            gc.enable()


def cmd_partition(args) -> int:
    algebra = make_algebra(args.algebra)
    g = load_graph(args.input, algebra)

    def trace(step: TraceStep) -> None:
        head = (
            f"{step.index}. split w.r.t. "
            f"<Y'={block_name(g.names[v] for v in step.y_prime)}, "
            f"Y={block_name(g.names[v] for v in step.y)}, {step.label}>"
        )
        if step.changed:
            head += f": P = {_render_block_family(step.partition, g.names)}"
        else:
            head += ": P unchanged"
        head += f"; Q[{step.label}] = {_render_block_family(step.splitter, g.names)}"
        print(head)

    p = compcb(g, on_iteration=trace if args.trace else None)
    members = p.to_names(g.names)
    print(_render_blocks(members))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(json.dumps(members, indent=1) + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    algebra = make_algebra(args.algebra)
    phi = _features(args.features)
    interp = load_interpretation(args.input, algebra)
    concept = parse_concept(args.expr, phi)
    values = eval_concept(interp, concept, phi)
    if args.at in interp.names:
        x = interp.element_id(args.at)
    else:
        x = interp.individual_element(args.at)
    print(algebra.format_degree(values[x]))
    return EXIT_OK


def cmd_check(args) -> int:
    algebra = make_algebra(args.algebra)
    phi = _features(args.features)
    left = load_interpretation(args.input, algebra)
    right = load_interpretation(args.other, algebra) if args.other else left
    relation = load_relation(args.relation, left, right)
    report = is_bisimulation(left, right, relation, phi)
    print(str(report))
    if not report.ok:
        print(report.detail, file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_stats(args) -> int:
    algebra = make_algebra(args.algebra)
    phi = _features(args.features)
    doc = read_json(args.input)
    if isinstance(doc, dict) and "vertices" in doc:
        g = graph_from_json(doc, algebra)
    elif isinstance(doc, dict) and "domain" in doc:
        g = interpretation_to_graph(interpretation_from_json(doc, algebra), phi)
    else:
        raise UsageError(f"{args.input}: neither a graph nor an interpretation document")
    stats = g.stats()
    print(f"n={stats.n} m={stats.m} l={stats.l}")
    return EXIT_OK


def _verify_algebras():
    return [
        make_algebra("godel"),
        make_algebra("product"),
        make_algebra("lukasiewicz"),
        load_lattice(bundled_lattice_path("godel5")),
    ]


def _verify_feature_sets() -> list[FeatureSet]:
    base = ["baaz", "comp", "union", "star", "test"]
    return [
        FeatureSet.from_names(base),
        FeatureSet.from_names(base + ["nominal"]),
        FeatureSet.from_names(base + ["inverse"]),
        FeatureSet.from_names(base + ["universal"]),
    ]


def cmd_verify(args) -> int:
    if args.cases < 0:
        raise UsageError(f"--cases must be non-negative, got {args.cases}")
    algebras = _verify_algebras()
    feature_sets = _verify_feature_sets()
    graph_params = GeneratorParams(
        n_min=1, n_max=25, edge_factor=5, pool_size=8, vertex_labels=3, edge_labels=3
    )
    interp_params = GeneratorParams(
        n_min=2, n_max=10, edge_factor=3, pool_size=4,
        concept_count=2, role_count=2, individual_count=1,
    )
    counts: dict[str, int] = {}
    failures: list[str] = []

    def record(prop: str, ok: bool, case: int, context: str) -> None:
        counts[prop] = counts.get(prop, 0)
        if ok:
            counts[prop] += 1
        else:
            failures.append(f"case {case} ({context}): {prop} failed")

    import random

    for case in range(args.cases):
        algebra = algebras[case % len(algebras)]
        phi = feature_sets[case % len(feature_sets)]
        case_seed = args.seed * 1_000_003 + case
        context = f"{algebra.name}, features={','.join(phi.names())}"

        g = random_graph(graph_params, case_seed, algebra)
        fast = compcb(g)
        record("oracle equivalence", fast == naive_coarsest_stable_refinement(g), case, context)
        record("stability", is_stable(g, fast), case, context)

        interp = random_interpretation(interp_params, case_seed, algebra)
        enc = interpretation_to_graph(interp, phi)
        p = compcb(enc)
        reduced = quotient(interp, p)
        canonical = canonical_relation(interp, p, reduced)
        record(
            "canonical bisimulation",
            is_bisimulation(interp, reduced, canonical, phi).ok
            and is_bisimulation(interp, reduced, canonical, phi.with_universal()).ok,
            case,
            context,
        )
        record(
            "idempotent domain size",
            minimize(reduced, phi).n == reduced.n,
            case,
            context,
        )

        rng = random.Random(f"verify:{case_seed}")
        bisim = largest_bisimulation(interp, interp, phi)
        names = list(interp.concept_names), list(interp.role_names), list(interp.individual_names)
        invariant = True
        for _ in range(5):
            concept = random_concept(rng, phi, 3, names[0], names[1], names[2], algebra)
            values = eval_concept(interp, concept, phi)
            if any(values[x] != values[y] for x, y in bisim):
                invariant = False
                break
        record("concept invariance", invariant, case, context)

        preserved = True
        for _ in range(3):
            axiom = random_tbox_axiom(rng, phi, 2, names[0], names[1], names[2], algebra)
            if satisfies(interp, phi, axiom) != satisfies(reduced, phi, axiom):
                preserved = False
                break
        if preserved and names[2]:
            for _ in range(3):
                assertion = random_concept_assertion(rng, phi, 2, names[0], names[1], names[2], algebra)
                if satisfies(interp, phi, assertion) != satisfies(reduced, phi, assertion):
                    preserved = False
                    break
        record("axiom/assertion preservation", preserved, case, context)

    for prop in sorted(counts):
        print(f"{prop}: {counts[prop]}/{args.cases}")
    if failures:
        for line in failures[:20]:
            print(line, file=sys.stderr)
        print(f"FAILED: {len(failures)} check(s) across {args.cases} case(s)", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all checks passed ({args.cases} cases)")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It names the command;
    `main` looks up `cmd_<command>` at call time."""
    parser = argparse.ArgumentParser(
        prog="fuzzmin",
        description="Minimize fuzzy interpretations and weighted labeled graphs "
        "via crisp bisimulation partition refinement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, features=True):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--algebra", default="godel",
                       help="godel|product|lukasiewicz|lattice:PATH (default godel)")
        if features:
            p.add_argument("--features", default="baaz",
                           help="comma list: baaz,comp,union,star,test,inverse,universal,nominal")

    p = sub.add_parser("minimize", help="quotient an interpretation by its coarsest stable partition")
    common(p)
    p.add_argument("--output", help="write the minimized interpretation JSON here (default stdout)")
    p.add_argument("--prune", action="store_true",
                   help="first drop elements unreachable from named individuals")

    p = sub.add_parser("partition", help="print the coarsest stable partition of a fuzzy graph")
    common(p, features=False)
    p.add_argument("--output", help="write the partition JSON here")
    p.add_argument("--trace", action="store_true", help="print each refinement iteration")

    p = sub.add_parser("eval", help="evaluate a concept expression at an element")
    common(p)
    p.add_argument("expr", help="concept expression, e.g. 'some (r* ; r) . A'")
    p.add_argument("at", help="element or individual name")

    p = sub.add_parser("check", help="check a relation against the bisimulation conditions")
    common(p)
    p.add_argument("--other", help="second interpretation JSON (default: same as --input)")
    p.add_argument("relation", help="JSON array of [left, right] name pairs")

    p = sub.add_parser("verify", help="differential and property checks on random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)

    p = sub.add_parser("stats", help="n/m/l statistics of a graph or interpretation")
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        detail = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
