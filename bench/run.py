"""Benchmark of fuzzmin: four workloads, each a closed loop of whole operations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
`src/`, inputs are written to `.bench_work/`.  One client in one process
and one thread starts the next operation only when the previous one has
returned, in whole rounds of the same operations, until S seconds have
passed.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer self times and counts with `--trace 1`.
Every time is scaled to one host speed by a fixed loop read between
rounds (`HostSpeed`).  See bench/README.md for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import inputs
import reference

SETUP_REPEATS = 9


# --- host speed -------------------------------------------------------------


def _lookups():
    """Random lookups in a table of tuples (about 30 MiB, far more than L2),
    as refinement walks a large graph."""
    rng = random.Random(0)
    table = {(i, 3 * i): i for i in range(200_000)}
    keys = [(i, 3 * i) for i in rng.sample(range(200_000), 20_000)]

    def loop():
        total = 0
        for key in keys:
            total += table[key]
        return total

    return loop


def _fractions():
    """Fraction products and comparisons, as the product algebra's evaluator."""
    degrees = [Fraction(i % 8 + 1, 8) for i in range(2_000)]
    half = Fraction(1, 2)
    return lambda: len({max(a, half) * a for a in degrees})


def _small_dicts():
    """Small dicts built and sorted, as many small graphs."""

    def loop():
        table = {}
        for i in range(6_000):
            table[(i * 7919) % 6007, i & 7] = [i, str(i)]
        return sorted(table.items())

    return loop


# Each loop and its time at the reference speed.
SPEED_LOOPS = {"lookups": (_lookups, 0.016), "fractions": (_fractions, 0.008),
               "small-dicts": (_small_dicts, 0.0075)}


class HostSpeed:
    """A fixed loop, apart from fuzzmin, read between pieces of timed work to
    put every timing on one host speed.

    The shared host slows this process by up to half, for seconds to
    minutes at a time, and no statistic over one run averages that away
    (README.md).  A loop of the same kind of work as the workload's slows
    down with it: over 25 s windows of long traces, scaling by the loop cut
    the spread of the median operation time from 0.12-0.38 to 0.04-0.09.
    A change to fuzzmin cannot move the loop.
    """

    def __init__(self, kind: str):
        make, self.reference_s = SPEED_LOOPS[kind]
        self._loop = make()
        gc.collect()  # untracks the table's tuples: later collections skip them
        self.readings: list[float] = []
        self._read()

    def _read(self) -> float:
        """The loop's best time of three."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._loop()
            best = min(best, time.perf_counter() - start)
        self.readings.append(best)
        return best

    def factor(self) -> float:
        """Seconds at the reference speed per second of the work done since
        the last reading: the loop's reference time over the mean of that
        reading and a new one."""
        before = self.readings[-1]
        return self.reference_s / ((before + self._read()) / 2)


def _fresh_import() -> None:
    """Import fuzzmin.cli from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "fuzzmin" or m.startswith("fuzzmin.")]:
        del sys.modules[name]
    importlib.import_module("fuzzmin.cli")


def _setup(workload, seed: int) -> float:
    """Time one set-up: a fresh import of fuzzmin.cli, then the inputs."""
    start = time.perf_counter()
    _fresh_import()
    workload.setup(seed)
    return time.perf_counter() - start


def _cli(argv: list[str]) -> tuple[int, str]:
    """One fuzzmin command run in-process: its exit code and stdout."""
    cli = sys.modules["fuzzmin.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        sys.stderr.write(f"fuzzmin {argv[0]} exited {code}: {err.getvalue()[-500:]}\n")
    return code, out.getvalue()


class Op:
    """One operation: `run()` is timed and returns (exit code, output);
    `items` counts its units of work."""

    def __init__(self, key, run, items: int):
        self.key, self.run, self.items = key, run, items


# --- workloads -----------------------------------------------------------


class MinimizeWorkload:
    """`fuzzmin minimize` on one generated interpretation, one op per round."""

    speed_loop = "lookups"

    def __init__(self, work: Path):
        self.input = work / f"{self.name}.json"
        self.output = work / f"{self.name}.out.json"
        self.outputs: dict[str, bytes] = {}

    def ops(self) -> list[Op]:
        argv = ["minimize", "--input", str(self.input), "--algebra", self.algebra,
                "--features", self.features, "--output", str(self.output)]
        return [Op("minimize", functools.partial(_cli, argv), self.model.n)]

    def record(self, key, stdout) -> None:
        data = self.output.read_bytes()
        self.outputs.setdefault(hashlib.sha256(data).hexdigest(), data)

    def check(self) -> list[str]:
        problems = []
        for data in self.outputs.values():
            problems += self.check_doc(json.loads(data))
        return problems


class MinimizeSocial(MinimizeWorkload):
    name = "minimize-social"
    algebra = "godel"
    features = "baaz,inverse"

    def setup(self, seed: int) -> None:
        self.model = inputs.social(seed)
        self.input.write_text(json.dumps(self.model.to_json()))

    def check_doc(self, doc) -> list[str]:
        return reference.check_social(self.model, doc)


class MinimizeChains(MinimizeWorkload):
    name = "minimize-chains"
    features = "baaz"

    def setup(self, seed: int) -> None:
        self.chains = inputs.chains(seed)
        self.model = self.chains.model
        self.input.write_text(json.dumps(self.model.to_json()))
        self.algebra = "lattice:" + sys.modules["fuzzmin"].bundled_lattice_path("godel5")

    def check_doc(self, doc) -> list[str]:
        return reference.check_chains(self.chains, doc)


class Semantics:
    """`fuzzmin eval` on every query shape, then largest_bisimulation(I, I)."""

    name = "semantics"
    speed_loop = "fractions"

    def __init__(self, work: Path):
        self.input = work / "semantics.json"
        self.printed: dict[int, set[str]] = {}
        self.relations: set[frozenset] = set()

    def setup(self, seed: int) -> None:
        self.model = inputs.semantics_model(seed)
        self.queries = inputs.semantics_queries(seed, self.model)
        self.input.write_text(json.dumps(self.model.to_json()))

    def _bisimulation(self):
        fdl = sys.modules["fuzzmin.fdl"]
        algebra = sys.modules["fuzzmin.algebra"]
        i = fdl.load_interpretation(str(self.input), algebra.make_algebra("product"))
        phi = fdl.FeatureSet.from_names(inputs.SEM_FEATURES.split(","))
        return 0, fdl.largest_bisimulation(i, i, phi)

    def ops(self) -> list[Op]:
        ops = []
        for q, (shape, at) in enumerate(self.queries):
            argv = ["eval", "--input", str(self.input), "--algebra", "product",
                    "--features", inputs.SEM_FEATURES,
                    inputs.render_concept(shape), self.model.names[at]]
            ops.append(Op(q, functools.partial(_cli, argv), 1))
        ops.append(Op("bisim", self._bisimulation, 1))
        return ops

    def record(self, key, result) -> None:
        if key == "bisim":
            self.relations.add(frozenset(result))
        else:
            self.printed.setdefault(key, set()).add(result)

    def check(self) -> list[str]:
        problems = []
        for q, printed in self.printed.items():
            shape, at = self.queries[q]
            for text in printed:
                problems += reference.check_eval(self.model, shape, at, text)
        for pairs in self.relations:
            problems += reference.check_bisimulation(self.model, pairs)
        return problems


class Verify:
    """Fixed-size batches of `fuzzmin verify --cases K --seed S`."""

    name = "verify"
    speed_loop = "small-dicts"

    def __init__(self, work: Path):
        self.outputs: set[str] = set()

    def setup(self, seed: int) -> None:
        self.seeds = inputs.verify_seeds(seed)

    def ops(self) -> list[Op]:
        return [
            Op(s, functools.partial(_cli, ["verify", "--cases", str(inputs.VERIFY_CASES),
                                           "--seed", str(s)]), inputs.VERIFY_CASES)
            for s in self.seeds
        ]

    def record(self, key, result) -> None:
        self.outputs.add(result)

    def check(self) -> list[str]:
        problems = []
        for stdout in self.outputs:
            problems += reference.check_verify(0, stdout, inputs.VERIFY_CASES)
        return problems


WORKLOADS = {w.name: w for w in (MinimizeSocial, MinimizeChains, Semantics, Verify)}


# --- the closed loop -------------------------------------------------------


class Loop:
    def __init__(self, workload):
        self.workload = workload
        self.speed: HostSpeed | None = None  # set after the warm-up round
        self.factor = 1.0  # the last round's scale to the reference speed
        self.times: dict[object, list[float]] = {}  # operation key -> every scaled timing
        self.attempted = 0
        self.failed = 0

    def round(self, run=lambda op: op.run()) -> dict[object, float]:
        """Run every operation of one round; returns each one's time at the
        reference speed.  Before `speed` is set the times are wall times and
        are not kept."""
        times = {}
        for op in self.workload.ops():
            gc.collect()  # each operation starts from a clean heap, as in a new process
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = run(op)
            except Exception:  # a crash fails the operation, not the run
                times[op.key] = time.perf_counter() - start
                self.failed += 1
                sys.stderr.write(f"operation {op.key!r} raised:\n{traceback.format_exc()}")
            else:
                times[op.key] = time.perf_counter() - start
                code, output = result
                if code != 0:
                    self.failed += 1
                else:
                    self.workload.record(op.key, output)
        if self.speed is None:
            return times
        self.factor = self.speed.factor()
        for key in times:
            times[key] *= self.factor
            self.times.setdefault(key, []).append(times[key])
        return times


def end_to_end(loop: Loop, setup_s: float, peak_rss_mib: float) -> dict:
    """Each operation's time is its median over the run's rounds, at the
    reference speed."""
    typical = {key: statistics.median(ts) for key, ts in loop.times.items()}
    items = sum(op.items for op in loop.workload.ops())
    return {
        "op_p50_s": {"value": statistics.median(typical.values()), "unit": "s"},
        "items_per_s": {"value": items / sum(typical.values()), "unit": "1/s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced(loop: Loop, seconds: float, trace_path: Path) -> dict:
    """Per-layer figures from traced rounds between untraced ones.

    The first round runs traced with counting on and gives the exact
    counts; it is also the warm-up, and its times are not used.  Counting
    an algebra operator call costs about a microsecond, so the rounds after
    it trace without counting and alternate with untraced rounds.  As in
    `end_to_end`, each figure is a median over rounds at the reference
    speed: a layer's self time per round, and the overhead as the median
    traced round time minus the median untraced one.  `host.loop_s` is the
    median wall time of the host-speed loop, for turning figures back into
    wall times.
    """
    from spans import COUNTS, Tracer

    tracer = Tracer()
    next_op = 0

    def traced_round(count: bool) -> tuple[float, dict]:
        nonlocal next_op
        first = next_op

        def run(op):
            nonlocal next_op
            next_op += 1
            return tracer.operation(next_op - 1, op.run)

        tracer.install(count)
        try:
            elapsed = sum(loop.round(run).values())
        finally:
            tracer.uninstall()
        times = tracer.layer_times(range(first, next_op))
        return elapsed, {name: t * loop.factor for name, t in times.items()}

    traced_round(count=True)
    counts = tracer.collect_counts()
    loop.speed = HostSpeed(loop.workload.speed_loop)
    plain, spanned, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not spanned or time.perf_counter() < deadline:
        plain.append(sum(loop.round().values()))
        elapsed, times = traced_round(count=False)
        spanned.append(elapsed)
        layers.append(times)
    tracer.write(trace_path)

    metrics = {}
    for name in layers[0]:
        metrics[f"{name}.self_s" if name == "op" else f"{name}_s"] = {
            "value": statistics.median(layer[name] for layer in layers), "unit": "s"}
    for name in COUNTS:
        metrics[name] = {"value": counts[name], "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(spanned) - statistics.median(plain), "unit": "s"}
    metrics["host.loop_s"] = {"value": statistics.median(loop.speed.readings), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fuzzmin" / "cli.py").is_file():
        sys.stderr.write(f"no fuzzmin sources under {src}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(src))
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](work)
    _setup(workload, args.seed)  # the first import; the timed set-ups come later
    if not Path(sys.modules["fuzzmin"].__file__).is_relative_to(src):
        sys.stderr.write(f"fuzzmin was imported from {sys.modules['fuzzmin'].__file__}, not {src}\n")
        return 2

    loop = Loop(workload)
    if args.trace:
        metrics = traced(loop, args.seconds, work / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        # The warm-up round fills the program's caches, and the peak RSS is
        # read after it, before the speed table adds its own memory.
        loop.round()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        speed = loop.speed = HostSpeed(workload.speed_loop)
        # The set-up is repeated between rounds, spread over the run.
        setup_times = []
        start = time.perf_counter()
        while not loop.times or time.perf_counter() < start + args.seconds:
            loop.round()
            due = len(setup_times) * args.seconds / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and time.perf_counter() - start >= due:
                setup_times.append(_setup(workload, args.seed) * speed.factor())
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(_setup(workload, args.seed) * speed.factor())
        metrics = end_to_end(loop, statistics.median(setup_times), peak_rss_mib)

    problems = workload.check()
    for line in problems[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    print(f"{args.workload} seed={args.seed}: {loop.attempted} operations, "
          f"{loop.failed} failed, {len(problems)} check problems")
    print(json.dumps({"correct": not problems, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
