"""Partition refinement for fuzzy labeled graphs.

`compcb` computes the coarsest stable refinement of a graph's initial
partition (the partition corresponding to the largest crisp
auto-bisimulation), processing smaller halves first so the total work is
O((m log l + n) log n).  The engine only compares degrees, so it works on
the graph's degree ranks (`FuzzyGraph.levels`), not on the degrees.
`split` is the underlying refinement primitive, exposed on its own, and
`naive_coarsest_stable_refinement` is a direct fixpoint computation on
the degrees, used as a differential oracle for the engine.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, TYPE_CHECKING

from .errors import UsageError
from .partition import Partition

if TYPE_CHECKING:
    from .algebra import Degree
    from .graph import FuzzyGraph


class DegreeAggregate:
    """Multiset of edge degrees with amortized O(log) insert, remove and max.

    Counts live in a dict; the max is answered from a lazy heap that skips
    entries whose count has dropped to zero.
    """

    __slots__ = ("_counts", "_heap")

    def __init__(self, degrees: Iterable = ()):
        self._counts: dict = {}
        self._heap: list = []
        for d in degrees:
            self.add(d)

    def add(self, degree) -> None:
        count = self._counts.get(degree, 0)
        self._counts[degree] = count + 1
        if count == 0:
            heapq.heappush(self._heap, -degree)

    def remove(self, degree) -> bool:
        """Remove one copy of degree; True when the multiset is now empty."""
        counts = self._counts
        count = counts[degree]
        if count == 1:
            del counts[degree]  # heap entry goes stale, max() skips it
            return not counts
        counts[degree] = count - 1
        return False

    def max(self):
        """Largest degree present, or None when empty."""
        while self._heap:
            candidate = -self._heap[0]
            if candidate in self._counts:
                return candidate
            heapq.heappop(self._heap)
        return None

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)


@dataclass(frozen=True)
class TraceStep:
    """One main-loop iteration of the refinement engine, for --trace output."""

    index: int
    label: str
    y_prime: frozenset[int]
    y: frozenset[int]
    changed: bool
    partition: tuple[frozenset[int], ...]
    splitter: tuple[frozenset[int], ...]


def _as_union_of_blocks(p: Partition, verts: frozenset[int], what: str) -> None:
    for v in verts:
        if not 0 <= v < p.n:
            raise UsageError(f"{what} contains unknown vertex id {v}")
    covered = set()
    for v in verts:
        if v in covered:
            continue
        block = p.block_of(v)
        if not block <= verts:
            raise UsageError(f"{what} is not a union of partition blocks")
        covered |= block


def split(g: "FuzzyGraph", p: Partition, y_prime: Iterable[int], y: Iterable[int], label: str) -> Partition:
    """Coarsest refinement of p whose blocks have constant sup of outgoing
    `label` degrees into both y_prime and y - y_prime.

    y must be a union of blocks of p, and y_prime a non-empty proper
    subset of y that is itself a union of blocks.  Only edges into y are
    scanned.
    """
    yp = frozenset(y_prime)
    yfull = frozenset(y)
    if not yp or not yp < yfull:
        raise UsageError("need empty < y_prime < y (proper, non-empty)")
    _as_union_of_blocks(p, yfull, "y")
    _as_union_of_blocks(p, yp, "y_prime")
    incoming = g.incoming(label)

    # degree ranks stand in for degrees: 0 is bottom
    sup_prime: dict[int, int] = {}
    sup_rest: dict[int, int] = {}
    for t in sorted(yfull):
        acc = sup_prime if t in yp else sup_rest
        for s, rank in incoming[t]:
            if rank > acc.get(s, 0):
                acc[s] = rank
    new_blocks: list[list[int]] = []
    for block in p.blocks:
        groups: dict[tuple, list[int]] = {}
        for v in sorted(block):
            key = (sup_prime.get(v, 0), sup_rest.get(v, 0))
            groups.setdefault(key, []).append(v)
        new_blocks.extend(groups.values())
    return Partition(new_blocks, p.n)


class _PBlock:
    __slots__ = ("bid", "verts", "qref")

    def __init__(self, bid: int, verts: set[int]):
        self.bid = bid
        self.verts = verts
        # per label, the qid of the Q-block holding this block: ids, not the
        # Q-blocks themselves, so that blocks and Q-blocks form no reference
        # cycle and a finished run is freed at once, not by the cyclic GC
        self.qref: list[int] = []


class _QBlock:
    __slots__ = ("qid", "label_idx", "pblocks", "queued")

    def __init__(self, qid: int, label_idx: int, pblocks: dict[int, _PBlock]):
        self.qid = qid
        self.label_idx = label_idx
        self.pblocks = pblocks  # insertion-ordered: bid -> block
        self.queued = False

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for pb in self.pblocks.values():
            out |= pb.verts
        return frozenset(out)


class _Refiner:
    """Working state of one refinement run (single-threaded, single graph)."""

    def __init__(self, g: "FuzzyGraph", debug: bool = False):
        if g.n == 0:
            raise UsageError("graph has no vertices")
        self.g = g
        self.debug = debug
        self.labels = g.edge_label_names
        self.next_bid = 0
        self.next_qid = 0
        self.pblocks: dict[int, _PBlock] = {}
        self.qblocks: dict[int, _QBlock] = {}
        self.vblock: list[_PBlock] = [None] * g.n  # type: ignore[list-item]
        # per Q-block (indexed by qid), one aggregate per source holding the
        # ranks of that source's edge degrees into the block, per the
        # Q-block's own label; sources without such edges have no entry
        self.agg: list[dict[int, DegreeAggregate]] = []
        self.queues: list[deque[_QBlock]] = [deque() for _ in self.labels]

        for block in g.initial_partition().blocks:
            pb = self._new_pblock(set(block))
            for v in block:
                self.vblock[v] = pb
        for li, label in enumerate(self.labels):
            qb = self._new_qblock(li, dict(self.pblocks))
            for pb in self.pblocks.values():
                pb.qref.append(qb.qid)
            aggs = self.agg[qb.qid]
            for sources in g.incoming(label):
                for x, rank in sources:
                    aggregate = aggs.get(x)
                    if aggregate is None:
                        aggregate = aggs[x] = DegreeAggregate()
                    aggregate.add(rank)
            self._enqueue_if_compound(qb)

    def _new_pblock(self, verts: set[int]) -> _PBlock:
        pb = _PBlock(self.next_bid, verts)
        self.next_bid += 1
        self.pblocks[pb.bid] = pb
        return pb

    def _new_qblock(self, label_idx: int, pblocks: dict[int, _PBlock]) -> _QBlock:
        qb = _QBlock(self.next_qid, label_idx, pblocks)
        self.next_qid += 1
        self.qblocks[qb.qid] = qb
        self.agg.append({})
        return qb

    def _enqueue_if_compound(self, qb: _QBlock) -> None:
        if not qb.queued and len(qb.pblocks) >= 2:
            qb.queued = True
            self.queues[qb.label_idx].append(qb)

    def run(self, on_iteration: Callable[[TraceStep], None] | None = None) -> Partition:
        step = 0
        while True:
            qb = self._pop_compound()
            if qb is None:
                break
            step += 1
            # the smaller of the first two contained blocks is at most half of Y
            it = iter(qb.pblocks.values())
            first = next(it)
            second = next(it)
            y_prime_pb = first if len(first.verts) <= len(second.verts) else second
            y_before = qb.vertices() if on_iteration else frozenset()
            changed = self._split_q(qb, y_prime_pb)
            if on_iteration:
                on_iteration(TraceStep(
                    index=step,
                    label=self.labels[qb.label_idx],
                    y_prime=frozenset(y_prime_pb.verts),
                    y=y_before,
                    changed=changed,
                    partition=tuple(frozenset(pb.verts) for pb in self.pblocks.values()),
                    splitter=tuple(
                        q.vertices() for q in self.qblocks.values()
                        if q.label_idx == qb.label_idx
                    ),
                ))
            if self.debug:
                self._check_aggregates()
        return Partition((pb.verts for pb in self.pblocks.values()), self.g.n)

    def _pop_compound(self) -> _QBlock | None:
        for queue in self.queues:  # lowest label index first
            if queue:
                qb = queue.popleft()
                qb.queued = False
                return qb
        return None

    def _split_q(self, qb: _QBlock, y_prime_pb: _PBlock) -> bool:
        """Replace qb by y_prime and its complement, then re-split P by the pair
        of sups into the two halves.  Returns True when P changed."""
        li = qb.label_idx
        label = self.labels[li]
        del qb.pblocks[y_prime_pb.bid]
        new_qb = self._new_qblock(li, {y_prime_pb.bid: y_prime_pb})
        y_prime_pb.qref[li] = new_qb.qid
        self._enqueue_if_compound(qb)

        # move the ranks of edges into y_prime out of the old aggregates; the
        # sources with an aggregate into y_prime are the affected ones
        incoming = self.g.incoming(label)
        old_aggs, new_aggs = self.agg[qb.qid], self.agg[new_qb.qid]
        for y in y_prime_pb.verts:
            for x, rank in incoming[y]:
                if old_aggs[x].remove(rank):
                    del old_aggs[x]
                new = new_aggs.get(x)
                if new is None:
                    new = new_aggs[x] = DegreeAggregate()
                new.add(rank)

        # group affected sources by their (sup into y_prime, sup into rest)
        # pair, as the one int sup_prime * width + sup_rest
        width = len(self.g.levels)
        groups: dict[int, dict[int, list[int]]] = {}
        vblock = self.vblock
        for x, new in new_aggs.items():
            rest = old_aggs.get(x)
            key = new.max() * width + (rest.max() if rest is not None else 0)
            groups.setdefault(vblock[x].bid, {}).setdefault(key, []).append(x)

        changed = False
        for bid, by_key in groups.items():
            pb = self.pblocks[bid]
            n_affected = sum(len(vs) for vs in by_key.values())
            has_unaffected = len(pb.verts) > n_affected
            if not has_unaffected and len(by_key) == 1:
                continue  # whole block moved together
            changed = True
            movers = iter(by_key.values())
            if not has_unaffected:
                next(movers)  # first group stays in pb
            for verts in movers:
                new_pb = self._new_pblock(set(verts))
                new_pb.qref = list(pb.qref)
                for v in verts:
                    pb.verts.remove(v)
                    self.vblock[v] = new_pb
                for qid in new_pb.qref:
                    ref = self.qblocks[qid]
                    ref.pblocks[new_pb.bid] = new_pb
                    self._enqueue_if_compound(ref)
        return changed

    def _check_aggregates(self) -> None:
        """Debug invariant: every aggregate max is the rank of a fresh sup computation."""
        for qid, aggs in enumerate(self.agg):
            if not aggs:
                continue
            qb = self.qblocks[qid]
            verts = qb.vertices()
            for x, aggregate in aggs.items():
                fresh = self.g.sup_degree(x, self.labels[qb.label_idx], verts)
                held = self.g.levels[aggregate.max()]
                assert held == fresh, f"aggregate for ({x}, q{qid}) holds {held}, expected {fresh}"


def compcb(
    g: "FuzzyGraph",
    on_iteration: Callable[[TraceStep], None] | None = None,
    debug: bool = False,
) -> Partition:
    """Coarsest stable refinement of g's initial partition.

    Repeatedly picks an edge label whose splitter partition is still
    coarser than the current partition, takes a compound splitter block,
    splits it by a contained block of at most half its size, and re-splits
    the partition against the two halves.
    """
    return _Refiner(g, debug=debug).run(on_iteration)


def naive_coarsest_stable_refinement(g: "FuzzyGraph") -> Partition:
    """Differential oracle: refine by full signatures until nothing changes.

    Each round recomputes, for every vertex, its block plus the sup of its
    outgoing degrees into every (label, block) pair, and regroups blocks
    by that signature.  Independent of the engine's data structures.
    """
    if g.n == 0:
        raise UsageError("graph has no vertices")
    part = g.initial_partition()
    while True:
        sups: list[dict[tuple[str, int], "Degree"]] = [{} for _ in range(g.n)]
        for s, label, t, degree in g.edges:
            key = (label, part.block_index(t))
            if degree > sups[s].get(key, g.algebra.bottom):
                sups[s][key] = degree
        groups: dict[tuple, list[int]] = {}
        for v in range(g.n):
            signature = (part.block_index(v), tuple(sorted(sups[v].items())))
            groups.setdefault(signature, []).append(v)
        if len(groups) == len(part):
            return part
        part = Partition(groups.values(), g.n)


def is_stable(g: "FuzzyGraph", p: Partition) -> bool:
    """True when every block has a constant sup of outgoing degrees into
    every block, for every edge label."""
    if p.n != g.n:
        raise UsageError("partition does not match the graph's vertex set")
    bottom = g.algebra.bottom
    for block in p.blocks:
        members = sorted(block)
        reference: dict[tuple[str, int], "Degree"] | None = None
        for v in members:
            mine: dict[tuple[str, int], "Degree"] = {}
            for label in g.edge_label_names:
                for t, degree in g.out_edges(v, label).items():
                    key = (label, p.block_index(t))
                    if degree > mine.get(key, bottom):
                        mine[key] = degree
            if reference is None:
                reference = mine
            elif mine != reference:
                return False
    return True
