"""Partition refinement for fuzzy labeled graphs.

`compcb` computes the coarsest stable refinement of a graph's initial
partition (the partition corresponding to the largest crisp
auto-bisimulation), processing smaller halves first so the total work is
O((m log l + n) log n).  The engine only compares degrees, so it works on
the graph's degree ranks (`FuzzyGraph.levels`), not on the degrees.
`naive_coarsest_stable_refinement` is a direct fixpoint computation on
the degrees, used as a differential oracle for the engine.

The engine starts each label's splitter family Q from the initial
partition P0, one Q-block per initial block, and splits each P0 block once
by its vertices' signatures, their sup ranks into every Q-block: one scan
of each label's per-target lists keeps one int per source while its edges
go into one Q-block and a small dict after that, so nothing is made per
Q-block.  `partition.class_groups` groups each P0 block by signature, and
the largest group keeps the block's id.  That start P is stable with
respect to Q and loses no coarseness: a P0 block is a union of blocks of
any stable refinement of P0, and the sup into a union is the max of the
sups into its parts.  Each loop step then moves one block out of a
compound Q-block into a Q-block of its own, so a run over L edge labels
takes exactly L * (|P| - |P0|) steps for its result P.

The engine keeps its state in flat per-id lists, not objects, so a run
builds no reference cycles and is freed on return.  Blocks and Q-blocks
(the splitter blocks, one family per edge label) are never deleted, so
their ids count up from 0; Q-block li * |P0| + bid starts as initial
block bid for label index li:
- `blk[v]` is the id of the block holding vertex v, `members[bid]` its
  vertices, and `qof[li][bid]` the id of the label-li Q-block holding it;
- `qbids[qid][qhead[qid]:]` are a Q-block's block ids, `qlabel[qid]` its
  label index and `queued[qid]` whether it waits in its label's queue;
- `agg[qid][x]` aggregates the ranks of source x's edges into Q-block qid,
  per its label: a bare int rank while one edge is counted, promoted to a
  `DegreeAggregate` when a second edge arrives.  Sources without such
  edges, or alone in their block, have no entry; an entry made before its
  source was left alone goes stale and is never read.  `agg[qid]` is None
  for an initial Q-block until the loop first splits it, which counts it
  in one pass over the edges into its blocks: the set-up split needs only
  sups, and a Q-block's aggregates are read only when it splits;
- `alone[v]` is whether vertex v's block holds only v.  Such a block can
  never split, so v's aggregates would never be read.  Blocks only split,
  so the flag only turns on, and a vertex not alone now never was: every
  edge move of a vertex whose aggregates are read has been recorded.
`members` are dicts used as ordered sets and `qbids` are lists, so the
walks over them, and with them the block ids and the trace, follow
insertion order.  A Q-block loses only blocks at its front (its first or
second), so it drops them by moving its head: reading its first two
blocks costs O(1), where a dict would skip every slot deleted before them.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, TYPE_CHECKING

from .errors import UsageError
from .partition import Partition, class_groups
from .record import Record

if TYPE_CHECKING:
    from .algebra import Degree
    from .graph import FuzzyGraph


class DegreeAggregate:
    """Multiset of edge degrees with amortized O(log) insert, remove and max.

    Counts live in a dict; the max is answered from a lazy heap that skips
    entries whose count has dropped to zero.
    """

    __slots__ = ("_counts", "_heap")

    def __init__(self):
        self._counts: dict = {}
        self._heap: list = []

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

    @classmethod
    def pair(cls, first, second) -> "DegreeAggregate":
        """The multiset {first, second}, as two `add` calls would build it."""
        agg = cls.__new__(cls)
        if first == second:
            agg._counts = {first: 2}
            agg._heap = [-first]
        else:
            agg._counts = {first: 1, second: 1}
            agg._heap = [-first, -second] if first > second else [-second, -first]
        return agg

    def max(self):
        """Largest degree present, or None when empty."""
        while self._heap:
            candidate = -self._heap[0]
            if candidate in self._counts:
                return candidate
            heapq.heappop(self._heap)
        return None


class TraceStep(Record):
    """One main-loop iteration of the refinement engine, for --trace output:
    Y' and Y as the split used them, then P and the label's Q-blocks after it."""

    index: int
    label: str
    y_prime: frozenset[int]
    y: frozenset[int]
    changed: bool
    partition: tuple[frozenset[int], ...]
    splitter: tuple[frozenset[int], ...]


class _Refiner:
    """Working state of one refinement run (single-threaded, single graph),
    in the flat layout the module docstring describes."""

    def __init__(self, g: "FuzzyGraph"):
        self.g = g
        self.labels = g.edge_label_names
        self.width = len(g.levels)
        blocks = g._initial_blocks()
        self.members: list[dict[int, None]] = [dict.fromkeys(block) for block in blocks]
        blk: list[int] = [0] * g.n
        alone: list[bool] = [False] * g.n
        for bid, block in enumerate(blocks):
            for v in block:
                blk[v] = bid
            if len(block) == 1:
                alone[block[0]] = True
        self.blk, self.alone = blk, alone
        self.incoming = [g.incoming(label) for label in self.labels]
        nb, nl = len(blocks), len(self.labels)
        self.qof: list[list[int]] = [list(range(li * nb, (li + 1) * nb)) for li in range(nl)]
        self.qbids: list[list[int]] = [[bid] for _ in range(nl) for bid in range(nb)]
        self.qhead: list[int] = [0] * (nl * nb)
        self.qlabel: list[int] = [li for li in range(nl) for _ in range(nb)]
        self.queued: list[bool] = [False] * (nl * nb)
        # an initial Q-block's aggregates are counted on its first split
        self.agg: list[dict[int, int | DegreeAggregate] | None] = [None] * (nl * nb)
        self.queues: list[deque[int]] = [deque() for _ in self.labels]

        # one scan of the edges for each source's signature, its sup rank into
        # each initial Q-block: the one int qid * width + sup while the source
        # has edges into one Q-block (ranks of edges are 1 or more), promoted
        # to a {qid: sup} dict when a second comes, and frozen after the scan;
        # None for a source without edges or alone in its block
        width = self.width
        sig: list[int | dict[int, int] | frozenset | None] = [None] * g.n
        promoted: list[int] = []
        for li, incoming in enumerate(self.incoming):
            base = li * nb
            for y, sources in enumerate(incoming):
                if not sources:
                    continue
                qid = base + blk[y]
                low = qid * width
                for x, rank in sources:
                    if alone[x]:
                        continue
                    held = sig[x]
                    if held is None:
                        sig[x] = low + rank
                    elif type(held) is int:
                        if not low < held < low + width:  # another Q-block's
                            sig[x] = {held // width: held % width, qid: rank}
                            promoted.append(x)
                        elif held < low + rank:
                            sig[x] = low + rank
                    elif rank > held.get(qid, 0):
                        held[qid] = rank
        for x in promoted:
            sig[x] = frozenset(sig[x].items())

        # split each P0 block by signature; the largest group keeps the block's id
        for bid, block in enumerate(blocks):
            if len(block) > 1 and len(groups := class_groups(block, sig)) > 1:
                stays = max(groups, key=len)
                self._split_block(bid, [moved for moved in groups if moved is not stays])

    def _new_qblock(self, label_idx: int, bids: list[int]) -> int:
        qid = len(self.qlabel)
        self.qbids.append(bids)
        self.qhead.append(0)
        self.qlabel.append(label_idx)
        self.queued.append(False)
        self.agg.append({})
        return qid

    def _enqueue_if_compound(self, qid: int) -> None:
        if not self.queued[qid] and len(self.qbids[qid]) - self.qhead[qid] >= 2:
            self.queued[qid] = True
            self.queues[self.qlabel[qid]].append(qid)

    def _vertices(self, qid: int) -> frozenset[int]:
        bids = self.qbids[qid][self.qhead[qid]:]
        return frozenset().union(*(self.members[bid] for bid in bids))

    def run(self, on_iteration: Callable[[TraceStep], None] | None = None) -> Partition:
        members, qbids, qhead = self.members, self.qbids, self.qhead
        step = 0
        while True:
            qid = self._pop_compound()
            if qid is None:
                break
            step += 1
            # the smaller of the first two contained blocks is at most half of Y
            bids, head = qbids[qid], qhead[qid]
            first, second = bids[head], bids[head + 1]
            y_prime = first if len(members[first]) <= len(members[second]) else second
            changed = self._split_q(qid, y_prime)
            if on_iteration:
                # splitting P leaves each Q-block's vertices as they were: Y'
                # is the new Q-block of y_prime, Y that plus what qid keeps
                li = self.qlabel[qid]
                y_prime_vertices = self._vertices(self.qof[li][y_prime])
                on_iteration(TraceStep(
                    index=step,
                    label=self.labels[li],
                    y_prime=y_prime_vertices,
                    y=y_prime_vertices | self._vertices(qid),
                    changed=changed,
                    partition=tuple(frozenset(verts) for verts in members),
                    splitter=tuple(
                        self._vertices(q) for q, ql in enumerate(self.qlabel) if ql == li
                    ),
                ))
        return Partition(members, self.g.n)

    def _pop_compound(self) -> int | None:
        for queue in self.queues:  # lowest label index first
            if queue:
                qid = queue.popleft()
                self.queued[qid] = False
                return qid
        return None

    def _split_q(self, qid: int, y_prime: int) -> bool:
        """Replace Q-block qid by block y_prime and its complement, then re-split
        P by the pair of sups into the two halves.  Returns True when P changed."""
        li = self.qlabel[qid]
        # y_prime is the first or second block of qid: drop it from the front,
        # keeping the others in order
        bids, head = self.qbids[qid], self.qhead[qid]
        if bids[head] != y_prime:
            bids[head + 1] = bids[head]
        self.qhead[qid] = head + 1
        new_qid = self._new_qblock(li, [y_prime])
        self.qof[li][y_prime] = new_qid
        self._enqueue_if_compound(qid)

        # the sources with an aggregate into y_prime are the affected ones
        # that can split
        incoming = self.incoming[li]
        old_aggs = self.agg[qid]
        if old_aggs is None:
            # an initial Q-block's first split counts the edges into the blocks
            # it keeps and into y_prime, each edge once; its vertex set never
            # grows, so no edge is counted here twice over a run
            old_aggs = self.agg[qid] = self._count(incoming, bids[head + 1:])
            new_aggs = self.agg[new_qid] = self._count(incoming, (y_prime,))
        else:
            # move the ranks of edges into y_prime out of the old aggregates
            new_aggs = self.agg[new_qid]
            get_new = new_aggs.get
            pair = DegreeAggregate.pair
            alone = self.alone
            for y in self.members[y_prime]:
                for x, rank in incoming[y]:
                    if alone[x]:
                        continue
                    old = old_aggs[x]
                    if type(old) is int or old.remove(rank):
                        del old_aggs[x]
                    held = get_new(x)
                    if held is None:
                        new_aggs[x] = rank
                    elif type(held) is int:
                        new_aggs[x] = pair(held, rank)
                    else:
                        held.add(rank)
        if not new_aggs:
            return False

        # group affected sources per block by their (sup into y_prime, sup
        # into rest) pair, as the one int sup_prime * width + sup_rest
        width = self.width
        groups: dict[int, dict[int, list[int]]] = {}
        get_groups = groups.get
        get_old = old_aggs.get
        blk, members = self.blk, self.members
        for x, new in new_aggs.items():
            bid = blk[x]
            rest = get_old(x, 0)
            if type(new) is not int:
                new = new.max()
            if type(rest) is not int:
                rest = rest.max()
            key = new * width + rest
            by_key = get_groups(bid)
            if by_key is None:
                groups[bid] = {key: [x]}
            else:
                group = by_key.get(key)
                if group is None:
                    by_key[key] = [x]
                else:
                    group.append(x)

        changed = False
        for bid, by_key in groups.items():
            movers = list(by_key.values())
            if len(movers) == 1:
                if len(movers[0]) == len(members[bid]):
                    continue  # whole block moved together
            elif sum(map(len, movers)) == len(members[bid]):
                del movers[0]  # no unaffected vertex: first group stays in bid
            changed = True
            self._split_block(bid, movers)
        return changed

    def _count(self, incoming: list, bids) -> dict[int, int | DegreeAggregate]:
        """The aggregates of the edges into blocks bids, per source not alone:
        a bare int rank for one edge, a `DegreeAggregate` from the second."""
        aggs: dict[int, int | DegreeAggregate] = {}
        get = aggs.get
        pair = DegreeAggregate.pair
        alone, members = self.alone, self.members
        for bid in bids:
            for y in members[bid]:
                for x, rank in incoming[y]:
                    if alone[x]:
                        continue
                    held = get(x)
                    if held is None:
                        aggs[x] = rank
                    elif type(held) is int:
                        aggs[x] = pair(held, rank)
                    else:
                        held.add(rank)
        return aggs

    def _split_block(self, bid: int, movers: list[list[int]]) -> None:
        """Move each group of vertices in movers out of block bid into a new
        block, which joins bid's Q-block in every label; that Q-block now
        holds two blocks or more, so it is queued unless it waits already."""
        members, blk, alone = self.members, self.blk, self.alone
        qbids, queued, queues = self.qbids, self.queued, self.queues
        verts = members[bid]
        for moved in movers:
            new_bid = len(members)
            members.append(dict.fromkeys(moved))
            for v in moved:
                del verts[v]
                blk[v] = new_bid
            if len(moved) == 1:
                alone[moved[0]] = True
            for label_idx, qof_label in enumerate(self.qof):
                q = qof_label[bid]
                qof_label.append(q)
                qbids[q].append(new_bid)
                if not queued[q]:
                    queued[q] = True
                    queues[label_idx].append(q)
        if len(verts) == 1:
            alone[next(iter(verts))] = True


def compcb(
    g: "FuzzyGraph",
    on_iteration: Callable[[TraceStep], None] | None = None,
) -> Partition:
    """Coarsest stable refinement of g's initial partition.

    Starts each edge label's splitter partition as the initial partition
    and the partition as its split by every vertex's sups into those
    splitter blocks, read in one scan of the edges.  Then repeatedly picks
    an edge label whose splitter partition is still coarser than the
    current partition, takes a compound splitter block, splits it by a
    contained block of at most half its size, and re-splits the partition
    against the two halves: one step per block the run adds to the start
    partition, per edge label.  A splitter block's per-source multisets of
    edge ranks are counted when it is first split, so the splitter blocks
    the run never splits cost no more than their share of the scan.
    """
    return _Refiner(g).run(on_iteration)


def naive_coarsest_stable_refinement(g: "FuzzyGraph") -> Partition:
    """Differential oracle: refine by full signatures until nothing changes.

    Each round recomputes, for every vertex, its block plus the sup of its
    outgoing degrees into every (label, block) pair, and regroups blocks
    by that signature.  Independent of the engine's data structures.
    """
    part = g.initial_partition()
    edges = g.edges  # rebuilt on every read
    while True:
        sups: list[dict[tuple[str, int], "Degree"]] = [{} for _ in range(g.n)]
        for s, label, t, degree in edges:
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
    for label in g.edge_label_names:
        sups: list[dict[int, int]] = [{} for _ in range(g.n)]
        for t, sources in enumerate(g.incoming(label)):
            bt = p.block_index(t)
            for s, rank in sources:
                mine = sups[s]
                if rank > mine.get(bt, 0):
                    mine[bt] = rank
        for block in p.blocks:
            members = iter(block)
            reference = sups[next(members)]
            if any(sups[v] != reference for v in members):
                return False
    return True
