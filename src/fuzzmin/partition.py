"""Partitions of a dense vertex id range, with a canonical block order,
`ordered_blocks`, the one order by name in which blocks are rendered, and
`split_classes`, the one rule that splits vertex classes by a column."""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .errors import UsageError


def ordered_blocks(blocks: Iterable[Iterable[int]], names: Sequence[str]) -> list[list[int]]:
    """Each block's ids sorted by name, and the blocks ordered by their first
    name: the order in which blocks are rendered and quotient elements are
    numbered.  Blocks must be disjoint, so no two share a first name."""
    name_of = names.__getitem__
    return sorted((sorted(block, key=name_of) for block in blocks), key=lambda ids: names[ids[0]])


def split_classes(cls: list[int], column: Iterable[tuple[int, Hashable]], fresh: int) -> int:
    """Refine the per-vertex class ids `cls` in place by a column of (vertex,
    value) pairs, each vertex at most once; the vertices it leaves out share
    one value (bottom) that it does not list.  A listed vertex moves to the
    class of its (class, value) key, numbered up from `fresh` (above every id
    in use), so splits in turn give the classes of whole-vector keys.
    Returns the next free id; O(len(column))."""
    new: dict[tuple[int, Hashable], int] = {}
    for v, value in column:
        cls[v] = new.setdefault((cls[v], value), fresh + len(new))
    return fresh + len(new)


def class_groups(vertices: Iterable[int], cls: Sequence[Hashable]) -> list[list[int]]:
    """The vertices grouped by their entry in `cls`, a class id or any other
    key, each group in the order given and the groups in order of their
    first vertex."""
    groups: dict[Hashable, list[int]] = {}
    for v in vertices:
        groups.setdefault(cls[v], []).append(v)
    return list(groups.values())


class Partition:
    """Disjoint non-empty blocks covering the vertex ids 0..n-1.

    Blocks are stored canonically (sorted by minimum member) so equal
    partitions compare identically regardless of how they were produced;
    `to_names` renders them in `ordered_blocks` order.
    """

    __slots__ = ("n", "blocks", "_index")

    def __init__(self, blocks: Iterable[Iterable[int]], n: int):
        materialized = [frozenset(b) for b in blocks]
        if any(not b for b in materialized):
            raise UsageError("partition blocks must be non-empty")
        materialized.sort(key=min)
        index: list[int] = [-1] * n
        for bi, block in enumerate(materialized):
            for v in block:
                if not 0 <= v < n:
                    raise UsageError(f"vertex id {v} outside 0..{n - 1}")
                if index[v] != -1:
                    raise UsageError(f"vertex id {v} appears in two blocks")
                index[v] = bi
        if any(bi == -1 for bi in index):
            missing = [v for v, bi in enumerate(index) if bi == -1]
            raise UsageError(f"partition does not cover vertices {missing[:5]}")
        self.n = n
        self.blocks: tuple[frozenset[int], ...] = tuple(materialized)
        self._index: tuple[int, ...] = tuple(index)

    def block_index(self, v: int) -> int:
        return self._index[v]

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and set(self.blocks) == set(other.blocks)

    def to_names(self, names: Sequence[str]) -> list[list[str]]:
        """Render as name lists, in `ordered_blocks` order."""
        return [[names[v] for v in ids] for ids in ordered_blocks(self.blocks, names)]

    def __repr__(self) -> str:
        inner = ",".join("{" + ",".join(str(v) for v in sorted(b)) + "}" for b in self.blocks)
        return "{" + inner + "}"
