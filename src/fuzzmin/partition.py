"""Partitions of a dense vertex id range, with a canonical block order."""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import UsageError


class Partition:
    """Disjoint non-empty blocks covering the vertex ids 0..n-1.

    Blocks are stored canonically (sorted by minimum member) so equal
    partitions compare and render identically regardless of how they
    were produced.
    """

    __slots__ = ("n", "_blocks", "_index")

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
        self._blocks: tuple[frozenset[int], ...] = tuple(materialized)
        self._index: tuple[int, ...] = tuple(index)

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        return self._blocks

    def block_index(self, v: int) -> int:
        return self._index[v]

    def __len__(self) -> int:
        return len(self._blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and set(self._blocks) == set(other._blocks)

    def to_names(self, names: Sequence[str]) -> list[list[str]]:
        """Render as name lists: members sorted, blocks ordered by first member."""
        rendered = [sorted(names[v] for v in block) for block in self._blocks]
        rendered.sort(key=lambda members: members[0])
        return rendered

    def __repr__(self) -> str:
        inner = ",".join("{" + ",".join(str(v) for v in sorted(b)) + "}" for b in self._blocks)
        return "{" + inner + "}"
