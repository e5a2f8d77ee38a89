"""Non-crossing set partitions of {1, ..., n} and their Kreweras complements.

A partition is kept in canonical form: every block is an increasing tuple and
blocks are ordered by their least element.  A partition is non-crossing when
no two blocks interleave, i.e. there are no positions i < j < k < l with
{i, k} in one block and {j, l} in another.

Each partition pi has a permutation perm(pi) whose cycles are the blocks of
pi traversed in increasing order.  The Kreweras complement of a non-crossing
pi is the unique non-crossing partition whose permutation composed on the
right of perm(pi) gives the forward cycle gamma: 1 -> 2 -> ... -> n -> 1.

NC(n) and its complements live only here, on 0-based block tuples: `nc_pairs`
builds NC(n) by stack insertion and pairs each pi with the cycles of
perm(pi)^-1 o gamma, read off an integer array of predecessors by
`_complement`.  pi is non-crossing iff |pi| + |perm(pi)^-1 o gamma| = n + 1
in cycle counts (Biane).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

DEFAULT_MAX_GROUND_SET = 12
Blocks = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Partition:
    """A set partition of {1, ..., n} in canonical block form."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground set size must be positive, got {self.n}")
        seen: set[int] = set()
        prev_min = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if any(block[t] >= block[t + 1] for t in range(len(block) - 1)):
                raise ValueError(f"block not strictly increasing: {block}")
            if block[0] <= prev_min:
                raise ValueError("blocks not ordered by least element")
            prev_min = block[0]
            seen.update(block)
        if seen != set(range(1, self.n + 1)) or sum(map(len, self.blocks)) != self.n:
            raise ValueError(f"blocks do not partition 1..{self.n}: {self.blocks}")

    @classmethod
    def of(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Build a partition from blocks in any order, canonicalizing them."""
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        return cls(n, canon)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple((k,) for k in range(1, n + 1)))

    @classmethod
    def whole(cls, n: int) -> "Partition":
        return cls(n, (tuple(range(1, n + 1)),))

    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, k: int) -> tuple[int, ...]:
        for block in self.blocks:
            if k in block:
                return block
        raise ValueError(f"{k} not in ground set 1..{self.n}")

    def __str__(self) -> str:
        return "".join("{" + ",".join(str(e) for e in b) + "}" for b in self.blocks)


def _zero_based(p: Partition) -> Blocks:
    return tuple(tuple(e - 1 for e in b) for b in p.blocks)


def _one_based(n: int, blocks: Blocks) -> Partition:
    return Partition(n, tuple(tuple(e + 1 for e in b) for b in blocks))


def _complement(blocks: Blocks, n: int) -> Blocks:
    """Canonical blocks of the cycles of perm(pi)^-1 o gamma, all 0-based."""
    pred = [0] * n  # perm(pi)^-1
    for b in blocks:
        for prev, e in zip(b[-1:] + b[:-1], b):
            pred[e] = prev
    seen = [False] * n
    out = []
    for start in range(n):
        orbit = []
        k = start
        while not seen[k]:
            seen[k] = True
            orbit.append(k)
            k = pred[(k + 1) % n]
        if orbit:
            out.append(tuple(sorted(orbit)))
    return tuple(out)


def is_noncrossing(p: Partition) -> bool:
    """True when no two blocks of p interleave."""
    return len(p.blocks) + len(_complement(_zero_based(p), p.n)) == p.n + 1


@lru_cache(maxsize=DEFAULT_MAX_GROUND_SET)
def nc_pairs(n: int) -> tuple[tuple[Blocks, Blocks], ...]:
    """Each pi in NC(n) with its Kreweras complement, 0-based, lexicographic in pi.

    Stack insertion: element e opens a block or joins an open one, which
    closes every block opened after it; each pi in NC(n) arises once.
    """
    if not 1 <= n <= DEFAULT_MAX_GROUND_SET:
        raise ValueError(f"n must be in 1..{DEFAULT_MAX_GROUND_SET}, got {n}")
    level: list[tuple[Blocks, tuple[int, ...]]] = [((), ())]
    for e in range(n):
        grown = []
        for blocks, open_ in level:
            grown.append((blocks + ((e,),), open_ + (len(blocks),)))
            for t, i in enumerate(open_):
                joined = blocks[:i] + (blocks[i] + (e,),) + blocks[i + 1 :]
                grown.append((joined, open_[: t + 1]))
        level = grown
    pairs = []
    for blocks in sorted(blocks for blocks, _ in level):
        co = _complement(blocks, n)
        if len(co) + len(_complement(co, n)) != n + 1:
            raise RuntimeError(f"Kreweras complement of {blocks} is crossing: {co}")
        pairs.append((blocks, co))
    return tuple(pairs)


def enumerate_nc(n: int) -> tuple[Partition, ...]:
    """All non-crossing partitions of {1..n}, lexicographic on canonical form."""
    return tuple(_one_based(n, blocks) for blocks, _ in nc_pairs(n))


def kreweras(p: Partition) -> Partition:
    """Kreweras complement: perm(p) composed with perm(result) is the forward cycle."""
    co = _complement(_zero_based(p), p.n)
    if len(p.blocks) + len(co) != p.n + 1:
        raise ValueError(f"partition is crossing: {p}")
    q = _one_based(p.n, co)
    if not is_noncrossing(q):
        raise RuntimeError(f"Kreweras complement of {p} is crossing: {q}")
    return q
