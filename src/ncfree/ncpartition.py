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
perm(pi)^-1 o gamma, which `_complement` walks off an integer array.  For a
non-crossing pi those cycles are perm(K(pi)), so each runs upward from its
least element and the walk returns canonical blocks without sorting.  pi is
non-crossing iff |pi| + |perm(pi)^-1 o gamma| = n + 1 in cycle counts
(Biane), and that count does not depend on the order within a block.
`nc_pairs` checks its complements once per n, as a bijection: each lies in
the NC(n) it generated and no two are equal.  A non-canonical block is not
in NC(n), so that check would catch a walk that returned one, but only in
the tables `nc_pairs` builds (n <= DEFAULT_MAX_GROUND_SET); `kreweras` takes
the walk's blocks as they come.

Blocks made here are canonical by construction, so the partitions that
`enumerate_nc` and `kreweras` return skip the validation that `Partition(...)`
and `Partition.of` run on outside blocks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from ._frozen import frozen

DEFAULT_MAX_GROUND_SET = 12
Blocks = tuple[tuple[int, ...], ...]


@frozen
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
    return tuple([tuple([e - 1 for e in b]) for b in p.blocks])


def _one_based(n: int, blocks: Blocks) -> Partition:
    # blocks are canonical 0-based blocks made in this module: no validation
    p = object.__new__(Partition)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "blocks", tuple([tuple([e + 1 for e in b]) for b in blocks]))
    return p


def _complement(blocks: Blocks, n: int) -> Blocks:
    """Blocks of the cycles of perm(pi)^-1 o gamma, all 0-based.

    Each walk starts at the least element not yet seen, so it starts at the
    least element of its cycle.  For a non-crossing pi the cycles are those
    of perm(K(pi)), which run upward, so the blocks come out canonical with
    no sort.  For a crossing pi the blocks may not be increasing, but callers
    read only their number.  Were a walk to return a non-canonical block for
    a non-crossing pi, that complement would not be among the partitions
    `nc_pairs` generates, and its bijection check would raise; that check
    covers only the NC(n) tables `nc_pairs` builds, not `kreweras`.
    """
    pred = [0] * n  # perm(pi)^-1
    for b in blocks:
        prev = b[-1]
        for e in b:
            pred[e] = prev
            prev = e
    sigma = pred[1:] + pred[:1]  # perm(pi)^-1 o gamma: k -> pred[(k + 1) mod n]
    out = []
    for start in range(n):
        k = sigma[start]
        if k < 0:  # seen: a walked element's sigma is set to -1
            continue
        sigma[start] = -1
        orbit = [start]
        while k != start:
            orbit.append(k)
            sigma[k], k = -1, sigma[k]
        out.append(tuple(orbit))
    return tuple(out)


def _is_noncrossing(blocks: Blocks, n: int) -> bool:
    return len(blocks) + len(_complement(blocks, n)) == n + 1


def is_noncrossing(p: Partition) -> bool:
    """True when no two blocks of p interleave."""
    return _is_noncrossing(_zero_based(p), p.n)


@lru_cache(maxsize=DEFAULT_MAX_GROUND_SET)
def nc_pairs(n: int) -> tuple[tuple[Blocks, Blocks], ...]:
    """Each pi in NC(n) with its Kreweras complement, 0-based, lexicographic in pi.

    Stack insertion: element e opens a block or joins an open one, which
    closes every block opened after it; each pi in NC(n) arises once.  The
    complements are checked as a whole: every one is in NC(n) and no two are
    equal, so pi -> K(pi) is a bijection of NC(n).
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
    parts = sorted(b for b, _ in level)
    cos = [_complement(b, n) for b in parts]
    pairs = tuple(zip(parts, cos))
    members = set(parts)
    owner: dict[Blocks, Blocks] = {}
    for blocks, co in pairs:
        if co not in members:
            raise RuntimeError(f"Kreweras complement of {blocks} is crossing: {co}")
        if co in owner:
            raise RuntimeError(
                f"Kreweras complement of {blocks} repeats that of {owner[co]}: {co}"
            )
        owner[co] = blocks
    return pairs


def enumerate_nc(n: int) -> tuple[Partition, ...]:
    """All non-crossing partitions of {1..n}, lexicographic on canonical form."""
    return tuple(_one_based(n, blocks) for blocks, _ in nc_pairs(n))


def kreweras(p: Partition) -> Partition:
    """Kreweras complement: perm(p) composed with perm(result) is the forward cycle."""
    co = _complement(_zero_based(p), p.n)
    if len(p.blocks) + len(co) != p.n + 1:
        raise ValueError(f"partition is crossing: {p}")
    q = _one_based(p.n, co)
    if not _is_noncrossing(co, p.n):
        raise RuntimeError(f"Kreweras complement of {p} is crossing: {q}")
    return q
