"""Shared corpus builders, seeded generators, and slow reference computations."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Iterator, Sequence

from hypothesis import strategies as st

from ncfree.freeprob import CumulantModel, NcPolynomial, _scaled_cumulant, phi_poly
from ncfree.ncpartition import Partition, enumerate_nc, is_noncrossing, kreweras
from ncfree.opvalued import OperatorMatrix, ScalarMatrix, _inner_monomials, expect_b, expect_d
from ncfree.oracle import nc_by_filter
from ncfree.rcyclic import MatrixFamily, RCyclicFamily, _entries, _is_cyclic, entry_letter
from ncfree.series import Series

Word = tuple[int, ...]
TableKey = tuple[Word, Word]

_ZERO = Fraction(0)
_ONE = Fraction(1)

VALUES = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(-2, 3),
]


def random_series(rng: random.Random, alphabet: int, order: int, per_length: int = 3) -> Series:
    coeffs = {}
    for n in range(1, order + 1):
        for _ in range(rng.randint(1, per_length)):
            w = tuple(rng.randint(1, alphabet) for _ in range(n))
            coeffs[w] = rng.choice(VALUES)
    return Series.of(alphabet, order, coeffs)


def random_invertible_series(rng: random.Random, alphabet: int, order: int) -> Series:
    coeffs = dict(random_series(rng, alphabet, order).coeffs)
    for r in range(1, alphabet + 1):
        coeffs[(r,)] = rng.choice(VALUES)
    return Series.of(alphabet, order, coeffs)


def random_model(
    rng: random.Random, generators: int, order: int, per_length: int = 2
) -> CumulantModel:
    table = {}
    for n in range(1, order + 1):
        for _ in range(rng.randint(1, per_length)):
            w = tuple(rng.randint(1, generators) for _ in range(n))
            table[w] = rng.choice(VALUES)
    return CumulantModel.of(generators, order, table)


def random_cyclic_table(
    rng: random.Random, d: int, s: int, order: int, per_length: int = 2
) -> RCyclicFamily:
    table = {}
    for n in range(1, order + 1):
        for _ in range(rng.randint(1, per_length)):
            rw = tuple(rng.randint(1, s) for _ in range(n))
            iw = tuple(rng.randint(1, d) for _ in range(n))
            table[(rw, iw)] = rng.choice(VALUES)
    return RCyclicFamily.of(d, s, order, table)


def model_from_cyclic_table(fam: RCyclicFamily) -> tuple[CumulantModel, MatrixFamily]:
    """Entry-generator model whose only nonzero cumulants realize the cyclic table."""
    d, s = fam.d, fam.s
    table = {}
    for (rw, iw), v in fam.table.items():
        n = len(rw)
        word = tuple(
            entry_letter(rw[t], iw[t - 1] if t else iw[n - 1], iw[t], d) for t in range(n)
        )
        table[word] = v
    model = CumulantModel.of(s * d * d, fam.order, table)
    return model, MatrixFamily.from_generator_entries(d, s, model)


# -- fixed corpus families, all built over 2x2 entry generators --------------


def circular_2x2(order: int = 6) -> MatrixFamily:
    """Zero diagonal, one circular pair offdiagonal: a12, a21 with k2 = 1 both ways."""
    model = CumulantModel.of(4, order, {(2, 3): 1, (3, 2): 1})
    return MatrixFamily.from_generator_entries(2, 1, model)


def diagonal_free_2x2(order: int = 6) -> MatrixFamily:
    """diag(a, b) with a, b free standard semicirculars; offdiagonal entries zero."""
    model = CumulantModel.of(4, order, {(1, 1): 1, (4, 4): 1})
    grid = (
        (NcPolynomial.generator(1), NcPolynomial.zero()),
        (NcPolynomial.zero(), NcPolynomial.generator(4)),
    )
    return MatrixFamily.of(2, 1, model, (grid,))


MIXED_TABLE = {(1, 1): 1, (4, 4): 1, (2, 3): 1, (3, 2): 1}


def mixed_2x2(order: int = 6) -> MatrixFamily:
    """Free semicircular diagonal plus a circular offdiagonal pair, radius 2 throughout."""
    model = CumulantModel.of(4, order, MIXED_TABLE)
    return MatrixFamily.from_generator_entries(2, 1, model)


def two_free_mixed_2x2(order: int = 6) -> MatrixFamily:
    """Two matrices with mixed_2x2 entry structure and no cumulants across them."""
    table = {}
    for base in (0, 4):
        for (a, b), v in MIXED_TABLE.items():
            table[(base + a, base + b)] = v
    model = CumulantModel.of(8, order, table)
    return MatrixFamily.from_generator_entries(2, 2, model)


def first_moment_family(order: int = 4) -> MatrixFamily:
    """Single nonzero first moment in the offdiagonal entry a12; not R-cyclic."""
    model = CumulantModel.of(4, order, {(2,): 1})
    return MatrixFamily.from_generator_entries(2, 1, model)


def detached_diagonal_family(order: int = 4) -> MatrixFamily:
    """k2(a11, a22) = 1 links the two diagonal entries; not R-cyclic, yet every
    index chain broken at the far end still vanishes."""
    model = CumulantModel.of(4, order, {(1, 4): 1})
    return MatrixFamily.from_generator_entries(2, 1, model)


def constant_table_family(
    d: int, s: int, order: int, alpha: dict[tuple[int, ...], Fraction]
) -> RCyclicFamily:
    """Cyclic table constant across index words: value alpha[rword] for every iword."""
    table = {}
    for rw, v in alpha.items():
        for iw in itertools.product(range(1, d + 1), repeat=len(rw)):
            table[(tuple(rw), iw)] = v
    return RCyclicFamily.of(d, s, order, table)


# -- slow reference cumulant of arbitrary polynomial arguments ----------------


def cumulant_of_elements(model: CumulantModel, polys) -> Fraction:
    """Joint cumulant by the defining recursion: the full expectation minus the
    contributions of every coarser non-crossing splitting."""

    memo: dict[tuple[NcPolynomial, ...], Fraction] = {}

    def k(args: tuple[NcPolynomial, ...]) -> Fraction:
        if args in memo:
            return memo[args]
        prod = args[0]
        for p in args[1:]:
            prod = prod * p
        acc = phi_poly(model, prod)
        for part in nc_by_filter(len(args)):
            if part.block_count() == 1:
                continue
            term = Fraction(1)
            for block in part.blocks:
                term *= k(tuple(args[e - 1] for e in block))
                if not term:
                    break
            acc -= term
        memo[args] = acc
        return acc

    return k(tuple(polys))


# -- partition-based operator-valued cumulants ---------------------------------
# The library expands the operator-valued moment-cumulant relation by its
# first block; these sum partitioned cumulants over every pi in NC(n), each
# evaluated by interval-block extraction, exactly as the library once did.


def _expect(x: OperatorMatrix, algebra: str) -> ScalarMatrix:
    if algebra == "B":
        return expect_b(x)
    if algebra == "D":
        return expect_d(x)
    raise ValueError(f"algebra must be 'B' or 'D', got {algebra!r}")


def _restrict(p: Partition, keep: Sequence[int]) -> Partition:
    # restriction of p to the elements of keep, relabeled to 1..len(keep)
    keep_sorted = sorted(keep)
    pos = {e: t + 1 for t, e in enumerate(keep_sorted)}
    blocks = []
    for block in p.blocks:
        proj = tuple(pos[e] for e in block if e in pos)
        if proj:
            blocks.append(proj)
    return Partition.of(len(keep_sorted), blocks)


def recursive_opvalued_cumulant(xs: Sequence[OperatorMatrix], algebra: str) -> ScalarMatrix:
    """Full cumulant by the defining recursion: expectation of the product
    minus the partitioned cumulants of all coarser non-crossing partitions."""
    xs = list(xs)
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one argument")
    prod = reduce(lambda a, b: a.mul(b), xs)
    acc = _expect(prod, algebra)
    if n == 1:
        return acc
    for p in enumerate_nc(n):
        if p.block_count() == 1:
            continue
        acc = acc - opvalued_cumulant_pi(p, xs, algebra)
    return acc


def recursive_dcumulant_data(mats: Sequence[OperatorMatrix], order: int) -> dict:
    """Diagonal cumulant data by the defining recursion: for each matrix word
    and index word, the first n-1 arguments cut down by the matching diagonal
    units, and the (i_n, i_n) entry of their diagonal cumulant."""
    d = mats[0].d
    punits = [ScalarMatrix.unit(d, i, i) for i in range(1, d + 1)]
    data = {}
    for n in range(1, order + 1):
        for rword in itertools.product(range(1, len(mats) + 1), repeat=n):
            for prefix in itertools.product(range(1, d + 1), repeat=n - 1):
                args = [mats[r - 1].mul_scalar_right(punits[i - 1]) for r, i in zip(rword, prefix)]
                km = recursive_opvalued_cumulant(args + [mats[rword[-1] - 1]], "D")
                for i in range(1, d + 1):
                    if km.entry(i, i):
                        data[(rword, prefix + (i,))] = km.entry(i, i)
    return data


def opvalued_cumulant_pi(
    p: Partition, xs: Sequence[OperatorMatrix], algebra: str, extract: str = "leftmost"
) -> ScalarMatrix:
    """Partitioned cumulant via interval-block extraction.

    The chosen interval block's full cumulant is a scalar matrix; it is
    multiplied on the right of the preceding argument, or on the left of the
    following one when the block starts the word, and the reduced partition
    is evaluated recursively.  The extraction side (leftmost or rightmost
    interval block) must not change the value.
    """
    xs = list(xs)
    if p.n != len(xs):
        raise ValueError(f"partition of {p.n} with {len(xs)} arguments")
    if p.block_count() == 1:
        return recursive_opvalued_cumulant(xs, algebra)
    intervals = [b for b in p.blocks if b[-1] - b[0] + 1 == len(b)]
    if not intervals:
        raise ValueError(f"no interval block; partition is crossing: {p}")
    block = intervals[0] if extract == "leftmost" else intervals[-1]
    a, b = block[0], block[-1]
    inner = recursive_opvalued_cumulant(xs[a - 1 : b], algebra)
    keep = [t for t in range(1, p.n + 1) if t < a or t > b]
    reduced = _restrict(p, keep)
    if a >= 2:
        new_xs = xs[: a - 2] + [xs[a - 2].mul_scalar_right(inner)] + xs[b:]
    else:
        new_xs = [mul_scalar_left(xs[b], inner)] + xs[b + 1 :]
    return opvalued_cumulant_pi(reduced, new_xs, algebra, extract)


def bvalued_cumulant_pi(p: Partition, mats: Sequence[OperatorMatrix]) -> ScalarMatrix:
    """Partitioned analogue of the entrywise formula: each chain contributes
    the product over the blocks of the scalar cumulants of its subchains."""
    mats = list(mats)
    n = len(mats)
    if p.n != n:
        raise ValueError(f"partition of {p.n} with {n} arguments")
    d = mats[0].d
    model = mats[0].model
    parsed = _parsed_matrices(mats)
    rows = []
    for i in range(1, d + 1):
        row = []
        for j in range(1, d + 1):
            acc = _ZERO
            for inner in itertools.product(range(1, d + 1), repeat=n - 1):
                chain = (i,) + inner + (j,)
                term = _ONE
                for block in p.blocks:
                    val = _chain_value(
                        [parsed[t - 1] for t in block],
                        model,
                        [(chain[t - 1], chain[t]) for t in block],
                    )
                    if not val:
                        term = _ZERO
                        break
                    term *= val
                acc += term
            row.append(acc)
        rows.append(tuple(row))
    return ScalarMatrix(d, tuple(rows))


def dense_dvalued_cumulant(
    mats: Sequence[OperatorMatrix], lambdas: Sequence[ScalarMatrix]
) -> ScalarMatrix:
    """The weighted chain formula over every closing index word: the (i, i)
    entry sums, over the chains from i back to i, the chain cumulant times
    the weights at the inner indices."""
    n = len(mats)
    d = mats[0].d
    model = mats[0].model
    parsed = _parsed_matrices(mats)
    diag = [_ZERO] * d
    for iword in itertools.product(range(1, d + 1), repeat=n):
        chain = (iword[-1],) + iword
        val = _chain_value(parsed, model, [(chain[t], chain[t + 1]) for t in range(n)])
        for t in range(n - 1):
            val *= lambdas[t].entry(iword[t], iword[t])
        diag[iword[-1] - 1] += val
    return ScalarMatrix.diagonal(diag)


# -- permutations, generalized coefficients, the left scalar action -----------
# The library reads Kreweras complements off integer arrays, convolves on
# integer numerators and multiplies by scalars only on the right; these are
# the plain definitions, kept as references.


@dataclass(frozen=True)
class PartitionPermutation:
    """A permutation of {1, ..., n}, stored as the tuple of images of 1..n."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.n or set(self.images) != set(range(1, self.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "PartitionPermutation":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def forward_cycle(cls, n: int) -> "PartitionPermutation":
        """The cycle 1 -> 2 -> ... -> n -> 1."""
        return cls(n, tuple(range(2, n + 1)) + (1,))

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def compose(self, other: "PartitionPermutation") -> "PartitionPermutation":
        """self after other: k -> self(other(k))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return PartitionPermutation(self.n, tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> "PartitionPermutation":
        inv = [0] * self.n
        for k, img in enumerate(self.images, start=1):
            inv[img - 1] = k
        return PartitionPermutation(self.n, tuple(inv))

    def cycle_partition(self) -> Partition:
        """The partition of 1..n into the orbits of this permutation."""
        todo = set(range(1, self.n + 1))
        blocks = []
        while todo:
            start = min(todo)
            orbit = [start]
            todo.remove(start)
            k = self(start)
            while k != start:
                orbit.append(k)
                todo.remove(k)
                k = self(k)
            blocks.append(orbit)
        return Partition.of(self.n, blocks)


def perm_of(p: Partition) -> PartitionPermutation:
    """The permutation whose cycles are the blocks of p, each traversed upward."""
    if not is_noncrossing(p):
        raise ValueError(f"partition is crossing: {p}")
    images = [0] * p.n
    for block in p.blocks:
        for t, e in enumerate(block):
            images[e - 1] = block[(t + 1) % len(block)]
    return PartitionPermutation(p.n, tuple(images))


def gen_coef(f: Series, w: Iterable[int], p: Partition) -> Fraction:
    """Product of coefficients of f over the restrictions of w to the blocks of p."""
    word = tuple(w)
    if p.n != len(word):
        raise ValueError(f"partition of {p.n} applied to word of length {len(word)}")
    out = _ONE
    for block in p.blocks:
        c = f.coeffs.get(tuple(word[e - 1] for e in block))
        if not c:
            return _ZERO
        out *= c
    return out


def mul_scalar_left(x: OperatorMatrix, sm: ScalarMatrix) -> OperatorMatrix:
    """sm times x, each cell normalised once."""
    return OperatorMatrix.from_scalar(x.model, sm).mul(x)


def matrix_word_search(
    gens: Sequence[OperatorMatrix], budget: int
) -> tuple[bool, str | None]:
    """The freeness word search with every partial word a d x d matrix
    product and every unit a scalar-matrix product, as the library once ran
    it: the reference for the column-carrying search, with no size cap."""
    # depth-first search over the alternating words of
    # check_amalgamated_freeness, slot by slot, for the first word with a
    # nonzero diagonal expectation
    model = gens[0].model
    d = gens[0].d
    pool = _inner_monomials(gens, budget)
    mid_pool = [(q, lab, m) for q in range(1, budget + 1) for lab, m in pool[q]]
    unit = OperatorMatrix.identity(model, d)
    end_pool = [(0, "1", unit)] + mid_pool
    vunits = [
        (i, j, ScalarMatrix.unit(d, i, j))
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        if i != j
    ]

    def dfs(slot: int, n_slots: int, partial: OperatorMatrix | None, left: int, trail: list[str]):
        last = slot == n_slots
        options = end_pool if (slot == 1 or last) else mid_pool
        interior_after = max(0, (n_slots - 1) - slot)
        for q, lab, mat in options:
            if q > left - interior_after:
                continue
            prod = mat if partial is None else partial.mul(mat)
            if prod.is_zero():
                continue
            if last:
                if not expect_d(prod).is_zero():
                    return " ".join(trail + [lab])
                continue
            for i, j, v in vunits:
                prod2 = prod.mul_scalar_right(v)
                if prod2.is_zero():
                    continue
                hit = dfs(
                    slot + 1, n_slots, prod2, left - q, trail + [lab, f"V({i},{j})"]
                )
                if hit:
                    return hit
        return None

    for n_slots in range(2, budget + 3):
        hit = dfs(1, n_slots, None, budget, [])
        if hit:
            return False, hit
    return True, None


# -- recursive NC(n) pipeline -------------------------------------------------
# The library generates NC(n) by stack insertion and reads complements off
# integer arrays; this is the recursive first-block enumeration with a sort
# per partition and complements through permutation objects, exactly as the
# library once did.


@lru_cache(maxsize=None)
def _nc_block_sets(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # All non-crossing partitions of {1..n} as block tuples; n = 0 gives the
    # empty partition so the gap recursion below composes cleanly.
    if n == 0:
        return ((),)
    out = []
    rest = list(range(2, n + 1))
    for size in range(0, n):
        for extra in itertools.combinations(rest, size):
            first = (1,) + extra
            # the complement splits into the gaps between consecutive
            # elements of the block containing 1
            bounds = list(first) + [n + 1]
            gap_parts = []
            for t in range(len(first)):
                gap = list(range(bounds[t] + 1, bounds[t + 1]))
                gap_parts.append((gap, _nc_block_sets(len(gap))))
            for combo in itertools.product(*(parts for _, parts in gap_parts)):
                blocks = [first]
                for (gap, _), sub in zip(gap_parts, combo):
                    for b in sub:
                        blocks.append(tuple(gap[e - 1] for e in b))
                out.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    return tuple(sorted(out))


def recursive_nc_pairs(n: int):
    """(blocks, complement blocks) per pi in NC(n), 0-based, in lexicographic order."""
    out = []
    for blocks in _nc_block_sets(n):
        p = Partition(n, blocks)
        q = perm_of(p).inverse().compose(PartitionPermutation.forward_cycle(n)).cycle_partition()
        out.append(
            (
                tuple(tuple(e - 1 for e in b) for b in p.blocks),
                tuple(tuple(e - 1 for e in b) for b in q.blocks),
            )
        )
    return tuple(out)


# -- dense reference scans over every index pattern ---------------------------
# The library walks only the words of the model's cumulant table; these scan
# all s^n d^(2n) patterns, exactly as the library once did.


def _generator_form(p: NcPolynomial) -> tuple[Fraction, int] | None:
    # (coefficient, letter) of a scaled single generator, None for zero;
    # unpacking raises ValueError on anything richer
    if not p.items:
        return None
    [(word, c)] = p.items
    [letter] = word
    return c, letter


def _parsed_entries(fam: MatrixFamily):
    # (coefficient, letter) or None per entry; raises on non-generator entries
    return tuple(
        tuple(tuple(_generator_form(fam.entry(r, i, j)) for j in range(1, fam.d + 1))
              for i in range(1, fam.d + 1))
        for r in range(1, fam.s + 1)
    )


def _chain_cumulant(parsed, model, rword: Word, pairs: Sequence[tuple[int, int]]) -> Fraction:
    coeff = _ONE
    letters = []
    for r, (i, j) in zip(rword, pairs):
        ent = parsed[r - 1][i - 1][j - 1]
        if ent is None:
            return _ZERO
        c, letter = ent
        coeff *= c
        letters.append(letter)
    val = model.coeffs.get(tuple(letters), _ZERO)
    return coeff * val


def dense_is_rcyclic(
    fam: MatrixFamily, order: int | None = None
) -> tuple[bool, tuple[Word, tuple[tuple[int, int], ...]] | None]:
    """Scan every non-cyclic index pattern for a surviving cumulant.

    Returns (True, None) or (False, (matrix word, ((i_1, j_1), ...))) with the
    first violation in (length, matrix word, index pattern) order.
    """
    n_max = fam.model.order if order is None else order
    parsed = _parsed_entries(fam)
    d = fam.d
    for n in range(1, n_max + 1):
        for rword in itertools.product(range(1, fam.s + 1), repeat=n):
            for flat in itertools.product(range(1, d + 1), repeat=2 * n):
                pairs = tuple((flat[2 * t], flat[2 * t + 1]) for t in range(n))
                if all(pairs[t][1] == pairs[(t + 1) % n][0] for t in range(n)):
                    continue
                if _chain_cumulant(parsed, fam.model, rword, pairs):
                    return False, (rword, pairs)
    return True, None


def dense_cyclic_family(fam: MatrixFamily, order: int | None = None) -> RCyclicFamily:
    """Read the cyclic table off a family after confirming it is R-cyclic."""
    ok, witness = dense_is_rcyclic(fam, order)
    if not ok:
        raise ValueError(f"family is not R-cyclic; witness {witness}")
    n_max = fam.model.order if order is None else order
    parsed = _parsed_entries(fam)
    d = fam.d
    table: dict[TableKey, Fraction] = {}
    for n in range(1, n_max + 1):
        for rword in itertools.product(range(1, fam.s + 1), repeat=n):
            for iword in itertools.product(range(1, d + 1), repeat=n):
                pairs = tuple((iword[t - 1], iword[t]) for t in range(n))
                val = _chain_cumulant(parsed, fam.model, rword, pairs)
                if val:
                    table[(rword, iword)] = val
    return RCyclicFamily.of(d, fam.s, n_max, table)


def cyclic_chain_words(fam: MatrixFamily) -> list[Word]:
    """The matrix words, up to the model order, that carry a cyclic chain
    with a nonzero cumulant, by a scan of every index word."""
    parsed = _parsed_entries(fam)
    out = []
    for n in range(1, fam.model.order + 1):
        for rword in itertools.product(range(1, fam.s + 1), repeat=n):
            for iword in itertools.product(range(1, fam.d + 1), repeat=n):
                pairs = tuple((iword[t - 1], iword[t]) for t in range(n))
                if _chain_cumulant(parsed, fam.model, rword, pairs):
                    out.append(rword)
                    break
    return out


def _parsed_matrices(mats: Sequence[OperatorMatrix]):
    return [
        tuple(tuple(_generator_form(m.rows[i][j]) for j in range(m.d)) for i in range(m.d))
        for m in mats
    ]


def _chain_value(parsed_chain, model: CumulantModel, pairs: Sequence[tuple[int, int]]) -> Fraction:
    coeff = _ONE
    letters = []
    for parsed, (i, j) in zip(parsed_chain, pairs):
        ent = parsed[i - 1][j - 1]
        if ent is None:
            return _ZERO
        c, letter = ent
        coeff *= c
        letters.append(letter)
    return coeff * model.coeffs.get(tuple(letters), _ZERO)


def dense_check_chain_hypothesis(
    mats: Sequence[OperatorMatrix], order: int
) -> tuple[bool, tuple[Word, int, Word] | None]:
    """Do all almost-cyclic entry chains with a broken closing index vanish?

    Scans cumulants of chains entry(r_1; j, i_1), entry(r_2; i_1, i_2), ...,
    entry(r_n; i_{n-1}, i_n) with j != i_n, over tuples drawn from the given
    matrices.  Returns (False, (r-word, j, index word)) on the first failure.
    """
    mats = list(mats)
    d = mats[0].d
    model = mats[0].model
    distinct: list[OperatorMatrix] = []
    for m in mats:
        if m not in distinct:
            distinct.append(m)
    parsed = {id(m): grid for m, grid in zip(distinct, _parsed_matrices(distinct))}
    for n in range(1, order + 1):
        for combo in itertools.product(range(len(distinct)), repeat=n):
            chain_parsed = [parsed[id(distinct[t])] for t in combo]
            for iword in itertools.product(range(1, d + 1), repeat=n):
                for j in range(1, d + 1):
                    if j == iword[-1]:
                        continue
                    chain = (j,) + iword
                    pairs = [(chain[t], chain[t + 1]) for t in range(n)]
                    if _chain_value(chain_parsed, model, pairs):
                        rword = tuple(t + 1 for t in combo)
                        return False, (rword, j, iword)
    return True, None


# -- random generator-entry families for the differential tests ---------------

# highest model order per (d, s) that keeps the dense scan near 10^4 patterns
DENSE_MAX_ORDER = {(1, 1): 6, (1, 2): 6, (2, 1): 5, (2, 2): 4, (3, 1): 4, (3, 2): 3}


@st.composite
def scalar_generator_families(draw) -> MatrixFamily:
    """Entries zero or a scaled generator, letters possibly shared between
    entries; the table holds cumulants of cyclic chains, of chains broken only
    at the closing index, of arbitrary (injected non-cyclic) chains and of
    arbitrary letter words."""
    d = draw(st.integers(1, 3))
    s = draw(st.integers(1, 2))
    order = draw(st.integers(1, DENSE_MAX_ORDER[(d, s)]))
    cells = s * d * d
    generators = draw(st.integers(1, cells))  # fewer letters than entries share
    value = st.sampled_from(VALUES)
    entry = st.one_of(
        st.none(),
        st.tuples(st.just(_ONE), st.integers(1, generators)),
        st.tuples(value, st.integers(1, generators)),
    )
    flat = draw(st.lists(entry, min_size=cells, max_size=cells))
    grids = [
        [
            [
                NcPolynomial.zero() if e is None else NcPolynomial.generator(e[1]).scale(e[0])
                for e in flat[(r * d + i) * d : (r * d + i + 1) * d]
            ]
            for i in range(d)
        ]
        for r in range(s)
    ]
    index = st.integers(1, d)
    table = {}
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(1, order))
        rword = draw(st.lists(st.integers(1, s), min_size=n, max_size=n))
        kind = draw(st.sampled_from(["cyclic", "cyclic", "broken", "injected", "letters"]))
        if kind == "letters":
            word = tuple(draw(st.lists(st.integers(1, generators), min_size=n, max_size=n)))
        else:
            iword = draw(st.lists(index, min_size=n, max_size=n))
            if kind == "injected":
                starts = draw(st.lists(index, min_size=n, max_size=n))
            else:
                first = iword[-1] if kind == "cyclic" else draw(index)
                starts = [first] + iword[:-1]
            ents = [flat[((r - 1) * d + i - 1) * d + j - 1] for r, i, j in zip(rword, starts, iword)]
            if any(e is None for e in ents):
                continue
            word = tuple(e[1] for e in ents)
        table[word] = draw(value)
    model = CumulantModel.of(generators, order, table)
    return MatrixFamily.of(d, s, model, grids)


@st.composite
def operator_words(draw) -> list[OperatorMatrix]:
    """One to four arguments over a scalar_generator_families family, its
    model lifted to order 8 with a few more means and covariances: a matrix
    of the family, its zero, a scaled copy, a product of two of them, or one
    of them plus a scalar."""
    fam = draw(scalar_generator_families())
    short = st.lists(st.integers(1, fam.model.alphabet), min_size=1, max_size=2).map(tuple)
    table = {**fam.model.coeffs, **draw(st.dictionaries(short, mixed_values(), max_size=3))}
    model = CumulantModel.of(fam.model.alphabet, 8, table)
    d = fam.d
    mats = [
        OperatorMatrix.of(model, [[fam.entry(r, i, j) for j in range(1, d + 1)]
                                  for i in range(1, d + 1)])
        for r in range(1, fam.s + 1)
    ]
    matrix = st.sampled_from(mats)
    args = []
    for _ in range(draw(st.sampled_from([1, 2, 3, 4]))):
        x = draw(matrix)
        kind = draw(st.sampled_from(["matrix"] * 3 + ["zero", "scaled", "product", "shift"]))
        if kind == "zero":
            x = x.sub(x)
        elif kind == "scaled":
            x = x.mul_scalar_right(ScalarMatrix.identity(d).scale(draw(mixed_values())))
        elif kind == "product":
            x = x.mul(draw(matrix))
        elif kind == "shift":
            c = ScalarMatrix.identity(d).scale(draw(mixed_values()))
            x = x.add(OperatorMatrix.from_scalar(model, c))
        args.append(x)
    return args


# -- term-by-term Fraction references for the integer kernels -----------------
# The library sums integer numerators over a common denominator and makes one
# Fraction per output; these add one Fraction per term, as the definitions read.

# coprime and mixed denominators, negative values
MIXED_VALUES = [
    Fraction(1, 3),
    Fraction(2, 7),
    Fraction(-5, 6),
    Fraction(-1),
    Fraction(3),
    Fraction(-4, 9),
    Fraction(7, 10),
]


def slow_boxed_convolve(f: Series, g: Series, d: int | None = None) -> Series:
    """Sum over every word and every pi of gen_coef(f, w, pi) * gen_coef(g, w', K(pi)),
    where w' is w, or its i-components when f lives on pair letters over d."""
    out = {}
    for n in range(1, f.order + 1):
        for w in itertools.product(range(1, f.alphabet + 1), repeat=n):
            gw = w if d is None else tuple((x - 1) % d + 1 for x in w)
            acc = _ZERO
            for p in enumerate_nc(n):
                acc += gen_coef(f, w, p) * gen_coef(g, gw, kreweras(p))
            out[w] = acc
    return Series.of(f.alphabet, f.order, out)


def slow_phi_word(model: CumulantModel, word: Word) -> Fraction:
    if not word:
        return _ONE
    if len(word) > model.order:
        raise ValueError(f"word of length {len(word)} exceeds model order {model.order}")
    acc = _ZERO
    for p in enumerate_nc(len(word)):
        term = _ONE
        for block in p.blocks:
            term *= model.coeffs.get(tuple(word[e - 1] for e in block), _ZERO)
        acc += term
    return acc


def slow_phi_poly(model: CumulantModel, p: NcPolynomial) -> Fraction:
    acc = _ZERO
    for w, v in p.items:
        acc += v * slow_phi_word(model, w)
    return acc


def slow_moment_series(
    model: CumulantModel, elements: Sequence[NcPolynomial], order: int | None = None
) -> Series:
    """The walk over (r_1..r_n) carrying each product as an NcPolynomial built
    with Fraction coefficients, states from slow_phi_poly."""
    n_max = model.order if order is None else order
    s = len(elements)
    if s < 1:
        raise ValueError("need at least one element")
    out: dict[Word, Fraction] = {}

    def walk(word: Word, prod: NcPolynomial) -> None:
        val = slow_phi_poly(model, prod)
        if val:
            out[word] = val
        if len(word) < n_max:
            for r in range(1, s + 1):
                walk(word + (r,), prod * elements[r - 1])

    for r in range(1, s + 1):
        walk((r,), elements[r - 1])
    return Series.of(s, n_max, out)


def cellwise_mul(x: OperatorMatrix, y: OperatorMatrix) -> OperatorMatrix:
    """Each cell a polynomial sum of one-term products."""
    d = x.d
    rows = [[NcPolynomial.zero()] * d for _ in range(d)]
    for a, b, k in itertools.product(range(d), repeat=3):
        for w1, v1 in x.rows[a][k].items:
            for w2, v2 in y.rows[k][b].items:
                rows[a][b] = rows[a][b] + NcPolynomial.of({w1 + w2: v1 * v2})
    return OperatorMatrix.of(x.model, rows)


def cellwise_mul_scalar_right(x: OperatorMatrix, sm: ScalarMatrix) -> OperatorMatrix:
    d = x.d
    rows = [
        [
            sum((x.rows[a][k].scale(sm.rows[k][b]) for k in range(d)), NcPolynomial.zero())
            for b in range(d)
        ]
        for a in range(d)
    ]
    return OperatorMatrix.of(x.model, rows)


def cellwise_mul_scalar_left(x: OperatorMatrix, sm: ScalarMatrix) -> OperatorMatrix:
    d = x.d
    rows = [
        [
            sum((x.rows[k][b].scale(sm.rows[a][k]) for k in range(d)), NcPolynomial.zero())
            for b in range(d)
        ]
        for a in range(d)
    ]
    return OperatorMatrix.of(x.model, rows)


def fraction_closure_check(fam: MatrixFamily, new_grid, budget: int):
    """closure_check with Fraction cumulants by the recursion, states from
    slow_phi_poly; same pattern order, so the same verdict and witness."""
    model = fam.model
    d = fam.d
    elems, tags = [], []
    for r in range(1, fam.s + 1):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                elems.append(fam.entry(r, i, j))
                tags.append((r, i, j))
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            elems.append(new_grid[i - 1][j - 1])
            tags.append((fam.s + 1, i, j))
    degs = [e.degree() for e in elems]
    memo: dict[tuple[int, ...], Fraction] = {}

    def k(idx: tuple[int, ...]) -> Fraction:
        if idx in memo:
            return memo[idx]
        prod = elems[idx[0]]
        for t in idx[1:]:
            prod = prod * elems[t]
        acc = slow_phi_poly(model, prod)
        for p in enumerate_nc(len(idx)):
            if p.block_count() == 1:
                continue
            term = _ONE
            for block in p.blocks:
                term *= k(tuple(idx[e - 1] for e in block))
            acc -= term
        memo[idx] = acc
        return acc

    for n in range(1, budget + 1):
        for idx in itertools.product(range(len(elems)), repeat=n):
            if sum(degs[t] for t in idx) > budget:
                continue
            pairs = tuple(tags[t][1:] for t in idx)
            if all(pairs[t][1] == pairs[(t + 1) % n][0] for t in range(n)):
                continue
            if k(idx):
                return False, (tuple(tags[t][0] for t in idx), pairs)
    return True, None


def _degree_bounded(
    degs: Sequence[int], n: int, budget: int, head: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    # index tuples of length n with total degree at most budget, in
    # itertools.product order; a branch stops as soon as its partial degree
    # passes the budget
    if len(head) == n:
        yield head
        return
    for t, deg in enumerate(degs):
        if deg <= budget:
            yield from _degree_bounded(degs, n, budget - deg, head + (t,))


def enumerated_closure_check(fam: MatrixFamily, new_grid, budget: int):
    """closure_check by plain enumeration: every index tuple of total degree
    at most the budget, by length and then in itertools.product order, each
    non-cyclic one inverted or read off the table by the library's integer
    first-block inversion; same verdict and witness."""
    ents = _entries(fam.model, (*fam.grids, new_grid))
    memo: dict[tuple[int, ...], int] = {}
    for n in range(1, budget + 1):
        for idx in _degree_bounded(ents.degs, n, budget):
            pairs = tuple(ents.tags[t][1:] for t in idx)
            if _is_cyclic(pairs):
                continue
            if _scaled_cumulant(idx, memo, ents.moment, ents.table_value):
                return False, (tuple(ents.tags[t][0] for t in idx), pairs)
    return True, None


def mixed_values():
    return st.sampled_from(MIXED_VALUES)


# highest order per alphabet size that keeps the term-by-term reference near
# 10^3 words
SLOW_MAX_ORDER = {1: 6, 2: 5, 3: 4, 4: 3, 6: 3}


@st.composite
def rational_series(draw, alphabet: int, order: int, invertible: bool = False) -> Series:
    """Sparse (a few words of each length) or dense (every word) with
    mixed-denominator values; with invertible, every degree-1 coefficient is
    nonzero."""
    coeffs = {}
    dense = draw(st.booleans())
    for n in range(1, order + 1):
        if dense:
            pool = list(itertools.product(range(1, alphabet + 1), repeat=n))
        else:
            words = st.lists(st.integers(1, alphabet), min_size=n, max_size=n).map(tuple)
            pool = draw(st.lists(words, max_size=3))
        for w in pool:
            coeffs[w] = draw(mixed_values())
    if invertible:
        for r in range(1, alphabet + 1):
            coeffs[(r,)] = draw(mixed_values())
    return Series.of(alphabet, order, coeffs)


@st.composite
def sparse_polynomials(draw, generators: int, degree: int) -> NcPolynomial:
    """Zero, a constant, or a few monomials of degree <= degree."""
    words = st.lists(st.integers(1, generators), max_size=degree).map(tuple)
    terms = draw(st.dictionaries(words, mixed_values(), max_size=3))
    return NcPolynomial.of(terms)


@st.composite
def sparse_models(draw, generators: int, order: int) -> CumulantModel:
    words = st.lists(st.integers(1, generators), min_size=1, max_size=order).map(tuple)
    table = draw(st.dictionaries(words, mixed_values(), max_size=6))
    return CumulantModel.of(generators, order, table)


@st.composite
def prefix_sharing_models(draw, generators: int, order: int) -> CumulantModel:
    """Tables whose words share prefixes (a drawn word with some of its
    prefixes and one-letter extensions), and, for two or more generators,
    non-tracial pairs: (1, 2) and (2, 1) with different values."""
    word = st.lists(st.integers(1, generators), min_size=1, max_size=order).map(tuple)
    table = {}
    for base in draw(st.lists(word, max_size=3)):
        for k in range(1, len(base) + 1):
            if k == len(base) or draw(st.booleans()):
                table[base[:k]] = draw(mixed_values())
        if len(base) < order and draw(st.booleans()):
            table[base + (draw(st.integers(1, generators)),)] = draw(mixed_values())
    if generators >= 2 and order >= 2 and draw(st.booleans()):
        v12 = draw(mixed_values())
        table[(1, 2)] = v12
        table[(2, 1)] = draw(mixed_values().filter(lambda v: v != v12))
    return CumulantModel.of(generators, order, table)


@st.composite
def nested_words(draw, model: CumulantModel, max_len: int) -> Word:
    """A word of a drawn length from max_len // 2 to max_len, grown by
    inserting table words (or single letters) at drawn positions, so first
    blocks meet empty gaps at the start, in the middle and at the end as well
    as filled ones."""
    target = draw(st.integers(max_len // 2, max_len))
    pool = [w for w, _ in model.items] + [(g,) for g in range(1, model.alphabet + 1)]
    word: Word = ()
    while len(word) < target:
        piece = draw(st.sampled_from([p for p in pool if len(word) + len(p) <= target]))
        at = draw(st.integers(0, len(word)))
        word = word[:at] + piece + word[at:]
    return word


@st.composite
def moment_elements(draw, generators: int):
    """One to three elements of degree <= 2: random sparse, zero, constant,
    or the pair c + x, c - x, whose products cancel the words of x."""
    elems = []
    while not elems or (len(elems) < 3 and draw(st.booleans())):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "constant", "cancelling"]))
        if kind == "zero":
            elems.append(NcPolynomial.zero())
        elif kind == "constant":
            elems.append(NcPolynomial.unit().scale(draw(mixed_values())))
        elif kind == "cancelling" and len(elems) < 2:
            c = NcPolynomial.unit().scale(draw(mixed_values()))
            x = draw(sparse_polynomials(generators, 2))
            elems += [c + x, c - x]
        else:
            elems.append(draw(sparse_polynomials(generators, 2)))
    return elems


@st.composite
def closure_cases(draw, max_budget: dict[tuple[int, int], int], polynomial_family: bool = False):
    """(family, new grid, budget): a family whose entries are their own
    generators, or those generators scaled or zeroed, whose table holds
    cyclic chains and perhaps one injected non-cyclic word, and a new matrix
    that is A Lam A' + Shift in the family's matrices (closed), sparse
    polynomials in the entries, or zero and scaled single generators.  With
    polynomial_family, some family entries may then become sparse
    polynomials of degree at most 2."""
    d = draw(st.integers(1, 3))
    s = draw(st.integers(1, 2))
    budget = draw(st.integers(1, max_budget[(d, s)]))
    index = st.integers(1, d)
    table = {}
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, budget))
        rword = draw(st.lists(st.integers(1, s), min_size=n, max_size=n))
        iword = draw(st.lists(index, min_size=n, max_size=n))
        word = tuple(entry_letter(rword[t], iword[t - 1], iword[t], d) for t in range(n))
        table[word] = draw(mixed_values())
    if draw(st.booleans()):
        # means on the whole diagonal: all-singleton terms of every order
        for r in range(1, s + 1):
            for i in range(1, d + 1):
                table[(entry_letter(r, i, i, d),)] = draw(mixed_values())
    if draw(st.booleans()):
        n = draw(st.integers(1, budget))
        table[tuple(draw(st.lists(st.integers(1, s * d * d), min_size=n, max_size=n)))] = (
            draw(mixed_values())
        )
    model = CumulantModel.of(s * d * d, budget, table)
    fam = MatrixFamily.from_generator_entries(d, s, model)
    scales = st.sampled_from([0, 1]) | mixed_values()
    if draw(st.booleans()):
        # entry (r, i, j) keeps its letter, scaled or zeroed
        fam = MatrixFamily.of(d, s, model, [
            [[fam.entry(r, i, j).scale(draw(scales)) for j in range(1, d + 1)]
             for i in range(1, d + 1)]
            for r in range(1, s + 1)
        ])
    if polynomial_family and draw(st.booleans()):
        poly = sparse_polynomials(s * d * d, 2)
        fam = MatrixFamily.of(d, s, model, [
            [[draw(poly) if draw(st.booleans()) else fam.entry(r, i, j) for j in range(1, d + 1)]
             for i in range(1, d + 1)]
            for r in range(1, s + 1)
        ])
    kind = draw(st.sampled_from(["closed", "sparse", "generators"]))
    if kind == "closed":
        a = draw(st.integers(1, s))
        b = draw(st.integers(1, s))
        # integral weights leave the table's denominators uncovered
        weight = draw(st.sampled_from([mixed_values(), st.integers(-2, 3)]))
        lam = draw(st.lists(weight, min_size=d, max_size=d))
        shift = draw(st.lists(weight, min_size=d, max_size=d))
        new_grid = [
            [
                sum(
                    ((fam.entry(a, i, k) * fam.entry(b, k, j)).scale(lam[k - 1])
                     for k in range(1, d + 1)),
                    NcPolynomial.zero(),
                )
                + (NcPolynomial.unit().scale(shift[i - 1]) if i == j else NcPolynomial.zero())
                for j in range(1, d + 1)
            ]
            for i in range(1, d + 1)
        ]
    else:
        cell = sparse_polynomials(s * d * d, 2) if kind == "sparse" else st.builds(
            lambda c, g: NcPolynomial.generator(g).scale(c), scales, st.integers(1, s * d * d)
        )
        new_grid = [[draw(cell) for _ in range(d)] for _ in range(d)]
    return fam, new_grid, budget
