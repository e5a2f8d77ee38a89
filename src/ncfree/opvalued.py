"""Matrix-valued expectations and cumulants over the scalar matrices and
their diagonal subalgebra.

For matrices with entries in a cumulant model, the entrywise state is a
conditional expectation onto the scalar d x d matrices (algebra "B"); keeping
only the diagonal gives the expectation onto diagonal scalar matrices
(algebra "D").  Partitioned cumulants are evaluated by repeatedly extracting
an interval block, taking its cumulant, and multiplying the resulting scalar
matrix into the neighbouring argument (on the left of the following argument
when the block starts the word).

The module also hosts the amalgamated-freeness word check and the
reconstruction of a cyclic table from diagonal-valued cumulant data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .freeprob import CumulantModel, NcPolynomial, phi_poly
from .ncpartition import Partition, enumerate_nc, restrict
from .rcyclic import _chain_letters, _chain_value, _nonzero_chains, _parsed_grids

Word = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ScalarMatrix:
    """d x d matrix of rationals."""

    d: int
    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def of(cls, rows: Sequence[Sequence[Fraction | int]]) -> "ScalarMatrix":
        packed = tuple(tuple(Fraction(v) for v in row) for row in rows)
        d = len(packed)
        if any(len(row) != d for row in packed):
            raise ValueError("matrix must be square")
        return cls(d, packed)

    @classmethod
    def zero(cls, d: int) -> "ScalarMatrix":
        return cls(d, tuple((_ZERO,) * d for _ in range(d)))

    @classmethod
    def identity(cls, d: int) -> "ScalarMatrix":
        return cls(d, tuple(tuple(_ONE if i == j else _ZERO for j in range(d)) for i in range(d)))

    @classmethod
    def unit(cls, d: int, i: int, j: int) -> "ScalarMatrix":
        return cls(
            d,
            tuple(
                tuple(_ONE if (a, b) == (i - 1, j - 1) else _ZERO for b in range(d))
                for a in range(d)
            ),
        )

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int]) -> "ScalarMatrix":
        vals = [Fraction(v) for v in values]
        d = len(vals)
        return cls(d, tuple(tuple(vals[i] if i == j else _ZERO for j in range(d)) for i in range(d)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i - 1][j - 1]

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)

    def is_diagonal(self) -> bool:
        return all(not v for a, row in enumerate(self.rows) for b, v in enumerate(row) if a != b)

    def __add__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        return ScalarMatrix(
            self.d,
            tuple(
                tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        return ScalarMatrix(
            self.d,
            tuple(
                tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __mul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        d = self.d
        return ScalarMatrix(
            d,
            tuple(
                tuple(
                    sum((self.rows[a][k] * other.rows[k][b] for k in range(d)), _ZERO)
                    for b in range(d)
                )
                for a in range(d)
            ),
        )

    def scale(self, alpha: Fraction | int) -> "ScalarMatrix":
        a = Fraction(alpha)
        return ScalarMatrix(self.d, tuple(tuple(a * v for v in row) for row in self.rows))


@dataclass(frozen=True)
class OperatorMatrix:
    """d x d matrix with polynomial entries over one cumulant model."""

    model: CumulantModel
    d: int
    rows: tuple[tuple[NcPolynomial, ...], ...]

    @classmethod
    def of(cls, model: CumulantModel, rows: Sequence[Sequence[NcPolynomial]]) -> "OperatorMatrix":
        packed = tuple(tuple(row) for row in rows)
        d = len(packed)
        if any(len(row) != d for row in packed):
            raise ValueError("matrix must be square")
        return cls(model, d, packed)

    @classmethod
    def identity(cls, model: CumulantModel, d: int) -> "OperatorMatrix":
        unit, zero = NcPolynomial.unit(), NcPolynomial.zero()
        return cls(model, d, tuple(tuple(unit if i == j else zero for j in range(d)) for i in range(d)))

    @classmethod
    def from_scalar(cls, model: CumulantModel, sm: ScalarMatrix) -> "OperatorMatrix":
        return cls(
            model,
            sm.d,
            tuple(tuple(NcPolynomial.of({(): v}) for v in row) for row in sm.rows),
        )

    def entry(self, i: int, j: int) -> NcPolynomial:
        return self.rows[i - 1][j - 1]

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.rows for p in row)

    def mul(self, other: "OperatorMatrix") -> "OperatorMatrix":
        d = self.d
        return OperatorMatrix(
            self.model,
            d,
            tuple(
                tuple(
                    sum(
                        (self.rows[a][k] * other.rows[k][b] for k in range(d)),
                        NcPolynomial.zero(),
                    )
                    for b in range(d)
                )
                for a in range(d)
            ),
        )

    def mul_scalar_right(self, sm: ScalarMatrix) -> "OperatorMatrix":
        d = self.d
        return OperatorMatrix(
            self.model,
            d,
            tuple(
                tuple(
                    sum(
                        (self.rows[a][k].scale(sm.rows[k][b]) for k in range(d)),
                        NcPolynomial.zero(),
                    )
                    for b in range(d)
                )
                for a in range(d)
            ),
        )

    def mul_scalar_left(self, sm: ScalarMatrix) -> "OperatorMatrix":
        d = self.d
        return OperatorMatrix(
            self.model,
            d,
            tuple(
                tuple(
                    sum(
                        (self.rows[k][b].scale(sm.rows[a][k]) for k in range(d)),
                        NcPolynomial.zero(),
                    )
                    for b in range(d)
                )
                for a in range(d)
            ),
        )

    def add(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(
            self.model,
            self.d,
            tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
        )

    def sub(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(
            self.model,
            self.d,
            tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
        )


def expect_b(x: OperatorMatrix) -> ScalarMatrix:
    """Entrywise state."""
    return ScalarMatrix(
        x.d, tuple(tuple(phi_poly(x.model, p) for p in row) for row in x.rows)
    )


def expect_d(x: OperatorMatrix) -> ScalarMatrix:
    """Diagonal of the entrywise state."""
    d = x.d
    return ScalarMatrix.diagonal([phi_poly(x.model, x.rows[i][i]) for i in range(d)])


def _expect(x: OperatorMatrix, algebra: str) -> ScalarMatrix:
    if algebra == "B":
        return expect_b(x)
    if algebra == "D":
        return expect_d(x)
    raise ValueError(f"algebra must be 'B' or 'D', got {algebra!r}")


def opvalued_cumulant_generic(xs: Sequence[OperatorMatrix], algebra: str) -> ScalarMatrix:
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
        return opvalued_cumulant_generic(xs, algebra)
    intervals = [b for b in p.blocks if b[-1] - b[0] + 1 == len(b)]
    if not intervals:
        raise ValueError(f"no interval block; partition is crossing: {p}")
    block = intervals[0] if extract == "leftmost" else intervals[-1]
    a, b = block[0], block[-1]
    inner = opvalued_cumulant_generic(xs[a - 1 : b], algebra)
    keep = [t for t in range(1, p.n + 1) if t < a or t > b]
    reduced = restrict(p, keep)
    if a >= 2:
        new_xs = xs[: a - 2] + [xs[a - 2].mul_scalar_right(inner)] + xs[b:]
    else:
        new_xs = [xs[b].mul_scalar_left(inner)] + xs[b + 1 :]
    return opvalued_cumulant_pi(reduced, new_xs, algebra, extract)


def bvalued_cumulant_entrywise(mats: Sequence[OperatorMatrix]) -> ScalarMatrix:
    """Cumulant of generator-entry matrices straight from the scalar table:
    the (i, j) entry sums the cumulants of all entry chains from i to j."""
    return bvalued_cumulant_pi(Partition.whole(len(mats)), mats)


def bvalued_cumulant_pi(p: Partition, mats: Sequence[OperatorMatrix]) -> ScalarMatrix:
    """Partitioned analogue of the entrywise formula: each chain contributes
    the product over the blocks of the scalar cumulants of its subchains."""
    mats = list(mats)
    n = len(mats)
    if p.n != n:
        raise ValueError(f"partition of {p.n} with {n} arguments")
    d = mats[0].d
    model = mats[0].model
    parsed = _parsed_grids(m.rows for m in mats)
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


def check_chain_hypothesis(
    mats: Sequence[OperatorMatrix], order: int
) -> tuple[bool, tuple[Word, int, Word] | None]:
    """Do all almost-cyclic entry chains with a broken closing index vanish?

    Looks at cumulants of chains entry(r_1; j, i_1), entry(r_2; i_1, i_2), ...,
    entry(r_n; i_{n-1}, i_n) with j != i_n, over tuples drawn from the given
    matrices (r numbers the distinct matrices in order of first appearance).
    Returns (False, (r-word, j, index word)) on the first failure in
    (length, r-word, index word, j) order.
    """
    mats = list(mats)
    distinct: list[OperatorMatrix] = []
    for m in mats:
        if m not in distinct:
            distinct.append(m)
    parsed = _parsed_grids(m.rows for m in distinct)
    best = None
    for rword, pairs, _ in _nonzero_chains(parsed, mats[0].model, order):
        n = len(rword)
        if pairs[0][0] == pairs[-1][1] or any(
            pairs[t][1] != pairs[t + 1][0] for t in range(n - 1)
        ):
            continue
        key = (n, rword, tuple(j for _, j in pairs), pairs[0][0])
        if best is None or key < best:
            best = key
    if best is None:
        return True, None
    _, rword, iword, j = best
    return False, (rword, j, iword)


def dvalued_cumulant(
    mats: Sequence[OperatorMatrix], lambdas: Sequence[ScalarMatrix] | None = None
) -> ScalarMatrix:
    """Diagonal-valued cumulant of A_1 L_1, ..., A_{n-1} L_{n-1}, A_n for
    diagonal scalar L's, evaluated by the weighted chain formula.

    Requires the broken-chain cumulants to vanish (see check_chain_hypothesis);
    under that hypothesis the value is diagonal with (i, i) entry the sum over
    chains closing at i of the chain cumulant times the diagonal weights.
    """
    mats = list(mats)
    n = len(mats)
    d = mats[0].d
    model = mats[0].model
    if lambdas is None:
        lambdas = [ScalarMatrix.identity(d)] * (n - 1)
    lambdas = list(lambdas)
    if len(lambdas) != n - 1:
        raise ValueError(f"need {n - 1} diagonal weights, got {len(lambdas)}")
    if any(not lam.is_diagonal() for lam in lambdas):
        raise ValueError("weights must be diagonal scalar matrices")
    ok, witness = check_chain_hypothesis(mats, n)
    if not ok:
        raise ValueError(f"broken-chain cumulant does not vanish; witness {witness}")
    if n == 1:
        return expect_d(mats[0])
    parsed = _parsed_grids(m.rows for m in mats)
    diag = [_ZERO] * d
    for iword in itertools.product(range(1, d + 1), repeat=n):
        chain = (iword[-1],) + iword
        pairs = [(chain[t], chain[t + 1]) for t in range(n)]
        val = _chain_value(parsed, model, pairs)
        if not val:
            continue
        for t in range(n - 1):
            val *= lambdas[t].entry(iword[t], iword[t])
            if not val:
                break
        if val:
            diag[iword[-1] - 1] += val
    return ScalarMatrix.diagonal(diag)


def odot(mats: Sequence[OperatorMatrix]):
    """Grid of formal chain sums: entry (i, j) maps each generator word that
    labels an entry chain from i to j to its coefficient."""
    mats = list(mats)
    n = len(mats)
    d = mats[0].d
    parsed = _parsed_grids(m.rows for m in mats)
    grid = []
    for i in range(1, d + 1):
        row = []
        for j in range(1, d + 1):
            cell: dict[Word, Fraction] = {}
            for inner in itertools.product(range(1, d + 1), repeat=n - 1):
                chain = (i,) + inner + (j,)
                hit = _chain_letters(parsed, [(chain[t], chain[t + 1]) for t in range(n)])
                if hit is not None:
                    c, w = hit
                    cell[w] = cell.get(w, _ZERO) + c
            row.append(cell)
        grid.append(tuple(row))
    return tuple(grid)


def ktilde(model: CumulantModel, grid, algebra: str):
    """Apply the scalar cumulant to each cell of an odot grid.

    algebra 'B' keeps the full matrix, 'D' zeroes the off-diagonal cells, and
    'C' returns the normalized trace of the diagonal as a rational.
    """
    d = len(grid)
    table = model.table

    def cell_value(cell: Mapping[Word, Fraction]) -> Fraction:
        return sum((c * table.get(w, _ZERO) for w, c in cell.items()), _ZERO)

    if algebra == "B":
        return ScalarMatrix(
            d, tuple(tuple(cell_value(grid[i][j]) for j in range(d)) for i in range(d))
        )
    if algebra == "D":
        return ScalarMatrix.diagonal([cell_value(grid[i][i]) for i in range(d)])
    if algebra == "C":
        return sum((cell_value(grid[i][i]) for i in range(d)), _ZERO) / d
    raise ValueError(f"algebra must be 'B', 'D' or 'C', got {algebra!r}")


def _inner_monomials(gens: Sequence[OperatorMatrix], budget: int):
    # Centered monomials A P A ... A with diagonal factors only strictly
    # inside; outer diagonal factors are absorbed exactly by the adjacent
    # matrix units, so this set spans all the words that need checking.
    model = gens[0].model
    d = gens[0].d
    punits = [ScalarMatrix.unit(d, i, i) for i in range(1, d + 1)]
    pool: dict[int, list[tuple[str, OperatorMatrix]]] = {}
    seen: set[OperatorMatrix] = set()
    for q in range(1, budget + 1):
        rows: list[tuple[str, OperatorMatrix]] = []
        for rs in itertools.product(range(len(gens)), repeat=q):
            for gaps in itertools.product(range(d + 1), repeat=q - 1):
                m = gens[rs[0]]
                label = [f"A{rs[0] + 1}"]
                for t in range(1, q):
                    if gaps[t - 1]:
                        m = m.mul_scalar_right(punits[gaps[t - 1] - 1])
                        label.append(f"P{gaps[t - 1]}")
                    m = m.mul(gens[rs[t]])
                    label.append(f"A{rs[t] + 1}")
                if m.is_zero():
                    continue
                centered = m.sub(OperatorMatrix.from_scalar(model, expect_d(m)))
                if centered.is_zero() or centered in seen:
                    continue
                seen.add(centered)
                rows.append(("".join(label), centered))
        pool[q] = sorted(rows, key=lambda kv: kv[0])
    return pool


def check_amalgamated_freeness(
    gens: Sequence[OperatorMatrix], budget: int
) -> tuple[bool, str | None]:
    """Word test for freeness from the scalar matrices over the diagonal.

    Enumerates alternating products C_1 V C_2 V ... C_m where the V's are
    off-diagonal matrix units, interior C's are centered monomials in the
    given matrices and inner diagonal factors, and the outer C's may also be
    the unit, up to the total entry-degree budget.  All of them must have
    vanishing diagonal expectation; the first failure (slots ordered by
    degree then label, units first) is returned as a readable witness.

    Sound always; complete only up to the budget.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    gens = list(gens)
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


def dcumulant_data(
    mats: Sequence[OperatorMatrix], order: int
) -> dict[tuple[Word, Word], Fraction]:
    """Diagonal-valued cumulant data of a family, by the generic recursion.

    For each matrix word and index word, the first n-1 arguments are cut down
    by the matching diagonal units and the (i_n, i_n) entry of the diagonal
    cumulant is recorded.  For an R-cyclic family this reproduces the cyclic
    table exactly.
    """
    mats = list(mats)
    d = mats[0].d
    s = len(mats)
    data: dict[tuple[Word, Word], Fraction] = {}
    punits = [ScalarMatrix.unit(d, i, i) for i in range(1, d + 1)]
    for n in range(1, order + 1):
        for rword in itertools.product(range(1, s + 1), repeat=n):
            for iword in itertools.product(range(1, d + 1), repeat=n):
                args = [
                    mats[rword[t] - 1].mul_scalar_right(punits[iword[t] - 1])
                    for t in range(n - 1)
                ]
                args.append(mats[rword[n - 1] - 1])
                km = opvalued_cumulant_generic(args, "D")
                val = km.entry(iword[-1], iword[-1])
                if val:
                    data[(rword, iword)] = val
    return data
