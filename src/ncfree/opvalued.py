"""Matrix-valued expectations and cumulants over the scalar matrices and
their diagonal subalgebra.

For matrices with entries in a cumulant model, the entrywise state is a
conditional expectation onto the scalar d x d matrices (algebra "B"); keeping
only the diagonal gives the expectation onto diagonal scalar matrices
(algebra "D").  Their cumulants are sums of scalar cumulants of entry
chains: d^(n+1) chains for a B-valued cumulant of n arguments, d^n closed
ones for a D-valued one, each inverted by first block over the chain's
scalar moments (for D with the moments of open segments zeroed).  For zero
or scaled single-generator entries the chain cumulants are also read off
one walk over the model's table.

The module also hosts the amalgamated-freeness word check and the
reconstruction of a cyclic table from diagonal-valued cumulant data.  The
word check reads its verdict off the cumulant table when it can: by the
theorem of Nica, Shlyakhtenko and Speicher, matrices are R-cyclic exactly
when the algebra they generate with the diagonal is free from the scalar
matrices over the diagonal, so generator-entry matrices whose table shows no
non-cyclic chain within the budget pass without a word search.  The search
runs otherwise, and it alone produces witnesses.  A word times an
off-diagonal unit E_ij is zero outside column j, so the search carries one
column of each partial word rather than a matrix product, and it refuses a
budget with more than MAX_SEARCH_WORDS words to visit before any product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .freeprob import CumulantModel, NcPolynomial, phi_poly, product_sum
from .ncpartition import DEFAULT_MAX_GROUND_SET
from .rcyclic import _entries, _is_cyclic, _nonzero_chains, _scan

Word = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Chains grow as d^n and states as the chains' total degree; the cap keeps
# the exit codes of `ncfree opcumulant` on words past it.
MAX_CUMULANT_ARGS = 8

# The freeness word search visits about five times more words per step of
# the budget; past this many it refuses before any product.
MAX_SEARCH_WORDS = 10**5


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


def _nonempty(mats: Iterable[OperatorMatrix]) -> list[OperatorMatrix]:
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    model, d = mats[0].model, mats[0].d
    if any(m.model != model or m.d != d for m in mats):
        raise ValueError("generators must share one model and one size")
    return mats


def _distinct(mats: Sequence[OperatorMatrix]) -> list[OperatorMatrix]:
    # the matrices in order of first appearance; r numbers them from 1
    out: list[OperatorMatrix] = []
    for m in mats:
        if m not in out:
            out.append(m)
    return out


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
                    product_sum((self.rows[a][k], other.rows[k][b]) for k in range(d))
                    for b in range(d)
                )
                for a in range(d)
            ),
        )

    def mul_scalar_right(self, sm: ScalarMatrix) -> "OperatorMatrix":
        return self.mul(OperatorMatrix.from_scalar(self.model, sm))

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


def opvalued_cumulant_generic(xs: Sequence[OperatorMatrix], algebra: str) -> ScalarMatrix:
    """Full cumulant from scalar cumulants of entry chains.

    For the entrywise state (algebra 'B') entry (i, j) is the sum, over
    index chains i = i_0, ..., i_n = j, of the scalar cumulants
    k_n(x^1_{i_0 i_1}, ..., x^n_{i_{n-1} i_n}) of the arguments' entries.
    For its diagonal (algebra 'D') entry (j, j) sums the coordinates of
    dcumulant_data over the closed chains i_0 = i_n = j.  Either way each
    chain is one first-block inversion of its scalar moments, on integers.

    The arguments must be nonempty, over one model and of one size, and at
    most MAX_CUMULANT_ARGS of them; otherwise, or for another algebra, this
    raises ValueError before any work.  A chain whose product reaches past
    the model order raises the state's ValueError.
    """
    xs = _nonempty(xs)
    if algebra not in ("B", "D"):
        raise ValueError(f"algebra must be 'B' or 'D', got {algebra!r}")
    n = len(xs)
    if n > MAX_CUMULANT_ARGS:
        raise ValueError(f"{n} arguments exceed the cap of {MAX_CUMULANT_ARGS}")
    model, d = xs[0].model, xs[0].d
    distinct = _distinct(xs)
    ents = _entries(model, [m.rows for m in distinct])
    rword = tuple(distinct.index(x) + 1 for x in xs)
    memo: dict[tuple[int, ...], int] = {}
    rows = [[_ZERO] * d for _ in range(d)]
    if algebra == "B":
        # past the model order the table holds nothing, yet the state raises
        table_value = ents.table_value if n <= model.order else None
        for path in itertools.product(range(1, d + 1), repeat=n + 1):
            idx = _chain(d, rword, path)
            rows[path[0] - 1][path[-1] - 1] += ents.cumulant(idx, memo, ents.moment, table_value)
    else:
        for iword in itertools.product(range(1, d + 1), repeat=n):
            idx = _chain(d, rword, iword[-1:] + iword)
            rows[iword[-1] - 1][iword[-1] - 1] += ents.cumulant(idx, memo, ents.closed_moment)
    return ScalarMatrix(d, tuple(map(tuple, rows)))


def _chain(d: int, rword: Word, path: Sequence[int]) -> tuple[int, ...]:
    # entry numbers of entry(r_1; path_0, path_1), ..., entry(r_n; path_{n-1}, path_n)
    return tuple(((r - 1) * d + path[t] - 1) * d + path[t + 1] - 1 for t, r in enumerate(rword))


def bvalued_cumulant_entrywise(mats: Sequence[OperatorMatrix]) -> ScalarMatrix:
    """Cumulant of zero or scaled single-generator entry matrices straight
    from the scalar table: the (i, j) entry sums the cumulants of all entry
    chains from i to j along the arguments."""
    mats = _nonempty(mats)
    d = mats[0].d
    rows = [[_ZERO] * d for _ in range(d)]
    for pairs, val in _argument_chains(mats):
        rows[pairs[0][0] - 1][pairs[-1][1] - 1] += val
    return ScalarMatrix(d, tuple(map(tuple, rows)))


def _argument_chains(mats: Sequence[OperatorMatrix]):
    # (index pairs, cumulant) of every entry chain along the arguments whose
    # indices link and whose cumulant is nonzero, from one table walk over
    # the distinct matrices
    distinct = _distinct(mats)
    rword = tuple(distinct.index(m) + 1 for m in mats)
    ents = _entries(mats[0].model, [m.rows for m in distinct]).single_generators()
    for rw, pairs, val in _nonzero_chains(ents, len(mats)):
        if rw == rword and _linked(pairs):
            yield pairs, val


def _linked(pairs: Sequence[tuple[int, int]]) -> bool:
    # each index pair's column meets the next one's row
    return all(pairs[t][1] == pairs[t + 1][0] for t in range(len(pairs) - 1))


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
    mats = _nonempty(mats)
    ents = _entries(mats[0].model, [m.rows for m in _distinct(mats)]).single_generators()
    best = None
    for rword, pairs, _ in _nonzero_chains(ents, order):
        if pairs[0][0] == pairs[-1][1] or not _linked(pairs):
            continue
        key = (len(rword), rword, tuple(j for _, j in pairs), pairs[0][0])
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
    mats = _nonempty(mats)
    n = len(mats)
    d = mats[0].d
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
    diag = [_ZERO] * d
    for pairs, val in _argument_chains(mats):
        if not _is_cyclic(pairs):
            continue
        for t in range(n - 1):
            val *= lambdas[t].entry(pairs[t][1], pairs[t][1])
        diag[pairs[-1][1] - 1] += val
    return ScalarMatrix.diagonal(diag)


def odot(mats: Sequence[OperatorMatrix]):
    """Grid of formal chain sums: entry (i, j) maps each generator word that
    labels an entry chain from i to j to its coefficient."""
    mats = _nonempty(mats)
    n = len(mats)
    d = mats[0].d
    ents = _entries(mats[0].model, [m.rows for m in mats]).single_generators()
    scale = ents.dens[0] ** n
    rword = tuple(range(1, n + 1))
    grid: list[list[dict[Word, Fraction]]] = [[{} for _ in range(d)] for _ in range(d)]
    for path in itertools.product(range(1, d + 1), repeat=n + 1):
        coeffs, w = zip(*(ents.forms[t] for t in _chain(d, rword, path)))
        if all(coeffs):
            cell = grid[path[0] - 1][path[-1] - 1]
            cell[w] = cell.get(w, _ZERO) + Fraction(math.prod(coeffs), scale)
    return tuple(map(tuple, grid))


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


def _cyclic_up_to(gens: Sequence[OperatorMatrix], budget: int) -> bool:
    # every entry is zero or a scaled single generator and no non-cyclic
    # chain of length at most budget has a nonzero cumulant
    ents = _entries(gens[0].model, [g.rows for g in gens])
    return None not in ents.forms and _scan(ents, budget)[1] is None


def check_amalgamated_freeness(
    gens: Sequence[OperatorMatrix], budget: int
) -> tuple[bool, str | None]:
    """Word test for freeness from the scalar matrices over the diagonal.

    Enumerates alternating products C_1 V C_2 V ... C_m where the V's are
    off-diagonal matrix units, interior C's are centered monomials in the
    given matrices and inner diagonal factors, and the outer C's may also be
    the unit, up to the budget.  All of them must have vanishing diagonal
    expectation; the first failure (slots ordered by degree then label,
    units first) is returned as a readable witness.

    The budget counts the given matrices a word multiplies, not the degree
    of its entries.  The two agree for matrices whose entries are zero or
    scaled single generators, the case the table shortcut below relies on;
    with polynomial entries a word within the budget may still reach past
    the model order, and the state then raises ValueError.

    Sound always; complete only up to the budget.

    The words are searched only when the cumulant table cannot decide.  When
    every entry is zero or a scaled single generator, the budget is at most
    the model order (and the state's cap on word length), and the table walk
    finds no non-cyclic entry chain up to the budget, the verdict is
    (True, None) with no search.  That is sound: the diagonal expectation of
    a word of entry degree at most the budget depends only on cumulants of
    length at most the budget, so it equals that of the R-cyclic family with
    the longer cumulants dropped, and by the theorem of Nica, Shlyakhtenko
    and Speicher such a family is free from the scalar matrices over the
    diagonal, so every word vanishes.  The theorem is algebraic and needs no
    positivity.  Otherwise the search runs, so every witness, every verdict
    limited by the budget and every error is the search's own.  An empty
    list, generators over different models or sizes, or a search with more
    than MAX_SEARCH_WORDS words to visit raise ValueError.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    gens = _nonempty(gens)
    model = gens[0].model
    if budget <= min(model.order, DEFAULT_MAX_GROUND_SET) and _cyclic_up_to(gens, budget):
        return True, None
    return _word_search(gens, budget)


def _search_size(d: int, s: int, budget: int) -> int:
    # words the search may visit, from a small count over slots and spent
    # budget: the pool of degree q holds at most s^q (d+1)^(q-1) monomials
    # (q matrices, no projection or one of P_1..P_d in each of the q-1
    # gaps), the end slots may also take the unit, and each V is one of
    # d(d-1) units
    units = d * (d - 1)
    pool = [1] + [s**q * (d + 1) ** (q - 1) for q in range(1, budget + 1)]
    # prefixes[b]: prefixes C_1 V ... C_t V that spend b of the budget
    prefixes = [units * pool[b] for b in range(budget + 1)]
    total = 0
    while any(prefixes):
        total += sum(prefixes[b] * pool[q] for b in range(budget + 1) for q in range(budget + 1 - b))
        prefixes = [
            units * sum(prefixes[b - q] * pool[q] for q in range(1, b + 1))
            for b in range(budget + 1)
        ]
    return total


def _word_search(
    gens: Sequence[OperatorMatrix], budget: int
) -> tuple[bool, str | None]:
    # depth-first search over the alternating words of
    # check_amalgamated_freeness, slot by slot, for the first word with a
    # nonzero diagonal expectation.  A word times V(i, j) holds its column i
    # as column j and is zero elsewhere: the search carries that column and
    # j, and the next factor C makes entry (a, b) column[a] * C[j][b].
    model = gens[0].model
    d = gens[0].d
    size = _search_size(d, len(gens), budget)
    if size > MAX_SEARCH_WORDS:
        raise ValueError(f"word search of up to {size} words exceeds the cap of {MAX_SEARCH_WORDS}")
    pool = _inner_monomials(gens, budget)
    mid_pool = [(q, lab, m.rows) for q in range(1, budget + 1) for lab, m in pool[q]]
    end_pool = [(0, "1", OperatorMatrix.identity(model, d).rows)] + mid_pool

    def dfs(slot: int, n_slots: int, column, c: int, left: int, trail: list[str]):
        last = slot == n_slots
        options = end_pool if (slot == 1 or last) else mid_pool
        interior_after = max(0, (n_slots - 1) - slot)
        for q, lab, rows in options:
            if q > left - interior_after:
                continue
            if last:
                # the whole diagonal first, as expect_d does, so a state past
                # the model order raises whatever the other entries hold
                if any([phi_poly(model, column[k] * rows[c][k]) for k in range(d)]):
                    return " ".join(trail + [lab])
                continue
            for i in range(d):
                # column i of the word so far times this factor
                if column is None:
                    picked = [row[i] for row in rows]
                else:
                    picked = [p * rows[c][i] for p in column]
                if all(p.is_zero() for p in picked):
                    continue
                for j in range(d):
                    if j == i:
                        continue
                    word = trail + [lab, f"V({i + 1},{j + 1})"]
                    hit = dfs(slot + 1, n_slots, picked, j, left - q, word)
                    if hit:
                        return hit
        return None

    for n_slots in range(2, budget + 3):
        hit = dfs(1, n_slots, None, 0, budget, [])
        if hit:
            return False, hit
    return True, None


def dcumulant_data(
    mats: Sequence[OperatorMatrix], order: int
) -> dict[tuple[Word, Word], Fraction]:
    """Diagonal-valued cumulant data of a family, for any entries.

    For a matrix word r and an index word i, the first n-1 arguments A_{r_t}
    are cut down by the diagonal units P_{i_t}, and the (i_n, i_n) entry of
    their diagonal cumulant is recorded under (r, i).  Only the closed chain
    entry(r_1; i_n, i_1), ..., entry(r_n; i_{n-1}, i_n) reaches it, so it is
    the chain's first-block inversion with the moment of every gap or tail
    whose first row is not its last column taken as zero.  That is the
    chain's scalar cumulant, and the cyclic table, only on R-cyclic
    families, so the table is not read.  An order above
    MAX_CUMULANT_ARGS raises ValueError before any work.
    """
    mats = _nonempty(mats)
    if order > MAX_CUMULANT_ARGS:
        raise ValueError(f"order {order} exceeds the cap of {MAX_CUMULANT_ARGS} arguments")
    d = mats[0].d
    ents = _entries(mats[0].model, [m.rows for m in mats])
    memo: dict[tuple[int, ...], int] = {}
    data: dict[tuple[Word, Word], Fraction] = {}
    for n in range(1, order + 1):
        for rword in itertools.product(range(1, len(mats) + 1), repeat=n):
            for iword in itertools.product(range(1, d + 1), repeat=n):
                val = ents.cumulant(_chain(d, rword, iword[-1:] + iword), memo, ents.closed_moment)
                if val:
                    data[(rword, iword)] = val
    return data
