"""Matrix families whose entry cumulants live on cyclic index chains.

A d x d matrix family over a cumulant model is cyclic-cumulant ("R-cyclic")
when every joint cumulant of entries vanishes unless the column index of each
argument matches the row index of the next, cyclically.  The surviving data
is the cyclic table: for matrix labels (r_1..r_n) and indices (i_1..i_n) it
stores the cumulant of the chain

    entry(r_1; i_n, i_1), entry(r_2; i_1, i_2), ..., entry(r_n; i_{n-1}, i_n),

which is also the coefficient of z_{r_1,i_1} ... z_{r_n,i_n} in the family's
determining series.  Convolving that series against the constant-word series
(and averaging over the diagonal substitution) yields the scalar moments of
the family; convolving against its companion yields the R-transform.

Recognition and table extraction read the entries as scalar multiples of
single generators, so a chain's cumulant is its coefficient times the model's
cumulant of the chain's generator word; the model stores every nonzero
cumulant in its table, so one walk over the table words finds every chain
that survives, cyclic or not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Mapping, Sequence

from .freeprob import (
    CumulantModel,
    NcPolynomial,
    phi_poly,
    single_generator_form,
)
from .series import (
    Series,
    _nc_pairs,
    ext_boxed_convolve,
    geometric,
    h_series,
    pair_word,
    split_word,
)

Word = tuple[int, ...]
TableKey = tuple[Word, Word]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def entry_letter(r: int, i: int, j: int, d: int) -> int:
    """Generator index for entry (i, j) of matrix r under the standard layout."""
    return ((r - 1) * d + (i - 1)) * d + j


class PartialSumError(ValueError):
    """Raised when the last-index partial sums of a determining series differ."""

    def __init__(self, rword: Word, first: int, second: int, values: tuple[Fraction, Fraction]):
        self.rword = rword
        self.first = first
        self.second = second
        self.values = values
        super().__init__(
            f"partial sums at r-word {rword} depend on the last index: "
            f"i_n={first} gives {values[0]}, i_n={second} gives {values[1]}"
        )


@dataclass(frozen=True)
class MatrixFamily:
    """s matrices of size d x d with polynomial entries over one model."""

    d: int
    s: int
    model: CumulantModel
    grids: tuple[tuple[tuple[NcPolynomial, ...], ...], ...]

    def __post_init__(self) -> None:
        if self.d < 1 or self.s < 1:
            raise ValueError("need positive dimension and matrix count")
        if len(self.grids) != self.s or any(
            len(g) != self.d or any(len(row) != self.d for row in g) for g in self.grids
        ):
            raise ValueError("grid shapes must be s x d x d")

    @classmethod
    def of(cls, d: int, s: int, model: CumulantModel, grids) -> "MatrixFamily":
        packed = tuple(tuple(tuple(row) for row in g) for g in grids)
        return cls(d, s, model, packed)

    @classmethod
    def from_generator_entries(cls, d: int, s: int, model: CumulantModel) -> "MatrixFamily":
        """Each entry (r, i, j) is its own generator under the standard layout."""
        if model.generators < s * d * d:
            raise ValueError(f"model needs at least {s * d * d} generators")
        grids = tuple(
            tuple(
                tuple(NcPolynomial.generator(entry_letter(r, i, j, d)) for j in range(1, d + 1))
                for i in range(1, d + 1)
            )
            for r in range(1, s + 1)
        )
        return cls(d, s, model, grids)

    def entry(self, r: int, i: int, j: int) -> NcPolynomial:
        if not 1 <= r <= self.s or not 1 <= i <= self.d or not 1 <= j <= self.d:
            raise ValueError(f"entry ({r},{i},{j}) outside {self.s} matrices of size {self.d}")
        return self.grids[r - 1][i - 1][j - 1]


@dataclass(frozen=True)
class RCyclicFamily:
    """The cyclic table of a family, indexed by (matrix word, index word)."""

    d: int
    s: int
    order: int
    items: tuple[tuple[TableKey, Fraction], ...]

    @classmethod
    def of(
        cls, d: int, s: int, order: int, table: Mapping[TableKey, Fraction | int]
    ) -> "RCyclicFamily":
        norm: dict[TableKey, Fraction] = {}
        for (rword, iword), v in table.items():
            rw, iw = tuple(rword), tuple(iword)
            if len(rw) != len(iw) or not 1 <= len(rw) <= order:
                raise ValueError(f"bad key ({rw}, {iw}) for order {order}")
            if any(not 1 <= r <= s for r in rw) or any(not 1 <= i <= d for i in iw):
                raise ValueError(f"indices out of range in ({rw}, {iw})")
            val = Fraction(v)
            if val:
                norm[(rw, iw)] = val
        items = tuple(sorted(norm.items(), key=lambda kv: (len(kv[0][0]), kv[0])))
        return cls(d, s, order, items)

    @cached_property
    def table(self) -> dict[TableKey, Fraction]:
        return dict(self.items)


def _parsed_grids(grids):
    # (coefficient, letter) or None per entry; raises on non-generator entries
    return tuple(
        tuple(tuple(single_generator_form(p) for p in row) for row in grid) for grid in grids
    )


def _chain_letters(
    parsed_chain, pairs: Sequence[tuple[int, int]]
) -> tuple[Fraction, Word] | None:
    """Coefficient and generator word of the entry chain, None if an entry is zero."""
    coeff = _ONE
    letters = []
    for grid, (i, j) in zip(parsed_chain, pairs):
        ent = grid[i - 1][j - 1]
        if ent is None:
            return None
        coeff *= ent[0]
        letters.append(ent[1])
    return coeff, tuple(letters)


def _chain_value(parsed_chain, model: CumulantModel, pairs: Sequence[tuple[int, int]]) -> Fraction:
    """Scalar cumulant of the entry chain."""
    hit = _chain_letters(parsed_chain, pairs)
    if hit is None:
        return _ZERO
    return hit[0] * model.table.get(hit[1], _ZERO)


def _nonzero_chains(parsed, model: CumulantModel, n_max: int):
    """Yield (matrix word, ((i_1, j_1), ...), value) for every entry chain of
    length at most n_max with a nonzero cumulant, walking the model's table
    once, in table order."""
    holders: dict[int, list[tuple[int, int, int, Fraction]]] = {}
    for r, grid in enumerate(parsed, start=1):
        for i, row in enumerate(grid, start=1):
            for j, ent in enumerate(row, start=1):
                if ent is not None:
                    holders.setdefault(ent[1], []).append((r, i, j, ent[0]))
    for word, val in model.items:
        if len(word) > n_max:
            break
        for chain in itertools.product(*(holders.get(letter, ()) for letter in word)):
            coeff = _ONE
            for ent in chain:
                coeff *= ent[3]
            yield (
                tuple(ent[0] for ent in chain),
                tuple((ent[1], ent[2]) for ent in chain),
                coeff * val,
            )


def _scan(fam: MatrixFamily, order: int | None):
    # Returns (order, cyclic table, first non-cyclic chain or None); the
    # witness is the least by (length, matrix word, index pattern), the order
    # in which a scan of every pattern would meet it.
    n_max = fam.model.order if order is None else order
    table: dict[TableKey, Fraction] = {}
    best = None
    for rword, pairs, val in _nonzero_chains(_parsed_grids(fam.grids), fam.model, n_max):
        n = len(rword)
        if all(pairs[t][1] == pairs[(t + 1) % n][0] for t in range(n)):
            table[(rword, tuple(j for _, j in pairs))] = val
        elif best is None or (n, rword, pairs) < best:
            best = (n, rword, pairs)
    return n_max, table, None if best is None else best[1:]


def is_rcyclic(
    fam: MatrixFamily, order: int | None = None
) -> tuple[bool, tuple[Word, tuple[tuple[int, int], ...]] | None]:
    """Look for a non-cyclic index pattern with a surviving cumulant.

    Returns (True, None) or (False, (matrix word, ((i_1, j_1), ...))) with the
    first violation in (length, matrix word, index pattern) order.
    """
    witness = _scan(fam, order)[2]
    return witness is None, witness


def cyclic_family(fam: MatrixFamily, order: int | None = None) -> RCyclicFamily:
    """Read the cyclic table off a family after confirming it is R-cyclic."""
    n_max, table, witness = _scan(fam, order)
    if witness is not None:
        raise ValueError(f"family is not R-cyclic; witness {witness}")
    return RCyclicFamily.of(fam.d, fam.s, n_max, table)


def determining_series(obj: RCyclicFamily | MatrixFamily, order: int | None = None) -> Series:
    """The series on pair letters (r, i) whose coefficients are the cyclic table."""
    if isinstance(obj, MatrixFamily):
        obj = cyclic_family(obj, order)
    coeffs = {
        pair_word(rword, iword, obj.d): v for (rword, iword), v in obj.items
    }
    return Series.of(obj.s * obj.d, obj.order, coeffs)


def _substituted(g: Series, d: int) -> Series:
    # collapse pair letters to their matrix component and average by 1/d
    s = g.alphabet // d
    out: dict[Word, Fraction] = {}
    for w, v in g.items:
        rword, _ = split_word(w, d)
        out[rword] = out.get(rword, _ZERO) + v
    return Series.of(s, g.order, {w: v / d for w, v in out.items()})


def family_moments(f: Series, d: int) -> Series:
    """Scalar moment series of the family with determining series f."""
    return _substituted(ext_boxed_convolve(f, geometric(d, f.order)), d)


def family_rtransform(f: Series, d: int) -> Series:
    """Scalar R-transform of the family with determining series f."""
    return _substituted(ext_boxed_convolve(f, h_series(d, f.order)), d)


def partial_sum_rtransform(f: Series, d: int) -> Series:
    """R-transform via last-index partial sums, when they are well defined.

    Sums each coefficient over all indices but the last; the result must not
    depend on the remaining index, otherwise a PartialSumError carries the
    first offending (r-word, index, index) triple.
    """
    s = f.alphabet // d
    if f.alphabet % d != 0:
        raise ValueError(f"pair alphabet {f.alphabet} not a multiple of {d}")
    sums: dict[Word, list[Fraction]] = {}
    for w, v in f.items:
        rword, iword = split_word(w, d)
        slot = sums.setdefault(rword, [_ZERO] * d)
        slot[iword[-1] - 1] += v
    out: dict[Word, Fraction] = {}
    for rword in sorted(sums, key=lambda w: (len(w), w)):
        slot = sums[rword]
        for i in range(1, d):
            if slot[i] != slot[0]:
                raise PartialSumError(rword, 1, i + 1, (slot[0], slot[i]))
        if slot[0]:
            out[rword] = slot[0]
    return Series.of(s, f.order, out)


def closure_check(
    fam: MatrixFamily,
    new_grid: Sequence[Sequence[NcPolynomial]],
    budget: int | None = None,
) -> tuple[bool, tuple[Word, tuple[tuple[int, int], ...]] | None]:
    """Is the family together with one more (polynomial-entry) matrix R-cyclic?

    Joint cumulants of the enlarged entry list are computed by the triangular
    moment inversion, so entries may be arbitrary polynomials (products,
    linear combinations, scalars).  Checks every non-cyclic pattern with
    total entry degree and tuple length up to the budget.
    """
    model = fam.model
    n_budget = model.order if budget is None else budget
    if n_budget > model.order:
        raise ValueError(f"budget {n_budget} exceeds model order {model.order}")
    d = fam.d
    elems: list[NcPolynomial] = []
    tags: list[tuple[int, int, int]] = []
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

    def joint_cumulant(idx: tuple[int, ...]) -> Fraction:
        hit = memo.get(idx)
        if hit is not None:
            return hit
        prod = reduce(lambda a, b: a * b, (elems[t] for t in idx))
        acc = phi_poly(model, prod)
        for blocks, _ in _nc_pairs(len(idx)):
            if len(blocks) == 1:
                continue
            term = _ONE
            for b in blocks:
                c = joint_cumulant(tuple(idx[t] for t in b))
                if not c:
                    term = _ZERO
                    break
                term *= c
            acc -= term
        memo[idx] = acc
        return acc

    for n in range(1, n_budget + 1):
        for idx in itertools.product(range(len(elems)), repeat=n):
            if sum(degs[t] for t in idx) > n_budget:
                continue
            pairs = tuple(tags[t][1:] for t in idx)
            if all(pairs[t][1] == pairs[(t + 1) % n][0] for t in range(n)):
                continue
            if joint_cumulant(idx):
                rword = tuple(tags[t][0] for t in idx)
                return False, (rword, pairs)
    return True, None
