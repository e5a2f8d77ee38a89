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

Entries are classified in one place, `_entries`: each is zero, a scalar
multiple c x_letter of a single generator, or something richer; a letter
outside the model raises ValueError.  Recognition and table extraction need
the first two kinds, and raise ValueError naming the first entry of the
third.  A chain of such entries has cumulant prod(c) times the model's
cumulant of the chain's generator word; the model stores every nonzero
cumulant in its table, so one walk over the table words finds every chain
that survives, cyclic or not.  `closure_check` takes entries of every kind
by two routes: that same walk answers every tuple of scaled generators, and
only the tuples that hold a richer entry and no zero entry are enumerated,
each inverted from its moments.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from ._frozen import frozen
from .freeprob import (
    CumulantModel,
    NcPolynomial,
    _product_state,
    _scaled_cumulant,
    integer_terms,
)
from .ncpartition import DEFAULT_MAX_GROUND_SET
from .series import (
    Series,
    ext_boxed_convolve,
    geometric,
    h_series,
    pair_word,
    split_word,
)

Word = tuple[int, ...]
TableKey = tuple[Word, Word]

_ZERO = Fraction(0)


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


@frozen
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


@frozen
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


def _nonzero_chains(ents: _Entries, n_max: int):
    """Yield (matrix word, ((i_1, j_1), ...), value) for every entry chain of
    length at most n_max with a nonzero cumulant, walking the model's table
    once, in table order.  Only entries that are scaled single generators
    take part; zero and richer entries are skipped.  A chain c_1 x_(w_1),
    ..., c_n x_(w_n) has cumulant prod(c_t) * t(w), made from the forms
    (c_t * P, w_t) and the numerator t(w) * L as one
    Fraction(prod(c_t * P) * t(w) * L, P^n * L)."""
    holders: dict[int, list[tuple[int, int, int, int]]] = {}
    for tag, form in zip(ents.tags, ents.forms):
        if form is not None and form[0]:
            holders.setdefault(form[1], []).append((*tag, form[0]))
    p_den, l_den = ents.dens
    for word, num in ents.model.numerators[1].items():
        n = len(word)
        if n > n_max:
            break
        for chain in itertools.product(*(holders.get(letter, ()) for letter in word)):
            coeff = num
            for ent in chain:
                coeff *= ent[3]
            yield (
                tuple(ent[0] for ent in chain),
                tuple((ent[1], ent[2]) for ent in chain),
                Fraction(coeff, p_den**n * l_den),
            )


def _is_cyclic(pairs: Sequence[tuple[int, int]]) -> bool:
    """Does each (row, column) index pair's column meet the next one's row,
    cyclically?"""
    n = len(pairs)
    return all(pairs[t][1] == pairs[(t + 1) % n][0] for t in range(n))


def _scan(ents: _Entries, n_max: int):
    # Returns (cyclic table, first non-cyclic chain or None) over the chains
    # of length at most n_max; the witness is the least by (length, matrix
    # word, index pattern), the order in which a scan of every pattern would
    # meet it.
    table: dict[TableKey, Fraction] = {}
    best = None
    for rword, pairs, val in _nonzero_chains(ents, n_max):
        if _is_cyclic(pairs):
            table[(rword, tuple(j for _, j in pairs))] = val
        elif best is None or (len(rword), rword, pairs) < best:
            best = (len(rword), rword, pairs)
    return table, None if best is None else best[1:]


def _family_order(fam: MatrixFamily, order: int | None) -> int:
    # the model defines no cumulant past its order, so no table can claim one
    if order is None:
        return fam.model.order
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if order > fam.model.order:
        raise ValueError(f"order {order} exceeds model order {fam.model.order}")
    return order


def is_rcyclic(
    fam: MatrixFamily, order: int | None = None
) -> tuple[bool, tuple[Word, tuple[tuple[int, int], ...]] | None]:
    """Look for a non-cyclic index pattern with a surviving cumulant.

    Returns (True, None) or (False, (matrix word, ((i_1, j_1), ...))) with the
    first violation in (length, matrix word, index pattern) order.  An order
    above the model order raises ValueError.
    """
    n_max = _family_order(fam, order)
    witness = _scan(_entries(fam.model, fam.grids).single_generators(), n_max)[1]
    return witness is None, witness


def cyclic_family(fam: MatrixFamily, order: int | None = None) -> RCyclicFamily:
    """Read the cyclic table off a family after confirming it is R-cyclic."""
    n_max = _family_order(fam, order)
    table, witness = _scan(_entries(fam.model, fam.grids).single_generators(), n_max)
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


def _polynomial_tuples(
    cands: Sequence[tuple[int, int, bool]], n: int, budget: int, head: tuple[int, ...] = (),
    head_rich: bool = False,
) -> Iterator[tuple[int, ...]]:
    # tuples of n entries from cands (entry number, degree, is it rich:
    # neither zero nor a scaled generator) with total degree at most budget
    # and at least one rich entry, in itertools.product order; a branch
    # stops as soon as its partial degree passes the budget, and the last
    # slot takes only rich entries when the head holds none
    last = len(head) == n - 1
    for t, deg, rich in cands:
        if deg <= budget and (rich or head_rich or not last):
            if last:
                yield head + (t,)
            else:
                yield from _polynomial_tuples(
                    cands, n, budget - deg, head + (t,), head_rich or rich
                )


class _Entries(NamedTuple):
    """The entries of some d x d polynomial grids, numbered grid by grid in
    row-major order, and the one place an entry is classified.

    Per entry: the polynomial, its (grid, row, column) tag from 1, its
    degree, its integer term list over P, and its form: (c * P, letter) for
    an entry c x_letter, (0, 0) for a zero entry, None for anything else.
    Also the model, the lcms (P, L), and the moment() and table_value()
    callbacks of the first-block inversion on the scale of closure_check."""

    model: CumulantModel
    polys: list[NcPolynomial]
    tags: list[tuple[int, int, int]]
    degs: list[int]
    terms: list[tuple[tuple[Word, int], ...]]
    forms: list[tuple[int, int] | None]
    dens: tuple[int, int]
    moment: Callable[[tuple[int, ...]], int]
    table_value: Callable[[tuple[int, ...]], int | None]

    def single_generators(self) -> "_Entries":
        """These entries, once each is checked to be zero or a scaled single generator."""
        if None in self.forms:
            p = self.polys[self.forms.index(None)]
            raise ValueError(f"entry is not a scalar multiple of a single generator: {p.items}")
        return self

    def closed_moment(self, idx: tuple[int, ...]) -> int:
        """moment() if the tuple is empty or its first row is its last column, else 0."""
        return self.moment(idx) if not idx or self.tags[idx[0]][1] == self.tags[idx[-1]][2] else 0

    def cumulant(self, idx: tuple[int, ...], memo: dict, moment, table_value=None) -> Fraction:
        """The first-block inversion of moment() at the tuple, as a rational."""
        if any(not self.terms[t] for t in idx):
            return _ZERO
        p_den, l_den = self.dens
        scaled = _scaled_cumulant(idx, memo, moment, table_value)
        return Fraction(scaled, p_den ** len(idx) * l_den ** sum(self.degs[t] for t in idx))


def _entries(model: CumulantModel, grids: Sequence[Sequence[Sequence[NcPolynomial]]]) -> _Entries:
    polys = [p for grid in grids for row in grid for p in row]
    d = len(grids[0])
    tags = [(t // (d * d) + 1, t // d % d + 1, t % d + 1) for t in range(len(polys))]
    degs = [p.degree() for p in polys]
    gens = model.generators
    for p in polys:
        bad = [g for w, _ in p.items for g in w if not 1 <= g <= gens]
        if bad:
            raise ValueError(f"letter {bad[0]} of entry {p.items} out of range 1..{gens}")
    p_den, terms = integer_terms(polys)
    l_den, numerators = model.numerators
    forms = [
        (ts[0][1], ts[0][0][0]) if len(ts) == 1 and len(ts[0][0]) == 1
        else None if ts else (0, 0)
        for ts in terms
    ]

    def table_value(idx: tuple[int, ...]) -> int | None:
        # a chain of scaled generators has cumulant prod(c) * t(word) / L,
        # which scaled by P^n L^n is prod(c P) * t_L(word) * L^(n - 1)
        coeff = 1
        word = []
        for t in idx:
            form = forms[t]
            if form is None:
                return None
            coeff *= form[0]
            word.append(form[1])
        if not coeff:
            return 0
        return coeff * numerators.get(tuple(word), 0) * l_den ** (len(idx) - 1)

    @cache
    def moment(idx: tuple[int, ...]) -> int:
        # scaled by P^n L^D, D the total degree of the entries
        return _product_state(model, [terms[t] for t in idx], sum(degs[t] for t in idx))

    return _Entries(model, polys, tags, degs, terms, forms, (p_den, l_den), moment, table_value)


def closure_check(
    fam: MatrixFamily,
    new_grid: Sequence[Sequence[NcPolynomial]],
    budget: int | None = None,
) -> tuple[bool, tuple[Word, tuple[tuple[int, int], ...]] | None]:
    """Is the family together with one more (polynomial-entry) matrix R-cyclic?

    Looks for the first non-cyclic entry tuple with a nonzero cumulant among
    the tuples of total entry degree and length up to the budget, first by
    length, then lexicographically by (matrix, row, column) tags.  Entries
    may be arbitrary polynomials, and the tuples split by kind of entry
    (see `_entries`):

    - Tuples of scaled single generators are the chains of the `_scan` table
      walk, so one walk answers them all: their cumulant is the product of
      the coefficients times the table entry of the generator word.  The
      least non-cyclic chain of each length is kept.
    - A tuple holding a zero entry has cumulant zero, by multilinearity.
    - Every other tuple holds at least one richer entry.  These are walked
      depth first in lexicographic order, a branch cut once its degree
      passes the budget, and each walk of one length stops at the table
      walk's least chain of that length, which is the witness unless a
      walked tuple before it fails.  The cumulant of such a tuple is its
      moment minus, over each block V that holds its first entry and is not
      the whole tuple, the cumulant of the tuple restricted to V times the
      moments of the gaps V leaves, all memoised by tuple within one call;
      blocks of scaled generators are read off the table.

    Everything runs on integers and nothing is divided.  With P the lcm of
    the entries' coefficient denominators and L that of the model's
    cumulants, each entry is an integer term list over P, and the moment of
    n entries of total degree D, scaled by P^n L^D, is the sum over one term
    per entry of the product of the term coefficients times the first-block
    state numerator of the concatenated word, lifted by L^(D - its length).
    That scale is multiplicative over the blocks of any partition of the
    entries, so the scaled cumulants obey the moment-cumulant relation with
    no lift, and only whether they vanish is read.

    A budget below 1, above the model order or above
    DEFAULT_MAX_GROUND_SET, a new grid that is not d x d, or an entry letter
    outside the model raises ValueError before any cumulant is computed.
    """
    model = fam.model
    n_budget = model.order if budget is None else budget
    if n_budget < 1:
        raise ValueError("budget must be positive")
    if n_budget > model.order:
        raise ValueError(f"budget {n_budget} exceeds model order {model.order}")
    if n_budget > DEFAULT_MAX_GROUND_SET:
        raise ValueError(f"budget {n_budget} exceeds the cap of {DEFAULT_MAX_GROUND_SET} letters")
    d = fam.d
    if len(new_grid) != d or any(len(row) != d for row in new_grid):
        raise ValueError(f"new grid must be {d} x {d}")
    ents = _entries(model, (*fam.grids, new_grid))
    tags = ents.tags
    # the least non-cyclic chain of scaled generators per length, by entry number
    least: dict[int, tuple[int, ...]] = {}
    for rword, pairs, _ in _nonzero_chains(ents, n_budget):
        if not _is_cyclic(pairs):
            idx = tuple(((r - 1) * d + i - 1) * d + j - 1 for r, (i, j) in zip(rword, pairs))
            n = len(idx)
            if n not in least or idx < least[n]:
                least[n] = idx
    # a zero entry makes a cumulant vanish, so none is ever a candidate
    cands = [
        (t, deg, form is None)
        for t, (deg, form) in enumerate(zip(ents.degs, ents.forms))
        if form != (0, 0)
    ]
    memo: dict[tuple[int, ...], int] = {}
    for n in range(1, n_budget + 1):
        witness = least.get(n)
        for idx in _polynomial_tuples(cands, n, n_budget):
            if witness is not None and idx > witness:
                break
            pairs = tuple(tags[t][1:] for t in idx)
            if not _is_cyclic(pairs) and _scaled_cumulant(idx, memo, ents.moment, ents.table_value):
                witness = idx
                break
        if witness is not None:
            return False, (tuple(tags[t][0] for t in witness), tuple(tags[t][1:] for t in witness))
    return True, None
