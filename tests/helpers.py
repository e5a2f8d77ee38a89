"""Shared corpus builders, seeded generators, and slow reference computations."""

import itertools
import random
from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from ncfree.freeprob import CumulantModel, NcPolynomial, phi_poly, single_generator_form
from ncfree.opvalued import OperatorMatrix
from ncfree.oracle import nc_by_filter
from ncfree.rcyclic import MatrixFamily, RCyclicFamily, entry_letter
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


# -- dense reference scans over every index pattern ---------------------------
# The library walks only the words of the model's cumulant table; these scan
# all s^n d^(2n) patterns, exactly as the library once did.


def _parsed_entries(fam: MatrixFamily):
    # (coefficient, letter) or None per entry; raises on non-generator entries
    return tuple(
        tuple(tuple(single_generator_form(fam.entry(r, i, j)) for j in range(1, fam.d + 1))
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
    val = model.table.get(tuple(letters), _ZERO)
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


def _parsed_matrices(mats: Sequence[OperatorMatrix]):
    return [
        tuple(tuple(single_generator_form(m.rows[i][j]) for j in range(m.d)) for i in range(m.d))
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
    return coeff * model.table.get(tuple(letters), _ZERO)


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
