import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ncfree.freeprob import CumulantModel, NcPolynomial
from ncfree.rcyclic import (
    MatrixFamily,
    PartialSumError,
    RCyclicFamily,
    closure_check,
    cyclic_family,
    determining_series,
    entry_letter,
    family_moments,
    family_rtransform,
    is_rcyclic,
    partial_sum_rtransform,
)
from ncfree.series import Series, coef, ext_boxed_convolve, geometric, h_series, pair_word, scale
from helpers import (
    circular_2x2,
    constant_table_family,
    dense_cyclic_family,
    dense_is_rcyclic,
    detached_diagonal_family,
    diagonal_free_2x2,
    first_moment_family,
    mixed_2x2,
    model_from_cyclic_table,
    random_cyclic_table,
    scalar_generator_families,
    two_free_mixed_2x2,
)


def test_entry_letter_is_a_bijection():
    for d, s in ((1, 1), (2, 2), (3, 2)):
        seen = {
            entry_letter(r, i, j, d)
            for r in range(1, s + 1)
            for i in range(1, d + 1)
            for j in range(1, d + 1)
        }
        assert seen == set(range(1, s * d * d + 1))


def test_from_generator_entries_layout():
    fam = circular_2x2()
    assert fam.entry(1, 1, 2) == NcPolynomial.generator(2)
    assert fam.entry(1, 2, 1) == NcPolynomial.generator(3)
    with pytest.raises(ValueError):
        fam.entry(2, 1, 1)
    with pytest.raises(ValueError):
        fam.entry(1, 3, 1)


def test_rcyclic_family_of_validates():
    with pytest.raises(ValueError):
        RCyclicFamily.of(2, 1, 3, {((1,), (1, 2)): 1})  # length mismatch
    with pytest.raises(ValueError):
        RCyclicFamily.of(2, 1, 3, {((2,), (1,)): 1})  # r out of range
    with pytest.raises(ValueError):
        RCyclicFamily.of(2, 1, 3, {((1,), (3,)): 1})  # i out of range


def test_is_rcyclic_on_corpus():
    for fam in (circular_2x2(4), diagonal_free_2x2(4), mixed_2x2(4), two_free_mixed_2x2(4)):
        ok, witness = is_rcyclic(fam)
        assert ok and witness is None


def test_is_rcyclic_finds_witness():
    ok, witness = is_rcyclic(first_moment_family())
    assert not ok
    assert witness == ((1,), ((1, 2),))
    ok, witness = is_rcyclic(detached_diagonal_family())
    assert not ok
    assert witness == ((1, 1), ((1, 1), (2, 2)))
    # the table lists (a12 of matrix 1, a11 of matrix 2) before (a21, a11) of
    # matrix 1, but the witness comes first by matrix word
    model = CumulantModel.of(8, 2, {(2, 5): 1, (3, 1): 1})
    ok, witness = is_rcyclic(MatrixFamily.from_generator_entries(2, 2, model))
    assert not ok
    assert witness == ((1, 1), ((2, 1), (1, 1)))


def test_cyclic_family_reads_table():
    fam = cyclic_family(circular_2x2(4))
    assert fam.table == {
        ((1, 1), (1, 2)): 1,
        ((1, 1), (2, 1)): 1,
    }
    with pytest.raises(ValueError):
        cyclic_family(first_moment_family())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fam=scalar_generator_families(), data=st.data())
def test_table_walk_matches_dense_scan(fam, data):
    # verdict, witness and table equal the scan of every index pattern, also
    # when the order argument stops short of the model order
    order = data.draw(st.one_of(st.none(), st.integers(0, fam.model.order)))
    verdict = is_rcyclic(fam, order)
    assert verdict == dense_is_rcyclic(fam, order)
    if verdict[0]:
        assert cyclic_family(fam, order) == dense_cyclic_family(fam, order)
    else:
        with pytest.raises(ValueError) as exc:
            cyclic_family(fam, order)
        assert str(exc.value) == f"family is not R-cyclic; witness {verdict[1]}"


def test_determining_series_uses_pair_letters():
    f = determining_series(circular_2x2(4))
    assert f.alphabet == 2  # s*d = 2
    assert f.coeffs == {(1, 2): Fraction(1), (2, 1): Fraction(1)}
    # same series straight from the cyclic table
    assert determining_series(cyclic_family(circular_2x2(4))) == f


def test_family_moments_circular():
    m = family_moments(determining_series(circular_2x2()), 2)
    assert [coef(m, (1,) * n) for n in range(1, 7)] == [0, 1, 0, 2, 0, 5]


def test_family_moments_mixed():
    m = family_moments(determining_series(mixed_2x2()), 2)
    assert coef(m, (1, 1)) == 2
    assert coef(m, (1,) * 4) == 8
    assert coef(m, (1,) * 6) == 40


def test_family_rtransform_corpus():
    r = family_rtransform(determining_series(circular_2x2()), 2)
    assert r.coeffs == {(1, 1): Fraction(1)}
    r = family_rtransform(determining_series(mixed_2x2()), 2)
    assert r.coeffs == {(1, 1): Fraction(2)}


def test_projected_series_sums_to_family_series():
    # the pair-letter projection keeps index resolution; summing it out
    # must land on the collapsed family series
    f = determining_series(mixed_2x2())
    for companion, collapsed in (
        (geometric(2, f.order), family_moments(f, 2)),
        (h_series(2, f.order), family_rtransform(f, 2)),
    ):
        g = scale(ext_boxed_convolve(f, companion), Fraction(1, 2))
        assert g.alphabet == 2  # still pair letters for s=1, d=2
        for n in range(1, 5):
            for rword in itertools.product((1,), repeat=n):
                total = sum(
                    coef(g, pair_word(rword, iword, 2))
                    for iword in itertools.product((1, 2), repeat=n)
                )
                assert total == coef(collapsed, rword)


def test_partial_sum_rtransform_agrees_on_corpus():
    for fam in (circular_2x2(), diagonal_free_2x2(), mixed_2x2(), two_free_mixed_2x2()):
        f = determining_series(fam)
        assert partial_sum_rtransform(f, fam.d) == family_rtransform(f, fam.d)


def test_partial_sum_rtransform_raises_when_ill_defined():
    # k_1(a11) = 1 but k_1(a22) = 0: the two last-index sums differ
    fam = RCyclicFamily.of(2, 1, 2, {((1,), (1,)): 1})
    with pytest.raises(PartialSumError) as exc:
        partial_sum_rtransform(determining_series(fam), 2)
    assert exc.value.rword == (1,)
    assert exc.value.values == (Fraction(1), Fraction(0))


def test_constant_table_scaling():
    alpha = {(1,): Fraction(1, 2), (1, 1): Fraction(1, 3), (1, 1, 1): Fraction(-1)}
    fam = constant_table_family(2, 1, 3, alpha)
    r = partial_sum_rtransform(determining_series(fam), 2)
    for rword, a in alpha.items():
        n = len(rword)
        assert coef(r, rword) == 2 ** (n - 1) * a


def test_cyclic_table_round_trip():
    # random table -> generator model -> read the table back off the matrices
    for t in range(6):
        rng = random.Random(2200 + t)
        fam = random_cyclic_table(rng, 2, 2, 4)
        model, mats = model_from_cyclic_table(fam)
        assert cyclic_family(mats).table == fam.table


def test_closure_accepts_polynomials_of_the_family():
    fam = mixed_2x2()
    a = [[fam.entry(1, i, j) for j in (1, 2)] for i in (1, 2)]
    # A*A has polynomial entries; scalars embed as diagonal constants
    prod = [
        [a[i][0] * a[0][j] + a[i][1] * a[1][j] for j in (0, 1)]
        for i in (0, 1)
    ]
    ok, _ = closure_check(fam, prod, budget=4)
    assert ok
    diag = [
        [NcPolynomial.unit(), NcPolynomial.zero()],
        [NcPolynomial.zero(), NcPolynomial.unit().scale(2)],
    ]
    ok, _ = closure_check(fam, diag, budget=4)
    assert ok


def test_closure_rejects_offdiagonal_scalar():
    fam = mixed_2x2()
    v12 = [
        [NcPolynomial.zero(), NcPolynomial.unit()],
        [NcPolynomial.zero(), NcPolynomial.zero()],
    ]
    ok, witness = closure_check(fam, v12, budget=3)
    assert not ok
    assert witness == ((2,), ((1, 2),))


def test_closure_budget_capped_by_model_order():
    fam = mixed_2x2(4)
    diag = [[NcPolynomial.unit(), NcPolynomial.zero()], [NcPolynomial.zero(), NcPolynomial.unit()]]
    with pytest.raises(ValueError):
        closure_check(fam, diag, budget=5)


def test_chain_factorization_spot_check():
    # joint cumulants over a block pattern split into per-block table lookups
    rng = random.Random(31)
    fam = random_cyclic_table(rng, 2, 1, 4, per_length=3)
    f = determining_series(fam)
    table = fam.table
    for n in (2, 3):
        for iword in itertools.product((1, 2), repeat=n):
            w = pair_word((1,) * n, iword, 2)
            assert coef(f, w) == table.get(((1,) * n, iword), Fraction(0))
