import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ncfree.freeprob import CumulantModel, NcPolynomial
from ncfree.ncpartition import Partition, enumerate_nc
from ncfree.opvalued import (
    OperatorMatrix,
    ScalarMatrix,
    bvalued_cumulant_entrywise,
    bvalued_cumulant_pi,
    check_amalgamated_freeness,
    check_chain_hypothesis,
    dcumulant_data,
    dvalued_cumulant,
    expect_b,
    expect_d,
    ktilde,
    odot,
    opvalued_cumulant_generic,
    opvalued_cumulant_pi,
)
from ncfree.rcyclic import RCyclicFamily, cyclic_family, family_moments, determining_series
from ncfree.series import coef
from helpers import (
    circular_2x2,
    dense_check_chain_hypothesis,
    detached_diagonal_family,
    diagonal_free_2x2,
    first_moment_family,
    mixed_2x2,
    random_model,
    scalar_generator_families,
)


def family_matrix(fam, r=1):
    grid = [[fam.entry(r, i, j) for j in range(1, fam.d + 1)] for i in range(1, fam.d + 1)]
    return OperatorMatrix.of(fam.model, grid)


def test_scalar_matrix_unit_multiplication():
    for i, j, k, l in itertools.product((1, 2), repeat=4):
        prod = ScalarMatrix.unit(2, i, j) * ScalarMatrix.unit(2, k, l)
        expect = ScalarMatrix.unit(2, i, l) if j == k else ScalarMatrix.zero(2)
        assert prod == expect


def test_scalar_matrix_basics():
    m = ScalarMatrix.of([[1, 2], [3, 4]])
    assert m.entry(2, 1) == 3
    assert not m.is_diagonal()
    assert ScalarMatrix.diagonal([1, 5]).is_diagonal()
    assert (m - m).is_zero()
    assert (m + m) == m.scale(2)
    i2 = ScalarMatrix.identity(2)
    assert m * i2 == m and i2 * m == m


def test_operator_matrix_bimodule():
    fam = mixed_2x2()
    x = family_matrix(fam)
    lam = ScalarMatrix.diagonal([2, 3])
    mu = ScalarMatrix.unit(2, 1, 2)
    assert x.mul_scalar_right(lam).mul_scalar_right(mu) == x.mul_scalar_right(lam * mu)
    assert x.mul_scalar_left(lam).mul_scalar_left(mu) == x.mul_scalar_left(mu * lam)
    assert x.mul_scalar_right(ScalarMatrix.identity(2)) == x
    assert x.sub(x).is_zero()
    assert x.add(x).entry(1, 2) == x.entry(1, 2).scale(2)


def test_expectations():
    fam = mixed_2x2()
    x = family_matrix(fam)
    assert expect_b(x).is_zero()  # all first moments vanish
    xx = x.mul(x)
    eb = expect_b(xx)
    # (1,1) entry: phi(a11 a11 + a12 a21) = 1 + 1
    assert eb.entry(1, 1) == 2
    assert eb.entry(1, 2) == 0
    assert expect_d(xx) == ScalarMatrix.diagonal([2, 2])
    # scalar embeds: E_B of a constant matrix is itself
    sm = ScalarMatrix.of([[0, 1], [0, 0]])
    assert expect_b(OperatorMatrix.from_scalar(fam.model, sm)) == sm


def test_generic_cumulants_low_order():
    fam = mixed_2x2()
    x = family_matrix(fam)
    # n = 1 is the expectation
    assert opvalued_cumulant_generic([x], "B") == expect_b(x)
    # n = 2: E(XY) - E(X)E(Y)
    k2 = opvalued_cumulant_generic([x, x], "B")
    assert k2 == expect_b(x.mul(x)) - expect_b(x) * expect_b(x)
    assert k2 == ScalarMatrix.diagonal([2, 2])


def test_generic_matches_scalar_case():
    # d = 1 matrices reduce to plain joint cumulants: the stored table
    for t in range(8):
        rng = random.Random(4400 + t)
        model = random_model(rng, 2, 4, per_length=3)
        mats = {
            r: OperatorMatrix.of(model, [[NcPolynomial.generator(r)]]) for r in (1, 2)
        }
        for n in range(1, 4):
            for word in itertools.product((1, 2), repeat=n):
                got = opvalued_cumulant_generic([mats[r] for r in word], "B")
                assert got.entry(1, 1) == model.table.get(word, Fraction(0))


def test_pi_cumulant_extraction_side_invariance():
    fam = mixed_2x2()
    x = family_matrix(fam)
    for n in (2, 3, 4):
        for p in enumerate_nc(n):
            left = opvalued_cumulant_pi(p, [x] * n, "B", extract="leftmost")
            right = opvalued_cumulant_pi(p, [x] * n, "B", extract="rightmost")
            assert left == right


def test_pi_cumulants_sum_to_expectation():
    fam = mixed_2x2()
    x = family_matrix(fam)
    for n in (2, 3, 4):
        total = ScalarMatrix.zero(2)
        for p in enumerate_nc(n):
            total = total + opvalued_cumulant_pi(p, [x] * n, "B")
        prod = x
        for _ in range(n - 1):
            prod = prod.mul(x)
        assert total == expect_b(prod)


def test_entrywise_b_formula_matches_generic():
    for fam in (circular_2x2(4), diagonal_free_2x2(4), mixed_2x2(4)):
        x = family_matrix(fam)
        for n in (1, 2, 3, 4):
            assert bvalued_cumulant_entrywise([x] * n) == opvalued_cumulant_generic([x] * n, "B")


def test_bvalued_pi_whole_block_and_sum():
    fam = circular_2x2(4)
    x = family_matrix(fam)
    for n in (2, 3):
        whole = Partition.whole(n)
        assert bvalued_cumulant_pi(whole, [x] * n) == bvalued_cumulant_entrywise([x] * n)
        total = ScalarMatrix.zero(2)
        for p in enumerate_nc(n):
            total = total + bvalued_cumulant_pi(p, [x] * n)
        prod = x
        for _ in range(n - 1):
            prod = prod.mul(x)
        assert total == expect_b(prod)


def test_chain_hypothesis_on_corpus():
    for fam, expect_ok in (
        (circular_2x2(4), True),
        (mixed_2x2(4), True),
        (diagonal_free_2x2(4), True),
        (detached_diagonal_family(4), True),  # not R-cyclic, hypothesis still holds
    ):
        x = family_matrix(fam)
        ok, witness = check_chain_hypothesis([x] * fam.model.order, fam.model.order)
        assert ok is expect_ok and witness is None


def test_chain_hypothesis_witness():
    # k2(a11, a12) = 1 gives a chain ending away from its start
    model = CumulantModel.of(4, 2, {(1, 2): 1})
    fam = type(mixed_2x2())  # MatrixFamily
    mats = fam.from_generator_entries(2, 1, model)
    x = family_matrix(mats)
    ok, witness = check_chain_hypothesis([x, x], 2)
    assert not ok
    rword, j, iword = witness
    assert rword == (1, 1) and j == 1 and iword == (1, 2)
    with pytest.raises(ValueError):
        dvalued_cumulant([x, x])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fam=scalar_generator_families(), data=st.data())
def test_chain_hypothesis_matches_dense_scan(fam, data):
    # repeated matrices share one r-label, so draw words over the family
    mats = [family_matrix(fam, r) for r in range(1, fam.s + 1)]
    picks = data.draw(st.lists(st.sampled_from(mats), min_size=1, max_size=3))
    order = data.draw(st.integers(1, fam.model.order))
    assert check_chain_hypothesis(picks, order) == dense_check_chain_hypothesis(picks, order)


def test_dvalued_matches_generic():
    for fam in (circular_2x2(4), mixed_2x2(4), detached_diagonal_family(4)):
        x = family_matrix(fam)
        for n in (1, 2, 3, 4):
            assert dvalued_cumulant([x] * n) == opvalued_cumulant_generic([x] * n, "D")


def test_dvalued_weights_validate():
    x = family_matrix(mixed_2x2(4))
    with pytest.raises(ValueError):
        dvalued_cumulant([x, x], [ScalarMatrix.unit(2, 1, 2)])
    with pytest.raises(ValueError):
        dvalued_cumulant([x, x], [ScalarMatrix.identity(2)] * 2)


def test_dvalued_projection_weights_recover_cyclic_table():
    fam = mixed_2x2(4)
    table = cyclic_family(fam).table
    x = family_matrix(fam)
    for n in (2, 3):
        for iword in itertools.product((1, 2), repeat=n):
            lambdas = [ScalarMatrix.unit(2, iword[t], iword[t]) for t in range(n - 1)]
            got = dvalued_cumulant([x] * n, lambdas)
            expect = table.get(((1,) * n, iword), Fraction(0))
            assert got.entry(iword[-1], iword[-1]) == expect


def test_odot_and_ktilde_identities():
    for fam in (circular_2x2(4), mixed_2x2(4)):
        x = family_matrix(fam)
        model = fam.model
        for n in (1, 2, 3):
            grid = odot([x] * n)
            assert ktilde(model, grid, "B") == bvalued_cumulant_entrywise([x] * n)
            assert ktilde(model, grid, "D") == dvalued_cumulant([x] * n)
    with pytest.raises(ValueError):
        ktilde(mixed_2x2(4).model, odot([family_matrix(mixed_2x2(4))]), "Q")


def test_ktilde_c_matches_family_rtransform():
    from ncfree.rcyclic import family_rtransform

    for fam in (circular_2x2(4), mixed_2x2(4)):
        x = family_matrix(fam)
        r = family_rtransform(determining_series(fam), 2)
        for n in (1, 2, 3, 4):
            assert ktilde(fam.model, odot([x] * n), "C") == coef(r, (1,) * n)


def test_amalgamated_freeness_on_corpus():
    for fam in (circular_2x2(4), diagonal_free_2x2(4), mixed_2x2(4)):
        x = family_matrix(fam)
        ok, witness = check_amalgamated_freeness([x], budget=3)
        assert ok and witness is None


def test_amalgamated_freeness_witness():
    x = family_matrix(first_moment_family(4))
    ok, witness = check_amalgamated_freeness([x], budget=2)
    assert not ok
    assert witness == "1 V(2,1) A1"


def test_amalgamated_freeness_validates_budget():
    x = family_matrix(mixed_2x2(4))
    with pytest.raises(ValueError):
        check_amalgamated_freeness([x], budget=0)


def test_dcumulant_data_reproduces_cyclic_table():
    for fam in (circular_2x2(4), mixed_2x2(4)):
        x = family_matrix(fam)
        data = dcumulant_data([x], 4)
        assert data == cyclic_family(fam).table


def test_witness_family_round_trip():
    fam = mixed_2x2(4)
    x = family_matrix(fam)
    data = dcumulant_data([x], 4)
    witness = RCyclicFamily.of(2, 1, 4, data)
    assert witness.table == cyclic_family(fam).table
    m_orig = family_moments(determining_series(fam), 2)
    m_wit = family_moments(determining_series(witness), 2)
    assert m_orig == m_wit
