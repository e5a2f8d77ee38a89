import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ncfree import freeprob, rcyclic
from ncfree.freeprob import CumulantModel, NcPolynomial
from ncfree.rcyclic import (
    _entries,
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
    VALUES,
    circular_2x2,
    closure_cases,
    constant_table_family,
    dense_cyclic_family,
    dense_is_rcyclic,
    detached_diagonal_family,
    diagonal_free_2x2,
    enumerated_closure_check,
    first_moment_family,
    fraction_closure_check,
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
    order = data.draw(st.one_of(st.none(), st.integers(1, fam.model.order)))
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


# highest budget per (d, s) that keeps the Fraction reference near 10^3 patterns
CLOSURE_MAX_BUDGET = {(1, 1): 4, (1, 2): 4, (2, 1): 3, (2, 2): 2, (3, 1): 2, (3, 2): 2}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=closure_cases(CLOSURE_MAX_BUDGET))
def test_closure_matches_fraction_recursion(case):
    fam, new_grid, budget = case
    assert closure_check(fam, new_grid, budget) == fraction_closure_check(fam, new_grid, budget)


# the integer reference inverts no Fractions, so it reaches past CLOSURE_MAX_BUDGET
CLOSURE_ENUM_BUDGET = {(1, 1): 6, (1, 2): 5, (2, 1): 4, (2, 2): 3, (3, 1): 3, (3, 2): 2}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=closure_cases(CLOSURE_ENUM_BUDGET, polynomial_family=True))
def test_closure_matches_enumeration(case):
    # family entries may be polynomials too, so tuples of family entries
    # alone take the enumerated route as well as the table walk
    fam, new_grid, budget = case
    assert closure_check(fam, new_grid, budget) == enumerated_closure_check(fam, new_grid, budget)


@pytest.mark.parametrize("d, s, budget", [(2, 1, 4), (2, 2, 4), (3, 1, 4)])
def test_closure_matches_enumeration_on_closure_shapes(d, s, budget):
    # A Lam A + Shift over a random R-cyclic family, as the freeness closure
    # jobs build it, with and without an injected non-cyclic table word and a
    # non-cyclic new cell
    verdicts = []
    for seed in range(8):
        rng = random.Random(5100 + 10 * d + s + 100 * seed)
        cyclic = random_cyclic_table(rng, d, s, budget)
        model, fam = model_from_cyclic_table(cyclic)
        injected, broken = seed % 2, seed // 2 % 2
        if injected:
            word = tuple(rng.randint(1, s * d * d) for _ in range(rng.randint(2, budget)))
            table = {**model.table, word: Fraction(1, 3)}
            model = CumulantModel.of(model.generators, budget, table)
            fam = MatrixFamily.of(d, s, model, fam.grids)
        a = [[fam.entry(1, i, j) for j in range(1, d + 1)] for i in range(1, d + 1)]
        lam = [rng.choice(VALUES) for _ in range(d)]
        shift = [rng.choice(VALUES) for _ in range(d)]
        grid = [
            [
                sum(((a[i][k] * a[k][j]).scale(lam[k]) for k in range(d)), NcPolynomial.zero())
                + (NcPolynomial.unit().scale(shift[i]) if i == j else NcPolynomial.zero())
                for j in range(d)
            ]
            for i in range(d)
        ]
        if broken:
            i, j = rng.sample(range(d), 2)
            grid[i][j] = grid[i][j] + NcPolynomial.generator(rng.randint(1, s * d * d))
        ok, witness = closure_check(fam, grid, budget)
        assert (ok, witness) == enumerated_closure_check(fam, grid, budget)
        verdicts.append(ok)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("table, expected", [
    # the walk's (a11, a12) comes before the enumerated (a11, b12)
    ({(1, 1): 1, (1, 2): 1}, ((1, 1), ((1, 1), (1, 2)))),
    # the enumerated (a11, b12) comes before the walk's (a22, a12)
    ({(1, 1): 1, (4, 2): 1}, ((1, 2), ((1, 1), (1, 2)))),
])
def test_closure_witness_merges_walk_and_enumeration(table, expected):
    # one length, two routes: b12 = a11 + a12 has mean zero and cumulant
    # k2(a11, b12) = k2(a11, a11) + k2(a11, a12) with a11, so both the table
    # walk and the enumeration fail at length 2, and the lesser tuple wins
    fam = MatrixFamily.from_generator_entries(2, 1, CumulantModel.of(4, 3, table))
    zero = NcPolynomial.zero()
    grid = [[zero, fam.entry(1, 1, 1) + fam.entry(1, 1, 2)], [zero, zero]]
    assert closure_check(fam, grid, 3) == fraction_closure_check(fam, grid, 3) == (False, expected)


def test_closure_inverts_only_tuples_with_a_polynomial_entry(monkeypatch):
    # a top-level inversion always holds an entry that is neither zero nor a
    # scaled generator, and never a zero entry
    calls = []
    inner = rcyclic._scaled_cumulant
    monkeypatch.setattr(
        rcyclic, "_scaled_cumulant", lambda idx, *rest: calls.append(idx) or inner(idx, *rest)
    )
    fam = mixed_2x2(4)
    a = [[fam.entry(1, i, j) for j in (1, 2)] for i in (1, 2)]
    one, zero = NcPolynomial.unit(), NcPolynomial.zero()
    for grid in (
        [[a[0][0] * a[0][0] - one, a[0][1].scale(2)], [zero, a[1][1] + one]],
        [[a[0][0] * a[0][1] + a[0][1] * a[1][1], zero], [a[1][0], one]],
    ):
        calls.clear()
        assert closure_check(fam, grid, 4) == enumerated_closure_check(fam, grid, 4)
        forms = _entries(fam.model, (*fam.grids, grid)).forms
        assert calls
        for idx in calls:
            assert any(forms[t] is None for t in idx)
            assert all(forms[t] != (0, 0) for t in idx)


def test_closure_scale_follows_entry_degree():
    # a11 against the (2, 2) cell of A*A: two entries of total degree 3 whose
    # moment holds the product of three means, 1/27; one table denominator
    # per entry (21^2 = 3^2 7^2) would not clear it
    table = {(1,): Fraction(1, 3), (4,): Fraction(1, 3), (2, 3): Fraction(1, 7)}
    fam = MatrixFamily.from_generator_entries(2, 1, CumulantModel.of(4, 3, table))
    a = [[fam.entry(1, i, j) for j in (1, 2)] for i in (1, 2)]
    square = [[a[i][0] * a[0][j] + a[i][1] * a[1][j] for j in (0, 1)] for i in (0, 1)]
    assert closure_check(fam, square, 3) == fraction_closure_check(fam, square, 3) == (True, None)


@pytest.mark.parametrize("corner", ["constant", "zero"])
def test_closure_witness_follows_product_order(corner):
    # degree-0 corner among degree-2 cells, budget 3 < model order 4.  Within
    # the budget the first non-cyclic pair with a nonzero cumulant is
    # (a11 a12, a21), from the table word (1, 2, 3); (a22 a21, a12), from
    # (4, 3, 2), comes later in itertools.product order but first in colex or
    # reversed order; (a22^2 - 1, a22^2 - 1) has a nonzero cumulant at degree
    # 4, so a walk that does not cut by degree stops there.
    table = {(1, 1): 1, (4, 4): 1, (2, 3): 1, (3, 2): 1,
             (1, 2, 3): Fraction(1, 2), (4, 3, 2): Fraction(-2, 3)}
    fam = MatrixFamily.from_generator_entries(2, 1, CumulantModel.of(4, 4, table))
    a = [[fam.entry(1, i, j) for j in (1, 2)] for i in (1, 2)]
    one = NcPolynomial.unit()
    b11 = one.scale(2) if corner == "constant" else NcPolynomial.zero()
    grid = [[b11, a[1][1] * a[1][1] - one], [a[0][0] * a[0][1], a[1][1] * a[1][0]]]
    expected = (False, ((2, 1), ((2, 1), (2, 1))))
    assert closure_check(fam, grid, 3) == fraction_closure_check(fam, grid, 3) == expected


def test_closure_budget_capped_by_model_order():
    fam = mixed_2x2(4)
    diag = [[NcPolynomial.unit(), NcPolynomial.zero()], [NcPolynomial.zero(), NcPolynomial.unit()]]
    with pytest.raises(ValueError):
        closure_check(fam, diag, budget=5)


def test_closure_budget_capped_by_partition_cap():
    # the model order is 13, so only the partition cap refuses the default
    # budget, and it does so before any cumulant is computed
    table = {(1, 1): 1, (4, 4): 1, (2, 3): 1, (3, 2): 1}
    fam = MatrixFamily.from_generator_entries(2, 1, CumulantModel.of(4, 13, table))
    grid = [[NcPolynomial.unit(), NcPolynomial.zero()], [NcPolynomial.zero(), NcPolynomial.unit()]]
    for budget in (None, 13):
        with pytest.raises(ValueError, match="budget 13 exceeds the cap of 12"):
            closure_check(fam, grid, budget)
    assert closure_check(fam, grid, 4) == (True, None)


@pytest.mark.parametrize("budget, rows, cols", [
    (0, 2, 2),
    (-1, 2, 2),
    (3, 1, 1),
    (3, 3, 2),
    (3, 2, 3),
    (3, 2, 1),
])
def test_closure_rejects_bad_input(budget, rows, cols):
    fam = mixed_2x2(4)
    grid = [[NcPolynomial.unit()] * cols for _ in range(rows)]
    with pytest.raises(ValueError, match="budget must be positive|grid must be 2 x 2"):
        closure_check(fam, grid, budget)


def test_closure_reads_generator_chains_off_the_table(monkeypatch):
    # every new cell is zero or a scaled generator, so every tuple is a
    # chain of scaled generators and no state is computed
    calls = []
    monkeypatch.setattr(
        freeprob, "_phi_numerator", lambda model, word: calls.append(word) or 1
    )
    table = {(1, 1): 1, (4, 4): Fraction(1, 3), (2, 3): 1, (3, 2): 1, (1, 2, 3): Fraction(-2, 7)}
    fam = MatrixFamily.from_generator_entries(2, 1, CumulantModel.of(4, 4, table))
    a = [[fam.entry(1, i, j) for j in (1, 2)] for i in (1, 2)]
    schur = [[a[0][0].scale(2), a[0][1]], [a[1][0].scale(Fraction(-1, 3)), NcPolynomial.zero()]]
    swapped = [[a[0][0], a[1][0]], [a[0][1], a[1][1]]]
    for grid in (schur, swapped):
        assert closure_check(fam, grid, 4) == fraction_closure_check(fam, grid, 4)
    assert closure_check(fam, schur, 4)[0] and not closure_check(fam, swapped, 4)[0]
    assert calls == []


def test_entries_classify_zero_and_scaled_generators():
    # forms are (c * P, letter) with P the entries' denominator lcm, (0, 0)
    # for zero and None for the unit or a product of generators
    x1, x3 = NcPolynomial.generator(1), NcPolynomial.generator(3)
    zero, scaled = NcPolynomial.zero(), x3.scale(2)
    model = CumulantModel.of(3, 2, {})
    ents = _entries(model, [[[zero, scaled], [NcPolynomial.unit(), x1 * x1]]])
    assert ents.forms == [(0, 0), (2, 3), None, None]
    assert _entries(model, [[[x3.scale(Fraction(2, 3)), zero], [zero, x1]]]).forms == [
        (2, 3), (0, 0), (0, 0), (3, 1)
    ]
    ok = _entries(model, [[[zero, scaled], [scaled, zero]]])
    assert ok.single_generators() is ok
    for bad in (NcPolynomial.unit(), x1 * x1):
        message = f"entry is not a scalar multiple of a single generator: {bad.items}"
        with pytest.raises(ValueError) as exc:
            _entries(model, [[[zero, scaled], [bad, x1 * x1 + x1]]]).single_generators()
        assert str(exc.value) == message


@pytest.mark.parametrize("letter", [0, 5, 99])
def test_entry_letters_outside_the_model_raise(letter):
    # a letter the model does not know would read as a generator with no
    # cumulants; every entry kind names it instead
    fam = mixed_2x2(4)
    x1, zero = NcPolynomial.generator(1), NcPolynomial.zero()
    for bad in (NcPolynomial.generator(letter).scale(2), x1 * NcPolynomial.generator(letter) + x1):
        message = f"letter {letter} of entry {bad.items} out of range 1..4"
        outside = MatrixFamily.of(2, 1, fam.model, [[[x1, bad], [zero, x1]]])
        with pytest.raises(ValueError) as exc:
            is_rcyclic(outside)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            closure_check(fam, [[bad, zero], [zero, bad]], 4)
        assert str(exc.value) == message


def test_orders_past_the_model_order_raise():
    fam = mixed_2x2(4)
    for call in (is_rcyclic, cyclic_family, determining_series):
        with pytest.raises(ValueError, match="order 6 exceeds model order 4"):
            call(fam, 6)
    assert is_rcyclic(fam, 4) == (True, None)


def test_orders_below_one_raise():
    # order 0 would look at no chain and pass a family that is not R-cyclic
    fam = first_moment_family(4)
    assert not is_rcyclic(fam)[0]
    for call in (is_rcyclic, cyclic_family, determining_series):
        for order in (0, -1):
            with pytest.raises(ValueError, match=f"order must be positive, got {order}"):
                call(fam, order)


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
