import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ncfree import opvalued
from ncfree.freeprob import CumulantModel, NcPolynomial
from ncfree.ncpartition import Partition, enumerate_nc
from ncfree.opvalued import (
    MAX_CUMULANT_ARGS,
    MAX_SEARCH_WORDS,
    OperatorMatrix,
    ScalarMatrix,
    check_amalgamated_freeness,
    check_chain_hypothesis,
    _search_size,
    _word_search,
    dcumulant_data,
    dvalued_cumulant,
    expect_b,
    expect_d,
    opvalued_cumulant_generic,
)
from ncfree.rcyclic import (
    MatrixFamily,
    RCyclicFamily,
    _nonzero_chains,
    cyclic_family,
    determining_series,
    entry_letter,
    family_moments,
    family_rtransform,
    is_rcyclic,
)
from ncfree.series import coef
from helpers import (
    bvalued_cumulant_pi,
    cellwise_mul,
    cellwise_mul_scalar_left,
    cellwise_mul_scalar_right,
    circular_2x2,
    cyclic_chain_words,
    dense_check_chain_hypothesis,
    detached_diagonal_family,
    diagonal_free_2x2,
    first_moment_family,
    matrix_word_search,
    mixed_2x2,
    dense_dvalued_cumulant,
    mixed_values,
    model_from_cyclic_table,
    mul_scalar_left,
    operator_words,
    opvalued_cumulant_pi,
    recursive_opvalued_cumulant,
    random_cyclic_table,
    random_model,
    recursive_dcumulant_data,
    scalar_generator_families,
    sparse_polynomials,
    two_free_mixed_2x2,
    VALUES,
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
    assert mul_scalar_left(mul_scalar_left(x, lam), mu) == mul_scalar_left(x, mu * lam)
    assert x.mul_scalar_right(ScalarMatrix.identity(2)) == x
    assert x.sub(x).is_zero()
    assert x.add(x).entry(1, 2) == x.entry(1, 2).scale(2)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3))
def test_matrix_products_match_cellwise(data, d):
    model = CumulantModel.of(3, 4, {(1, 2): 1})
    cell = sparse_polynomials(3, 2)
    x, y = (
        OperatorMatrix.of(model, [[data.draw(cell) for _ in range(d)] for _ in range(d)])
        for _ in range(2)
    )
    scalar = st.one_of(st.just(0), mixed_values())
    sm = ScalarMatrix.of([[data.draw(scalar) for _ in range(d)] for _ in range(d)])
    assert x.mul(y) == cellwise_mul(x, y)
    assert x.mul_scalar_right(sm) == cellwise_mul_scalar_right(x, sm)
    assert mul_scalar_left(x, sm) == cellwise_mul_scalar_left(x, sm)


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
                assert got.entry(1, 1) == model.coeffs.get(word, Fraction(0))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=operator_words())
def test_generic_cumulant_matches_partition_recursion(args):
    for algebra in ("B", "D"):
        assert opvalued_cumulant_generic(args, algebra) == recursive_opvalued_cumulant(
            args, algebra
        )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fam=scalar_generator_families(), data=st.data())
def test_chain_sums_match_dense_loops(fam, data):
    # repeated matrices share one r-label, so draw words over the family;
    # most of them carry a surviving cyclic chain
    mats = [family_matrix(fam, r) for r in range(1, fam.s + 1)]
    words = cyclic_chain_words(fam)
    if words and data.draw(st.integers(0, 3)):
        args = [mats[r - 1] for r in data.draw(st.sampled_from(words))]
    else:
        n = data.draw(st.integers(1, fam.model.order))
        args = data.draw(st.lists(st.sampled_from(mats), min_size=n, max_size=n))
    n = len(args)
    assert opvalued_cumulant_generic(args, "B") == bvalued_cumulant_pi(Partition.whole(n), args)
    weight = st.sampled_from([0, 1]) | mixed_values()
    lambdas = [
        ScalarMatrix.diagonal(data.draw(st.lists(weight, min_size=fam.d, max_size=fam.d)))
        for _ in range(n - 1)
    ]
    expect = dense_dvalued_cumulant(args, lambdas)
    if check_chain_hypothesis(args, n)[0]:
        assert dvalued_cumulant(args, lambdas) == expect
        return
    with pytest.raises(ValueError, match="broken-chain"):
        dvalued_cumulant(args, lambdas)
    # the weighted chain sum itself, past its hypothesis: no chain counts as broken
    with mock.patch.object(opvalued, "_broken_key", lambda rword, pairs: None):
        assert dvalued_cumulant(args, lambdas) == expect


def test_chain_sums_match_dense_loops_at_d3_s2():
    # seeded 3x3 pairs of matrices whose tables are rich enough that the
    # chain sums have nonzero values to compare, which drawn families rarely
    # give; every matrix word up to length 4, random diagonal weights
    nonzero_d = nonzero_b = 0
    for seed in range(6):
        rng = random.Random(seed)
        _, fam = model_from_cyclic_table(random_cyclic_table(rng, 3, 2, 4, per_length=6))
        mats = [family_matrix(fam, r) for r in (1, 2)]
        for n in range(1, 5):
            for rword in itertools.product((1, 2), repeat=n):
                args = [mats[r - 1] for r in rword]
                lambdas = [
                    ScalarMatrix.diagonal([rng.choice([0, *VALUES]) for _ in range(3)])
                    for _ in range(n - 1)
                ]
                dv = dvalued_cumulant(args, lambdas)
                assert dv == dense_dvalued_cumulant(args, lambdas)
                bv = opvalued_cumulant_generic(args, "B")
                assert bv == bvalued_cumulant_pi(Partition.whole(n), args)
                nonzero_d += sum(1 for i in (1, 2, 3) if dv.entry(i, i))
                nonzero_b += sum(1 for row in bv.rows for v in row if v)
    # 53 and 66 with these seeds
    assert nonzero_d >= 40 and nonzero_b >= 50


def test_generic_cumulant_caps_its_arguments():
    # past the cap it raises before any work: a product of nine arguments
    # would otherwise meet the model order first
    x = family_matrix(mixed_2x2(6))
    assert MAX_CUMULANT_ARGS == 8
    with pytest.raises(ValueError, match="9 arguments exceed the cap of 8"):
        opvalued_cumulant_generic([x] * 9, "B")
    with pytest.raises(ValueError, match="exceeds the cap of 8"):
        dcumulant_data([x], 9)
    with pytest.raises(ValueError, match="algebra must be 'B' or 'D'"):
        opvalued_cumulant_generic([x], "C")


def mean_one_family(order=8):
    # 2x2 generator entries, each with mean 1 and variance 1: no first moment
    # vanishes and the family is not R-cyclic
    table = {}
    for g in range(1, 5):
        table[(g,)] = table[(g, g)] = 1
    return MatrixFamily.from_generator_entries(2, 1, CumulantModel.of(4, order, table))


def test_generic_cumulant_at_the_argument_cap():
    x = family_matrix(mean_one_family())
    # generator entries: every chain is read off the table
    kb = opvalued_cumulant_generic([x] * 8, "B")
    assert opvalued_cumulant_generic([x] * 6, "D") == recursive_opvalued_cumulant([x] * 6, "D")
    # cumulants of two or more arguments vanish on the algebra's constants,
    # so shifted entries, which the table cannot answer and the inversion
    # does, give the same values
    def shifted(rows):
        return x.add(OperatorMatrix.from_scalar(x.model, ScalarMatrix.of(rows)))

    assert opvalued_cumulant_generic([shifted([[1, 2], [3, 4]])] * 8, "B") == kb
    kd = opvalued_cumulant_generic([x] * 8, "D")
    assert opvalued_cumulant_generic([shifted([[1, 0], [0, 4]])] * 8, "D") == kd


def test_generic_cumulant_past_the_model_order(monkeypatch):
    # the state still raises when a chain's product outgrows the model,
    # whether the entries are generators or polynomials
    x = family_matrix(mixed_2x2(4))
    for args, length in (([x] * 5, 5), ([x.mul(x)] * 3, 6)):
        for algebra in ("B", "D"):
            with pytest.raises(ValueError, match=f"word of length {length} exceeds model order 4"):
                opvalued_cumulant_generic(args, algebra)
    # dvalued_cumulant's table walk would find no chain there and read zero,
    # so it refuses before walking
    monkeypatch.setattr(opvalued, "_nonzero_chains", mock.Mock(side_effect=AssertionError("walked")))
    for lambdas in (None, [ScalarMatrix.identity(2)] * 4):
        with pytest.raises(ValueError, match="^5 arguments exceed model order 4$"):
            dvalued_cumulant([x] * 5, lambdas)


def seeded_table_matrices(seed, d, s, order):
    # generator entries over a seeded table with every first moment and a
    # few arbitrary words per length, so open chains of every length count
    rng = random.Random(seed)
    g = s * d * d
    table = {(a,): rng.choice(VALUES) for a in range(1, g + 1)}
    for n in range(2, order + 1):
        for _ in range(6):
            table[tuple(rng.randint(1, g) for _ in range(n))] = rng.choice(VALUES)
    fam = MatrixFamily.from_generator_entries(d, s, CumulantModel.of(g, order, table))
    return [family_matrix(fam, r) for r in range(1, s + 1)]


@pytest.mark.parametrize("d,s,order", [(2, 2, 4), (3, 1, 3)])
def test_dcumulant_data_matches_recursion_off_rcyclic_tables(d, s, order):
    for seed in range(2):
        mats = seeded_table_matrices(seed, d, s, order)
        data = dcumulant_data(mats, order)
        assert data == recursive_dcumulant_data(mats, order)
        # the coordinates are not the closed chains' scalar cumulants, so
        # the vanishing open segments carry weight
        table = mats[0].model.coeffs
        plain = {}
        for n in range(1, order + 1):
            for rword in itertools.product(range(1, s + 1), repeat=n):
                for iword in itertools.product(range(1, d + 1), repeat=n):
                    path = iword[-1:] + iword
                    word = tuple(entry_letter(r, path[t], path[t + 1], d) for t, r in enumerate(rword))
                    if word in table:
                        plain[(rword, iword)] = table[word]
        assert data != plain


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


def test_bvalued_pi_whole_block_and_sum():
    fam = circular_2x2(4)
    x = family_matrix(fam)
    for n in (2, 3):
        whole = Partition.whole(n)
        assert bvalued_cumulant_pi(whole, [x] * n) == opvalued_cumulant_generic([x] * n, "B")
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


def test_chain_checks_refuse_nonpositive_orders():
    # an empty range of orders would otherwise pass vacuously
    x = family_matrix(mixed_2x2(4))
    for order in (0, -1):
        message = f"^order must be positive, got {order}$"
        with pytest.raises(ValueError, match=message):
            check_chain_hypothesis([x], order)
        with pytest.raises(ValueError, match=message):
            dcumulant_data([x], order)


def test_dvalued_weights_validate():
    x = family_matrix(mixed_2x2(4))
    with pytest.raises(ValueError):
        dvalued_cumulant([x, x], [ScalarMatrix.unit(2, 1, 2)])
    with pytest.raises(ValueError):
        dvalued_cumulant([x, x], [ScalarMatrix.identity(2)] * 2)
    with pytest.raises(ValueError, match="^weights must be 2 x 2$"):
        dvalued_cumulant([x, x], [ScalarMatrix.identity(1)])


def test_dvalued_walks_the_table_once(monkeypatch):
    # one walk both sums the closed chains and looks for a broken one
    walks = []

    def counted(ents, n_max):
        walks.append(n_max)
        return _nonzero_chains(ents, n_max)

    monkeypatch.setattr(opvalued, "_nonzero_chains", counted)
    x = family_matrix(mixed_2x2(4))
    for n in (1, 2, 3, 4):
        walks.clear()
        assert dvalued_cumulant([x] * n) == opvalued_cumulant_generic([x] * n, "D")
        assert walks == [n]
    # k2(a11, a12) = 1, as in test_chain_hypothesis_witness
    model = CumulantModel.of(4, 2, {(1, 2): 1})
    broken = family_matrix(MatrixFamily.from_generator_entries(2, 1, model))
    walks.clear()
    witness = r"\(\(1, 1\), 1, \(1, 2\)\)"
    with pytest.raises(ValueError, match=f"^broken-chain cumulant does not vanish; witness {witness}$"):
        dvalued_cumulant([broken, broken])
    assert walks == [2]


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


def test_dvalued_normalized_trace_matches_family_rtransform():
    # the normalized trace of the diagonal-valued cumulant is the scalar one
    for fam in (circular_2x2(4), mixed_2x2(4)):
        x = family_matrix(fam)
        r = family_rtransform(determining_series(fam), 2)
        for n in (1, 2, 3, 4):
            dv = dvalued_cumulant([x] * n)
            assert (dv.entry(1, 1) + dv.entry(2, 2)) / 2 == coef(r, (1,) * n)


def test_amalgamated_freeness_on_corpus():
    for fam in (circular_2x2(4), diagonal_free_2x2(4), mixed_2x2(4)):
        x = family_matrix(fam)
        ok, witness = check_amalgamated_freeness([x], budget=3)
        assert ok and witness is None


def test_amalgamated_freeness_witness(monkeypatch):
    searched = []

    def search(gens, budget):
        searched.append(budget)
        return _word_search(gens, budget)

    monkeypatch.setattr(opvalued, "_word_search", search)
    x = family_matrix(first_moment_family(4))
    ok, witness = check_amalgamated_freeness([x], budget=2)
    assert not ok
    assert witness == "1 V(2,1) A1"
    assert searched == [2]


def test_amalgamated_freeness_validates_budget():
    x = family_matrix(mixed_2x2(4))
    with pytest.raises(ValueError):
        check_amalgamated_freeness([x], budget=0)
    # past the model order the word search's state raises, as it always has
    with pytest.raises(ValueError, match="word of length 5 exceeds model order 4"):
        check_amalgamated_freeness([x], budget=5)


def test_rcyclic_generator_families_skip_the_word_search(monkeypatch):
    def search(gens, budget):
        raise AssertionError("word search entered")

    monkeypatch.setattr(opvalued, "_word_search", search)
    for fam in (circular_2x2(4), diagonal_free_2x2(4), mixed_2x2(4), two_free_mixed_2x2(4)):
        mats = [family_matrix(fam, r) for r in range(1, fam.s + 1)]
        assert check_amalgamated_freeness(mats, budget=4) == (True, None)


# highest budget per (d, s) that keeps the word search near 0.1 s
SEARCH_MAX_BUDGET = {(1, 1): 5, (1, 2): 5, (2, 1): 3, (2, 2): 2, (3, 1): 2, (3, 2): 1}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fam=scalar_generator_families(), data=st.data())
def test_word_test_decision_matches_search(fam, data):
    # non-cyclic table words of every length up to the model order meet
    # budgets below and above them; a polynomial-entry matrix forces the search
    mats = [family_matrix(fam, r) for r in range(1, fam.s + 1)]
    cap = SEARCH_MAX_BUDGET[(fam.d, fam.s)]
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(mats))
        mats.append(x.mul(x) if data.draw(st.booleans()) else x.add(x.mul(x)))
        cap = 1 if fam.d * len(mats) > 3 else min(cap, 2)
    budget = data.draw(st.integers(1, min(cap, fam.model.order)))

    def outcome(test):
        # polynomial entries may make the search evaluate a word past the
        # model order; the error must then be the search's own
        try:
            return test(mats, budget)
        except ValueError as exc:
            return str(exc)

    assert outcome(check_amalgamated_freeness) == outcome(_word_search)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fam=scalar_generator_families(), data=st.data())
def test_column_search_matches_matrix_products(fam, data):
    # the draws of test_word_test_decision_matches_search, with both searches
    # run: verdicts, witnesses and the errors of states past the model order
    # must be those of the search over full matrix products
    mats = [family_matrix(fam, r) for r in range(1, fam.s + 1)]
    cap = SEARCH_MAX_BUDGET[(fam.d, fam.s)]
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(mats))
        mats.append(x.mul(x) if data.draw(st.booleans()) else x.add(x.mul(x)))
        cap = 1 if fam.d * len(mats) > 3 else min(cap, 2)
    budget = data.draw(st.integers(1, min(cap, fam.model.order)))

    def outcome(search):
        try:
            return search(mats, budget)
        except ValueError as exc:
            return str(exc)

    assert outcome(_word_search) == outcome(matrix_word_search)


def test_search_size_counts_the_words():
    # every slot tuple of degrees (ends may be the unit, degree 0) within the
    # budget, times s^q (d+1)^(q-1) monomials per slot and d(d-1) units per gap
    def pool(d, s, q):
        return s**q * (d + 1) ** (q - 1) if q else 1

    for d, s, budget in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4)):
        words = 0
        for n_slots in range(2, budget + 3):
            for qs in itertools.product(range(budget + 1), repeat=n_slots):
                if sum(qs) <= budget and all(qs[1:-1]):
                    units = (d * (d - 1)) ** (n_slots - 1)
                    words += units * math.prod(pool(d, s, q) for q in qs)
        assert _search_size(d, s, budget) == words
    # the 2x2 one-matrix search runs at budget 6 and refuses at 7
    assert _search_size(2, 1, 6) < MAX_SEARCH_WORDS < _search_size(2, 1, 7)


def test_word_search_refuses_past_the_cap(monkeypatch):
    # 2x2, one matrix, one non-cyclic cumulant of length 6: budget 7 is past
    # the table shortcut, and the search refuses before building any word
    monkeypatch.setattr(
        opvalued, "_inner_monomials", mock.Mock(side_effect=AssertionError("pool built"))
    )
    x1, x2, x3, x4 = (NcPolynomial.generator(r) for r in (1, 2, 3, 4))
    model = CumulantModel.of(4, 8, {(1, 1): Fraction(1, 4), (2, 2): Fraction(1, 4), (3,) * 6: 1})
    x = OperatorMatrix.of(model, [[x1, x3], [x4, x2]])
    message = f"word search of up to 174688 words exceeds the cap of {MAX_SEARCH_WORDS}"
    with pytest.raises(ValueError, match=message):
        check_amalgamated_freeness([x], budget=7)


# every public entry point of opvalued that takes a list of matrices
ENTRY_POINTS = (
    lambda mats: check_amalgamated_freeness(mats, 2),
    lambda mats: check_chain_hypothesis(mats, 2),
    lambda mats: dvalued_cumulant(mats),
    lambda mats: dcumulant_data(mats, 2),
    lambda mats: opvalued_cumulant_generic(mats, "B"),
    lambda mats: opvalued_cumulant_generic(mats, "D"),
)


def test_opvalued_entry_points_reject_empty_lists():
    for call in ENTRY_POINTS:
        with pytest.raises(ValueError, match="need at least one matrix"):
            call([])


def test_amalgamated_freeness_rejects_mixed_generators():
    # other models and other sizes, smaller or larger, in either position
    x = family_matrix(mixed_2x2(4))
    gen = NcPolynomial.generator(1)
    smaller = OperatorMatrix.of(x.model, [[gen]])
    larger = OperatorMatrix.of(x.model, [[gen] * 3] * 3)
    for other in (family_matrix(circular_2x2(4)), smaller, larger):
        for call in ENTRY_POINTS:
            for mats in ([x, other], [other, x]):
                with pytest.raises(ValueError, match="one model and one size"):
                    call(mats)


def _family_of(mats):
    return MatrixFamily.of(mats[0].d, len(mats), mats[0].model, [m.rows for m in mats])


# every entry point, here or in rcyclic, that reads entries as zero or a
# scaled single generator and refuses anything richer
GENERATOR_ONLY_ENTRY_POINTS = (
    lambda mats: is_rcyclic(_family_of(mats)),
    lambda mats: cyclic_family(_family_of(mats)),
    lambda mats: determining_series(_family_of(mats)),
    lambda mats: check_chain_hypothesis(mats, 2),
    lambda mats: dvalued_cumulant(mats),
)


def test_generator_only_entry_points_name_the_first_polynomial_entry(monkeypatch):
    x1, x3, zero = NcPolynomial.generator(1), NcPolynomial.generator(3), NcPolynomial.zero()
    model = CumulantModel.of(4, 4, {(1, 1): 1, (3, 3): Fraction(1, 2)})
    x = OperatorMatrix.of(model, [[x1, zero], [x3.scale(2), x1]])
    searched = []
    monkeypatch.setattr(
        opvalued, "_word_search", lambda gens, budget: searched.append(budget) or (False, "w")
    )
    for bad in (NcPolynomial.unit(), x1 * NcPolynomial.generator(2), x1 + x3):
        # a later polynomial entry must not be the one named
        y = OperatorMatrix.of(model, [[x3.scale(Fraction(1, 3)), bad], [zero, x1 * x1]])
        message = f"entry is not a scalar multiple of a single generator: {bad.items}"
        for call in GENERATOR_ONLY_ENTRY_POINTS:
            with pytest.raises(ValueError) as exc:
                call([x, y])
            assert str(exc.value) == message
        # the freeness test cannot read such entries off the table, so it searches
        assert check_amalgamated_freeness([x, y], 2) == (False, "w")
    assert searched == [2, 2, 2]


def test_generic_cumulant_rejects_letters_outside_the_model():
    x1, zero = NcPolynomial.generator(1), NcPolynomial.zero()
    bad = NcPolynomial.generator(99).scale(Fraction(1, 2))
    x = OperatorMatrix.of(CumulantModel.of(4, 4, {(1, 1): 1}), [[x1, bad], [zero, x1]])
    for algebra in ("B", "D"):
        with pytest.raises(ValueError) as exc:
            opvalued_cumulant_generic([x, x], algebra)
        assert str(exc.value) == f"letter 99 of entry {bad.items} out of range 1..4"


def test_amalgamated_freeness_budget_counts_matrix_factors():
    # budget 1 is within the model order, yet X + X X has entries of degree
    # 2, so the search evaluates words past it
    x = family_matrix(MatrixFamily.from_generator_entries(2, 1, CumulantModel.of(4, 1, {})))
    with pytest.raises(ValueError, match="word of length 2 exceeds model order 1"):
        check_amalgamated_freeness([x.add(x.mul(x))], budget=1)


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
