import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ncfree.freeprob as freeprob
from ncfree.freeprob import (
    CumulantModel,
    NcPolynomial,
    boxed_inverse,
    check_free,
    m_from_r,
    moment_series,
    phi_poly,
    phi_word,
    product_cumulant,
    r_transform,
)
from ncfree.ncpartition import DEFAULT_MAX_GROUND_SET, nc_pairs
from ncfree.series import MAX_SERIES_WORDS, Series, boxed_convolve, coef, moebius, zeta
from helpers import (
    cumulant_of_elements,
    moment_elements,
    nested_words,
    prefix_sharing_models,
    random_invertible_series,
    random_model,
    rational_series,
    slow_moment_series,
    slow_phi_poly,
    slow_phi_word,
    sparse_models,
    sparse_polynomials,
)

SEMICIRCULAR = CumulantModel.of(1, 8, {(1, 1): 1})
# c = generator 1, c* = generator 2 under the usual pairing
CIRCULAR = CumulantModel.of(2, 8, {(1, 2): 1, (2, 1): 1})


def test_model_of_validates():
    with pytest.raises(ValueError, match="alphabet size must be positive, got 0"):
        CumulantModel.of(0, 3, {})
    with pytest.raises(ValueError, match=r"word \(1, 1, 1, 1\) longer than order 3"):
        CumulantModel.of(2, 3, {(1, 1, 1, 1): 1})
    with pytest.raises(ValueError, match=r"letters of \(3,\) out of range 1..2"):
        CumulantModel.of(2, 3, {(3,): 1})
    with pytest.raises(ValueError, match="series have no constant term"):
        CumulantModel.of(2, 3, {(): 1})


def test_polynomial_arithmetic():
    a = NcPolynomial.generator(1)
    b = NcPolynomial.generator(2)
    p = 2 * a * b - a
    assert p.terms == {(1, 2): Fraction(2), (1,): Fraction(-1)}
    assert p.degree() == 2
    assert (p - p).is_zero()
    assert (-p).terms[(1,)] == 1
    assert (p * NcPolynomial.unit()) == p
    assert (p * NcPolynomial.zero()).is_zero()
    assert p.scale(Fraction(1, 2)).terms[(1, 2)] == 1


def test_semicircular_moments():
    vals = [phi_word(SEMICIRCULAR, (1,) * n) for n in range(1, 7)]
    assert vals == [0, 1, 0, 2, 0, 5]


def test_circular_moments():
    assert phi_word(CIRCULAR, (1, 2, 1, 2)) == 2
    assert phi_word(CIRCULAR, (1, 2, 2, 1)) == 1
    assert phi_word(CIRCULAR, (1, 1, 2, 2)) == 1
    assert phi_word(CIRCULAR, (1, 1, 1, 1)) == 0
    assert phi_word(CIRCULAR, (1, 2)) == 1


def test_phi_word_guards_order():
    with pytest.raises(ValueError):
        phi_word(SEMICIRCULAR, (1,) * 9)


def test_phi_word_caps_ground_set():
    model = CumulantModel.of(1, 13, {(1, 1): 1})
    with pytest.raises(ValueError):
        phi_word(model, (1,) * 13)


def test_phi_word_walks_no_partitions():
    model = CumulantModel.of(1, 12, {(1, 1): 1})
    before = nc_pairs.cache_info()
    assert phi_word(model, (1,) * 12) == 132
    assert nc_pairs.cache_info() == before


def test_phi_first_block_gaps():
    # non-tracial: (1, 2) and (2, 1) differ; the first block meets an empty
    # gap between adjacent letters and at the end, a filled gap in the
    # middle, and a whole word left to the tail when it is a singleton
    model = CumulantModel.of(2, 6, {
        (1,): Fraction(1, 2), (1, 2): 2, (2, 1): Fraction(-1, 3),
        (2, 2): 3, (1, 2, 1): Fraction(5, 7),
    })
    assert phi_word(model, (1, 2)) == 2
    assert phi_word(model, (2, 1)) == Fraction(-1, 3)
    for word in [(1, 2, 1), (1, 2, 2, 1), (1, 1, 2, 2), (1, 2, 1, 2, 2, 1), (2, 1, 1, 2)]:
        assert phi_word(model, word) == slow_phi_word(model, word)


def test_phi_poly_linear():
    a = NcPolynomial.generator(1)
    p = a * a - 3 * NcPolynomial.unit()
    assert phi_poly(SEMICIRCULAR, p) == 1 - 3
    assert phi_poly(SEMICIRCULAR, NcPolynomial.unit()) == 1
    assert phi_poly(SEMICIRCULAR, NcPolynomial.zero()) == 0


def test_moment_series_semicircular():
    m = moment_series(SEMICIRCULAR, [NcPolynomial.generator(1)], order=6)
    assert [coef(m, (1,) * n) for n in range(1, 7)] == [0, 1, 0, 2, 0, 5]
    r = r_transform(m)
    assert r == Series.of(1, 6, {(1, 1): 1})


def test_moment_series_rejects_overflow():
    a = NcPolynomial.generator(1)
    with pytest.raises(ValueError):
        moment_series(SEMICIRCULAR, [a * a * a], order=6)  # degree 18 > 8


def test_r_and_m_are_inverse():
    for t in range(6):
        rng = random.Random(300 + t)
        f = random_invertible_series(rng, 2, 4)
        assert r_transform(m_from_r(f)) == f
        assert m_from_r(r_transform(f)) == f


@settings(max_examples=80, deadline=None)
@given(data=st.data(), s=st.integers(1, 3))
def test_conversions_match_boxed_convolution(data, s):
    # sparse or dense series, with zero or missing degree-1 coefficients, or
    # the moment series of one to three elements (constants and c +/- x make
    # it dense)
    order = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        f = data.draw(rational_series(s, order))
    else:
        model = data.draw(sparse_models(s, 2 * order))
        f = moment_series(model, data.draw(moment_elements(s)), order)
    assert r_transform(f) == boxed_convolve(f, moebius(f.alphabet, order))
    assert m_from_r(f) == boxed_convolve(f, zeta(f.alphabet, order))


@pytest.mark.parametrize("s", [1, 2])
def test_conversions_refuse_order_past_cap_up_front(monkeypatch, s):
    # one order past the cap: both raise before any state or cumulant
    calls = []
    monkeypatch.setattr(freeprob, "_phi_numerator", lambda *a: calls.append("phi") or 0)
    monkeypatch.setattr(freeprob, "_scaled_cumulant", lambda *a, **k: calls.append("kappa") or 0)
    order = DEFAULT_MAX_GROUND_SET + 1
    f = Series.of(s, order, {(1,): 1, (1, 1): Fraction(1, 2)})
    for call in (r_transform, m_from_r):
        with pytest.raises(ValueError, match=f"order {order} exceeds the cap of"):
            call(f)
    assert calls == []


def test_conversions_refuse_an_alphabet_past_the_word_cap_up_front(monkeypatch):
    # 200 + 200^2 + 200^3 + 200^4 words to walk, past the cap of zeta(200, 4):
    # refused before any state or cumulant, however sparse the series
    calls = []
    monkeypatch.setattr(freeprob, "_phi_numerator", lambda *a: calls.append("phi") or 0)
    monkeypatch.setattr(freeprob, "_scaled_cumulant", lambda *a, **k: calls.append("kappa") or 0)
    sparse = Series.of(200, 4, {(1,): 1, (1, 2): 3})
    invertible = Series.of(200, 4, {**{(r,): 1 for r in range(1, 201)}, (1, 2): 3})
    message = f"alphabet 200 to order 4 has more than {MAX_SERIES_WORDS} words"
    for call, f in ((r_transform, sparse), (m_from_r, sparse), (boxed_inverse, invertible)):
        started = time.process_time()
        with pytest.raises(ValueError, match=message):
            call(f)
        assert time.process_time() - started < 1.0
    assert calls == []


def test_free_generators_have_no_mixed_cumulants():
    # two free standard semicirculars
    model = CumulantModel.of(2, 6, {(1, 1): 1, (2, 2): 1})
    m = moment_series(model, [NcPolynomial.generator(1), NcPolynomial.generator(2)], order=4)
    r = r_transform(m)
    ok, witness = check_free(r, [[1], [2]])
    assert ok and witness is None
    # mixed moments still appear in m itself
    assert coef(m, (1, 1, 2, 2)) == 1


def test_check_free_finds_witness():
    model = CumulantModel.of(2, 4, {(1, 1): 1, (2, 2): 1, (1, 2): 1})
    m = moment_series(model, [NcPolynomial.generator(1), NcPolynomial.generator(2)], order=4)
    ok, witness = check_free(r_transform(m), [[1], [2]])
    assert not ok
    assert witness == (1, 2)


def test_check_free_validates_grouping():
    r = Series.of(2, 2, {})
    with pytest.raises(ValueError):
        check_free(r, [[1]])  # does not cover letter 2
    with pytest.raises(ValueError):
        check_free(r, [[1, 2], [2]])


def test_product_cumulant_two_into_one():
    # k_1(x1 x2) = k_2(x1, x2) + k_1(x1) k_1(x2)
    for t in range(10):
        rng = random.Random(40 + t)
        model = random_model(rng, 2, 3, per_length=3)
        k = model.coeffs
        lhs = product_cumulant(model, (1, 2), 1)
        assert lhs == k.get((1, 2), 0) + k.get((1,), 0) * k.get((2,), 0)


def test_product_cumulant_matches_definition():
    for t in range(12):
        rng = random.Random(1200 + t)
        model = random_model(rng, 2, 5, per_length=4)
        n = rng.randint(2, 4)
        word = tuple(rng.randint(1, 2) for _ in range(n))
        mpos = rng.randint(1, n - 1)
        args = [NcPolynomial.generator(g) for g in word]
        merged = args[: mpos - 1] + [args[mpos - 1] * args[mpos]] + args[mpos + 1 :]
        assert product_cumulant(model, word, mpos) == cumulant_of_elements(model, merged)


def test_product_cumulant_validates_position():
    with pytest.raises(ValueError):
        product_cumulant(SEMICIRCULAR, (1, 1), 2)  # m must leave a right neighbour
    with pytest.raises(ValueError):
        product_cumulant(SEMICIRCULAR, (1, 1), 0)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_moment_cumulant_roundtrip(seed):
    rng = random.Random(seed)
    model = random_model(rng, 2, 4, per_length=3)
    generators = [NcPolynomial.generator(1), NcPolynomial.generator(2)]
    m = moment_series(model, generators, order=4)
    # the R-transform of the generator family recovers the stored table, and
    # that cumulant series serves as the model again
    r = r_transform(m)
    assert r.coeffs == model.coeffs
    assert r == model
    assert moment_series(r, generators, order=4) == m


@settings(max_examples=80, deadline=None)
@given(data=st.data(), generators=st.integers(1, 3), order=st.integers(1, 8))
def test_phi_matches_term_by_term(data, generators, order):
    model = data.draw(st.one_of(
        sparse_models(generators, order), prefix_sharing_models(generators, order)
    ))
    word = data.draw(st.lists(st.integers(1, generators), max_size=order).map(tuple))
    assert phi_word(model, word) == slow_phi_word(model, word)
    word = data.draw(nested_words(model, order))
    assert phi_word(model, word) == slow_phi_word(model, word)
    poly = data.draw(sparse_polynomials(generators, order))
    assert phi_poly(model, poly) == slow_phi_poly(model, poly)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    generators=st.integers(1, 3),
    model_order=st.integers(1, 6),
    order=st.integers(1, 3),
)
def test_moment_series_matches_product_walk(data, generators, model_order, order):
    model = data.draw(sparse_models(generators, model_order))
    elements = data.draw(moment_elements(generators))
    try:
        expected = slow_moment_series(model, elements, order)
    except ValueError:
        with pytest.raises(ValueError):
            moment_series(model, elements, order)
        return
    assert moment_series(model, elements, order) == expected
