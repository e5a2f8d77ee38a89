import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncfree import freeprob, series
from ncfree.freeprob import (
    CumulantModel,
    NcPolynomial,
    boxed_inverse,
    moment_series,
    r_transform,
)
from ncfree.ncpartition import DEFAULT_MAX_GROUND_SET, Partition
from ncfree.series import (
    Series,
    _kernel_inverse,
    add,
    boxed_convolve,
    coef,
    delta,
    dilate,
    ext_boxed_convolve,
    format_rational,
    geometric,
    h_series,
    moebius,
    pair_letter,
    pair_word,
    scale,
    split_letter,
    split_word,
    to_tsv,
    truncate,
    zeta,
)
from helpers import (
    SLOW_MAX_ORDER,
    gen_coef,
    moment_elements,
    random_invertible_series,
    random_series,
    rational_series,
    slow_boxed_convolve,
    sparse_models,
)


def test_format_rational_always_shows_denominator():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0/1"


def test_of_rejects_bad_words():
    with pytest.raises(ValueError):
        Series.of(2, 3, {(): 1})
    with pytest.raises(ValueError):
        Series.of(2, 3, {(1, 1, 1, 1): 1})
    with pytest.raises(ValueError):
        Series.of(2, 3, {(3,): 1})


def test_of_drops_zero_coefficients():
    f = Series.of(2, 3, {(1,): 0, (2,): 1})
    assert (1,) not in f.coeffs
    assert coef(f, (1,)) == 0
    assert coef(f, (2,)) == 1


def test_coef_guards_length():
    f = zeta(2, 3)
    with pytest.raises(ValueError):
        coef(f, (1, 1, 1, 1))


def test_gen_coef_multiplies_block_restrictions():
    f = Series.of(2, 4, {(1, 2): Fraction(3), (2,): Fraction(5), (1,): Fraction(7)})
    p = Partition.of(4, [[1, 3], [2], [4]])
    # restrictions of word (1,2,2,1): block {1,3} -> (1,2), {2} -> (2,), {4} -> (1,)
    assert gen_coef(f, (1, 2, 2, 1), p) == 3 * 5 * 7


def test_zeta_and_moebius_values():
    z = zeta(2, 4)
    assert all(coef(z, w) == 1 for n in range(1, 5) for w in itertools.product((1, 2), repeat=n))
    m = moebius(1, 6)
    got = [coef(m, (1,) * n) for n in range(1, 7)]
    assert got == [1, -1, 2, -5, 14, -42]
    # signed Catalan closed form
    for n in range(1, 7):
        expect = (-1) ** (n - 1) * math.comb(2 * (n - 1), n - 1) // n
        assert coef(m, (1,) * n) == expect


def test_moebius_inverts_zeta():
    for s in (1, 2, 3):
        assert boxed_convolve(zeta(s, 4), moebius(s, 4)) == delta(s, 4)
        assert boxed_convolve(moebius(s, 4), zeta(s, 4)) == delta(s, 4)


def test_delta_is_unit():
    rng = random.Random(11)
    for _ in range(5):
        f = random_series(rng, 2, 4)
        assert boxed_convolve(f, delta(2, 4)) == f
        assert boxed_convolve(delta(2, 4), f) == f


def test_boxed_convolve_degree_one():
    f = Series.of(1, 2, {(1,): 2, (1, 1): 3})
    g = Series.of(1, 2, {(1,): 5, (1, 1): 7})
    h = boxed_convolve(f, g)
    assert coef(h, (1,)) == 10
    # n=2: f(12)g(1)g(1) + f(1)f(1)g(11)
    assert coef(h, (1, 1)) == 3 * 25 + 4 * 7


def test_boxed_convolve_rejects_mismatch():
    with pytest.raises(ValueError):
        boxed_convolve(zeta(1, 3), zeta(2, 3))
    with pytest.raises(ValueError):
        boxed_convolve(zeta(1, 3), zeta(1, 4))


def test_associativity_seeded():
    for t in range(8):
        rng = random.Random(500 + t)
        f = random_series(rng, 2, 4)
        g = random_series(rng, 2, 4)
        h = random_series(rng, 2, 4)
        assert boxed_convolve(boxed_convolve(f, g), h) == boxed_convolve(f, boxed_convolve(g, h))


def test_boxed_inverse_of_special_series():
    # both routes: Zeta's cumulant series is Delta, so the public inverse
    # inverts Delta and takes its R-transform; Delta is its own cumulant series
    for s in (1, 2):
        assert r_transform(zeta(s, 5)) == delta(s, 5)
        for inverse in (boxed_inverse, _kernel_inverse):
            assert inverse(zeta(s, 5)) == moebius(s, 5)
            assert inverse(delta(s, 5)) == delta(s, 5)


def test_boxed_inverse_roundtrip_seeded():
    for t in range(6):
        rng = random.Random(700 + t)
        f = random_invertible_series(rng, 2, 4)
        inv = boxed_inverse(f)
        assert boxed_convolve(f, inv) == delta(2, 4)
        assert boxed_convolve(inv, f) == delta(2, 4)


def test_boxed_inverse_needs_nonzero_degree_one(monkeypatch):
    # refused before any cumulant of the series is computed
    calls = []
    monkeypatch.setattr(freeprob, "_scaled_cumulant", lambda *a, **k: calls.append(a) or 0)
    f = Series.of(2, 3, {(1,): 1, (1, 2): 1})  # letter 2 missing at degree 1
    with pytest.raises(ValueError, match="degree-1 coefficient at letter 2 is zero"):
        boxed_inverse(f)
    assert calls == []


def test_orders_past_the_partition_cap_fail_before_any_work(monkeypatch):
    # one order past the cap: every NC(n)-walking entry point raises before
    # it generates a single NC(n), and h_series before it builds its operands
    calls = []
    monkeypatch.setattr(series, "nc_pairs", lambda n: calls.append(n) or ())
    monkeypatch.setattr(series, "moebius", lambda s, order: calls.append("moebius"))
    monkeypatch.setattr(freeprob, "_scaled_cumulant", lambda *a, **k: calls.append("kappa") or 0)
    order = DEFAULT_MAX_GROUND_SET + 1
    f, g = zeta(1, order), delta(1, order)
    pair = Series.of(2, order, {(1,): 1, (2,): 1})
    for call in (
        lambda: boxed_convolve(f, g),
        lambda: ext_boxed_convolve(pair, g),
        lambda: boxed_inverse(f),
        lambda: h_series(2, order),
    ):
        with pytest.raises(ValueError, match=f"order {order} exceeds the cap of"):
            call()
    assert calls == []


def test_ext_matches_plain_when_d_is_alphabet():
    # s = 1: pair letters coincide with plain letters
    rng = random.Random(13)
    f = random_series(rng, 3, 4)
    g = random_series(rng, 3, 4)
    assert ext_boxed_convolve(f, g) == boxed_convolve(f, g)


def test_ext_zeta_collapses():
    rng = random.Random(17)
    for s, d in ((2, 2), (1, 3), (3, 2)):
        f = random_series(rng, s * d, 4)
        assert ext_boxed_convolve(f, zeta(d, 4)) == boxed_convolve(f, zeta(s * d, 4))
        assert ext_boxed_convolve(f, moebius(d, 4)) == boxed_convolve(f, moebius(s * d, 4))


def test_dilate_scale_add_truncate():
    f = Series.of(1, 3, {(1,): 1, (1, 1): 2, (1, 1, 1): 3})
    two = Fraction(2)
    assert coef(dilate(f, two), (1, 1)) == 8  # alpha^n scaling
    assert coef(scale(f, two), (1, 1)) == 4
    assert dilate(dilate(f, two), Fraction(1, 2)) == f
    assert dilate(f, 1) == f
    assert add(f, scale(f, -1)) == Series.of(1, 3, {})
    g = truncate(f, 2)
    assert g.order == 2 and coef(g, (1, 1)) == 2
    with pytest.raises(ValueError):
        coef(g, (1, 1, 1))


def test_geometric_hits_constant_words_only():
    g = geometric(2, 4)
    assert coef(g, (1, 1, 1)) == 1
    assert coef(g, (2, 2)) == 1
    assert coef(g, (1, 2)) == 0


def test_h_series_degree_two():
    for d in (2, 3):
        h = h_series(d, 3)
        for i1 in range(1, d + 1):
            for i2 in range(1, d + 1):
                expect = Fraction(int(i1 == i2)) - Fraction(1, d)
                assert coef(h, (i1, i2)) == expect


def test_h_series_degree_three():
    for d in (2, 3):
        h = h_series(d, 3)
        for w in itertools.product(range(1, d + 1), repeat=3):
            i1, i2, i3 = w
            expect = (
                Fraction(int(i1 == i2 == i3))
                - Fraction(int(i1 == i2) + int(i1 == i3) + int(i2 == i3), d)
                + Fraction(2, d * d)
            )
            assert coef(h, w) == expect
    # d = 2 collapses degree 3 entirely
    h2 = h_series(2, 3)
    assert all(coef(h2, w) == 0 for w in itertools.product((1, 2), repeat=3))


def test_h_series_slot_sums_vanish():
    for d in (2, 3):
        h = h_series(d, 5)
        for n in range(2, 6):
            for slot in range(n):
                for rest in itertools.product(range(1, d + 1), repeat=n - 1):
                    total = Fraction(0)
                    for i in range(1, d + 1):
                        w = rest[:slot] + (i,) + rest[slot:]
                        total += coef(h, w)
                    assert total == 0


def test_pair_letter_roundtrip():
    for d in (1, 2, 3):
        for r in (1, 2, 3):
            for i in range(1, d + 1):
                assert split_letter(pair_letter(r, i, d), d) == (r, i)
    assert pair_word((1, 2), (2, 1), 2) == (2, 3)
    assert split_word((2, 3), 2) == ((1, 2), (2, 1))


def test_to_tsv_formats():
    f = Series.of(2, 2, {(1,): Fraction(1, 2), (2, 1): -1})
    lines = to_tsv(f).splitlines()
    assert "1\t1/2" in lines
    assert "2,1\t-1/1" in lines
    g = Series.of(4, 2, {(2, 3): 1})
    assert "1:2,2:1\t1/1" in to_tsv(g, pair_d=2).splitlines()


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_convolve_with_zeta_is_invertible(seed):
    rng = random.Random(seed)
    f = random_invertible_series(rng, 2, 3)
    assert boxed_convolve(boxed_convolve(f, zeta(2, 3)), moebius(2, 3)) == f


@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=st.integers(1, 3))
def test_boxed_convolve_matches_term_by_term(data, s):
    order = data.draw(st.integers(1, SLOW_MAX_ORDER[s]))
    f = data.draw(rational_series(s, order))
    g = data.draw(rational_series(s, order))
    assert boxed_convolve(f, g) == slow_boxed_convolve(f, g)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), s=st.integers(1, 2))
def test_ext_boxed_convolve_matches_term_by_term(data, d, s):
    order = data.draw(st.integers(1, SLOW_MAX_ORDER[s * d]))
    f = data.draw(rational_series(s * d, order))
    g = data.draw(rational_series(d, order))
    assert ext_boxed_convolve(f, g) == slow_boxed_convolve(f, g, d)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), s=st.integers(1, 3))
def test_boxed_inverse_is_two_sided_term_by_term(data, s):
    order = data.draw(st.integers(1, SLOW_MAX_ORDER[s]))
    f = data.draw(rational_series(s, order, invertible=True))
    inv = boxed_inverse(f)
    assert slow_boxed_convolve(inv, f) == delta(s, order)
    assert slow_boxed_convolve(f, inv) == delta(s, order)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), s=st.integers(1, 3))
def test_boxed_inverse_routes_agree_on_rational_series(data, s):
    # the public inverse against the kernel run on f, and the cumulant route
    # taken explicitly, whichever the word count picks
    order = data.draw(st.integers(1, SLOW_MAX_ORDER[s]))
    f = data.draw(rational_series(s, order, invertible=True))
    want = _kernel_inverse(f)
    assert boxed_inverse(f) == want
    assert r_transform(_kernel_inverse(r_transform(f))) == want


@settings(max_examples=30, deadline=None)
@given(data=st.data(), generators=st.integers(1, 3), order=st.integers(1, 4))
def test_boxed_inverse_routes_agree_on_moment_series(data, generators, order):
    # elements shifted by a drawn constant, so that most have nonzero means
    model = data.draw(sparse_models(generators, 2 * order))
    shift = NcPolynomial.unit().scale(data.draw(st.sampled_from([0, 1, Fraction(-3, 2)])))
    elements = [p + shift for p in data.draw(moment_elements(generators))]
    f = moment_series(model, elements, order)
    try:
        want = _kernel_inverse(f)
    except ValueError as err:  # an element with mean zero
        with pytest.raises(ValueError, match=re.escape(str(err))):
            boxed_inverse(f)
        return
    assert boxed_inverse(f) == want


def _scalar_job_moments(rng: random.Random, gens: int, order: int, free: bool) -> Series:
    # The scalar jobs of the freeness benchmark: second and third cumulants
    # per generator, a chain of mixed second cumulants on generators 2..gens
    # and, unless free, one between generators 1 and 2; linear elements with
    # nonzero means, the first on generator 1, the others on 2..gens.
    table = {}
    for g in range(1, gens + 1):
        table[(g, g)] = Fraction(rng.randint(1, 4), 2)
        table[(g, g, g)] = Fraction(rng.randint(1, 2), 3)
    for g in range(2, gens):
        table[(g, g + 1)] = table[(g + 1, g)] = Fraction(1, 3)
    if not free:
        table[(1, 2)] = table[(2, 1)] = Fraction(rng.randint(1, 2), 4)
    elements = []
    for r in range(1, gens + 1):
        pool = [1] if r == 1 else range(2, gens + 1)
        terms = {(): rng.randint(1, 4)} | {(g,): Fraction(rng.randint(1, 4), 2) for g in pool}
        elements.append(NcPolynomial.of(terms))
    return moment_series(CumulantModel.of(gens, order, table), elements)


@pytest.mark.parametrize("free", [True, False])
@pytest.mark.parametrize("gens, order", [(2, 6), (3, 5)])
def test_boxed_inverse_runs_the_kernel_on_sparse_cumulants(monkeypatch, gens, order, free):
    m = _scalar_job_moments(random.Random(f"{gens}:{order}:{free}"), gens, order, free)
    operands = []

    def kernel(f):
        operands.append(f)
        return _kernel_inverse(f)

    monkeypatch.setattr(freeprob, "_kernel_inverse", kernel)
    r = r_transform(m)
    assert len(r.items) < len(m.items)
    assert boxed_inverse(m) == _kernel_inverse(m)
    assert operands == [r]
