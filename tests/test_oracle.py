import itertools
from fractions import Fraction

import pytest

from ncfree import oracle
from ncfree.freeprob import CumulantModel, NcPolynomial, moment_series
from ncfree.ncpartition import Partition, enumerate_nc, kreweras
from ncfree.oracle import (
    OracleReport,
    all_set_partitions,
    brute_force_family_moments,
    cumulants_by_inversion,
    kreweras_by_search,
    nc_by_filter,
    run_suite,
)
from ncfree.rcyclic import determining_series, family_moments
from ncfree.series import coef
from helpers import circular_2x2, mixed_2x2

BELL = [1, 1, 2, 5, 15, 52, 203]
CATALAN = [1, 1, 2, 5, 14, 42, 132]


def test_all_set_partitions_counts():
    for n in range(1, 7):
        parts = all_set_partitions(n)
        assert len(parts) == BELL[n]
        assert len(set(parts)) == len(parts)
    with pytest.raises(ValueError):
        all_set_partitions(10)


def test_nc_filter_counts():
    for n in range(1, 7):
        assert len(nc_by_filter(n)) == CATALAN[n]
        assert set(nc_by_filter(n)) == set(enumerate_nc(n))


def test_kreweras_by_search_matches_fast():
    for n in range(1, 6):
        for p in enumerate_nc(n):
            assert kreweras_by_search(p) == kreweras(p)


def test_kreweras_by_search_worked_example():
    p = Partition.of(5, [[1, 2, 5], [3, 4]])
    assert str(kreweras_by_search(p)) == "{1}{2,4}{3}{5}"


def test_kreweras_by_search_rejects_two_complements(monkeypatch):
    # a search that meets the complement twice raises rather than asserting
    p = Partition.of(3, [[1, 3], [2]])
    doubled = (kreweras(p),) * 2
    monkeypatch.setattr(oracle, "_nc_filtered", lambda n: doubled)
    with pytest.raises(RuntimeError, match="complement not unique"):
        kreweras_by_search(p)


def test_nc_by_filter_returns_a_fresh_list():
    first = nc_by_filter(4)
    first.clear()
    assert len(nc_by_filter(4)) == CATALAN[4]


def test_inversion_recovers_semicircular_cumulants():
    model = CumulantModel.of(1, 5, {(1, 1): 1})
    m = moment_series(model, [NcPolynomial.generator(1)], order=5)
    kappa = cumulants_by_inversion(m.coeffs, 1, 5)
    assert kappa == {(1, 1): Fraction(1)}


def test_inversion_of_zero_moments():
    assert cumulants_by_inversion({}, 2, 3) == {}
    with pytest.raises(ValueError):
        cumulants_by_inversion({}, 1, 6)


def test_brute_force_family_moments_circular():
    fam = circular_2x2(4)
    m = brute_force_family_moments(fam, 4)
    assert [coef(m, (1,) * n) for n in range(1, 5)] == [0, 1, 0, 2]
    assert m == family_moments(determining_series(fam), 2)


def test_brute_force_family_moments_mixed():
    fam = mixed_2x2(4)
    m = brute_force_family_moments(fam, 4)
    assert coef(m, (1, 1)) == 2
    assert coef(m, (1, 1, 1, 1)) == 8


def test_report_line_format():
    r = OracleReport.compare("thing", "n=2", 5, 5)
    assert r.passed
    assert r.line() == "PASS\tthing\tn=2\t5\t5"
    r2 = OracleReport.compare("thing", "n=2", 5, 6)
    assert r2.line().startswith("FAIL\t")


def test_run_suite_all_green():
    reports = run_suite("all", order=3)
    assert reports and all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert any("kreweras" in n for n in names)
    with pytest.raises(ValueError):
        run_suite("bogus", order=3)


def test_run_suite_rejects_order_past_cap():
    for order in (0, 9):
        with pytest.raises(ValueError, match="order"):
            run_suite("all", order)
