import math
from fractions import Fraction

import numpy as np
import pytest

from ncfree.mc import (
    MAX_SAMPLE_COST,
    MAX_SAMPLE_DIM,
    MAX_TRIALS,
    McConfig,
    compare,
    exact_family_moments,
    finite_size_allowance,
    sample_block_moments,
)

RADII_2 = ((Fraction(2), Fraction(2)), (Fraction(2), Fraction(2)))


def test_config_validation():
    McConfig.of(2, RADII_2, 32, 2, 1)
    with pytest.raises(ValueError):
        McConfig.of(2, ((Fraction(2),),), 32, 2, 1)  # not square
    bad = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(1)))
    with pytest.raises(ValueError):
        McConfig.of(2, bad, 32, 2, 1)  # not symmetric
    with pytest.raises(ValueError):
        McConfig.of(2, RADII_2, 8, 2, 1)  # too small
    with pytest.raises(ValueError):
        McConfig.of(2, RADII_2, 32, 0, 1)
    neg = ((Fraction(-1), Fraction(2)), (Fraction(2), Fraction(1)))
    with pytest.raises(ValueError):
        McConfig.of(2, neg, 32, 2, 1)
    # oversized samples: d * M past MAX_SAMPLE_DIM, more than MAX_TRIALS, or
    # trials * (d * M)^3 past MAX_SAMPLE_COST; each cap at its own boundary,
    # with the other values small
    McConfig.of(2, RADII_2, MAX_SAMPLE_DIM // 2, 1, 1)
    with pytest.raises(ValueError, match="^sampled dimension 2\\*2049 = 4098 exceeds the cap of 4096$"):
        McConfig.of(2, RADII_2, MAX_SAMPLE_DIM // 2 + 1, 1, 1)
    McConfig.of(2, RADII_2, 32, MAX_TRIALS, 1)
    with pytest.raises(ValueError, match="^trial count 10001 exceeds the cap of 10000$"):
        McConfig.of(2, RADII_2, 32, MAX_TRIALS + 1, 1)
    one = ((Fraction(2),),)
    assert 100 * 1000**3 == MAX_SAMPLE_COST
    McConfig.of(1, one, 1000, 100, 1)
    refused = r"^sampling cost 101\*\(1\*1000\)\^3 = 1\.01e\+11 exceeds the cap of 1e\+11$"
    with pytest.raises(ValueError, match=refused):
        McConfig.of(1, one, 1000, 101, 1)


def test_exact_moments_single_semicircular():
    cfg = McConfig.of(1, ((Fraction(2),),), 32, 1, 1)
    exact = exact_family_moments(cfg, 6)
    assert [exact[n] for n in range(1, 7)] == [0, 1, 0, 2, 0, 5]


def test_exact_moments_full_radius_two():
    cfg = McConfig.of(2, RADII_2, 32, 1, 1)
    exact = exact_family_moments(cfg, 6)
    assert exact[2] == 2 and exact[4] == 8 and exact[6] == 40
    assert exact[1] == 0 and exact[3] == 0 and exact[5] == 0


def test_sampling_is_deterministic_in_the_seed():
    cfg = McConfig.of(2, RADII_2, 32, 3, 99)
    a = sample_block_moments(cfg, 4)
    b = sample_block_moments(cfg, 4)
    assert a == b
    c = sample_block_moments(McConfig.of(2, RADII_2, 32, 3, 100), 4)
    assert a != c


def test_single_trial_has_infinite_stderr():
    cfg = McConfig.of(1, ((Fraction(1),),), 32, 1, 5)
    samples = sample_block_moments(cfg, 2)
    assert all(math.isinf(se) for _, _, se in samples)


def test_sample_moment_bounds():
    cfg = McConfig.of(1, ((Fraction(1),),), 32, 1, 5)
    with pytest.raises(ValueError):
        sample_block_moments(cfg, 9)
    with pytest.raises(ValueError):
        sample_block_moments(cfg, 0)


def test_empirical_matches_exact_at_moderate_size():
    cfg = McConfig.of(2, RADII_2, 128, 6, 12345)
    exact = exact_family_moments(cfg, 4)
    reports = compare(cfg, {2: exact[2], 4: exact[4]})
    assert all(r.passed for r in reports)


def test_wrong_prediction_is_flagged():
    cfg = McConfig.of(2, RADII_2, 256, 6, 777)
    # pretend the entries had radius 1: second moment 1/2 instead of 2
    reports = compare(cfg, {2: Fraction(1, 2)})
    assert not reports[0].passed


def test_odd_moments_near_zero():
    cfg = McConfig.of(2, RADII_2, 128, 8, 2024)
    samples = sample_block_moments(cfg, 3)
    for n, mean, stderr in samples:
        if n % 2 == 1:
            assert abs(mean) <= 4 * stderr + 0.05


def test_finite_size_allowance_grows_with_moment():
    cfg = McConfig.of(2, RADII_2, 64, 2, 7)
    assert finite_size_allowance(cfg, 4) == 4.0 * 2.0**4
    assert finite_size_allowance(cfg, 6) > finite_size_allowance(cfg, 4)
