"""Monte Carlo cross-check with Gaussian block random matrices.

One d x d block matrix is sampled with independent M x M Gaussian blocks:
self-adjoint on the diagonal, complex with adjoint partner off the diagonal,
scaled so the limiting entries are semicircular / circular elements whose
second cumulant is radius^2 / 4.  Empirical trace moments of the assembled
dM x dM matrix are compared against the exact moments computed from the
cyclic table with the same radii.

Floating point lives only in this module; exact predictions are converted to
floats at comparison time.  Per-trial RNG streams are derived from
(seed, trial index), so trial order never changes the numbers.  numpy loads
on the first sample, not on import: `McConfig`, `exact_family_moments` and
`compare` on given samples run without it.  `oracle`, for its report type,
loads on the first `compare`.  `McConfig.of` refuses a sampled dimension
d * M above MAX_SAMPLE_DIM, more than MAX_TRIALS trials and a sampling cost
trials * (d * M)^3 above MAX_SAMPLE_COST, before any memory is asked for or
any exact work is done.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from ._frozen import frozen
from .rcyclic import RCyclicFamily, determining_series, family_moments
from .series import coef

if TYPE_CHECKING:
    import numpy as np

    from .oracle import OracleReport

MIN_MATRIX_SIZE = 16
MAX_MC_MOMENT = 8
# a sampled matrix of dimension d*M holds 16 (d*M)^2 bytes, 256 MiB at the
# cap; the trial cap bounds the per-trial moment array
MAX_SAMPLE_DIM = 4096
MAX_TRIALS = 10_000
# each trial diagonalizes a matrix of dimension d*M, so trials * (d*M)^3
# bounds the run time: one trial at d*M = 4096 (about 6.9e10) took about
# 10 s of wall time on a 2-core Xeon.  10^11 admits the CLI defaults (d = 2,
# M = 512, 20 trials: about 2.1e10), the `scripts/mc_crosscheck.py` sweep
# and the benchmark's requests, and refuses d = 2, M = 2048 with 20 trials
# (about 1.4e12), which the caps above admit
MAX_SAMPLE_COST = 10**11


@frozen
class McConfig:
    """Sampling configuration: block radii grid plus matrix size, trial count
    and master seed."""

    d: int
    radii: tuple[tuple[Fraction, ...], ...]
    size: int
    trials: int
    seed: int

    @classmethod
    def of(
        cls,
        d: int,
        radii: Sequence[Sequence[Fraction | int]],
        size: int,
        trials: int,
        seed: int,
    ) -> "McConfig":
        if d < 1:
            raise ValueError(f"block dimension must be positive, got {d}")
        grid = tuple(tuple(Fraction(v) for v in row) for row in radii)
        if len(grid) != d or any(len(row) != d for row in grid):
            raise ValueError(f"radii grid must be {d}x{d}")
        for i in range(d):
            for j in range(d):
                if grid[i][j] < 0:
                    raise ValueError(f"radius at ({i + 1},{j + 1}) is negative")
                if grid[i][j] != grid[j][i]:
                    raise ValueError(f"radii grid not symmetric at ({i + 1},{j + 1})")
        if size < MIN_MATRIX_SIZE:
            raise ValueError(f"matrix size must be at least {MIN_MATRIX_SIZE}, got {size}")
        if d * size > MAX_SAMPLE_DIM:
            raise ValueError(
                f"sampled dimension {d}*{size} = {d * size} exceeds the cap of {MAX_SAMPLE_DIM}"
            )
        if trials < 1:
            raise ValueError(f"trial count must be positive, got {trials}")
        if trials > MAX_TRIALS:
            raise ValueError(f"trial count {trials} exceeds the cap of {MAX_TRIALS}")
        cost = trials * (d * size) ** 3
        if cost > MAX_SAMPLE_COST:
            raise ValueError(
                f"sampling cost {trials}*({d}*{size})^3 = {cost:.2e} exceeds the cap of "
                f"{MAX_SAMPLE_COST:.0e}"
            )
        return cls(d, grid, size, trials, seed)


def _sample_matrix(cfg: McConfig, rng: np.random.Generator) -> np.ndarray:
    import numpy as np

    d, m = cfg.d, cfg.size
    blocks: list[list[np.ndarray | None]] = [[None] * d for _ in range(d)]
    for i in range(d):
        # entry variance r^2/(4M) makes the limit semicircular of radius r
        var = float(cfg.radii[i][i]) ** 2 / (4 * m)
        g = rng.normal(0.0, math.sqrt(var / 2), (m, m)) + 1j * rng.normal(
            0.0, math.sqrt(var / 2), (m, m)
        )
        blocks[i][i] = (g + g.conj().T) / math.sqrt(2)
    for i in range(d):
        for j in range(i + 1, d):
            var = float(cfg.radii[i][j]) ** 2 / (4 * m)
            g = rng.normal(0.0, math.sqrt(var / 2), (m, m)) + 1j * rng.normal(
                0.0, math.sqrt(var / 2), (m, m)
            )
            blocks[i][j] = g
            blocks[j][i] = g.conj().T
    return np.block(blocks)


def sample_block_moments(
    cfg: McConfig, max_moment: int
) -> tuple[tuple[int, float, float], ...]:
    """Empirical normalized trace moments, one (n, mean, standard error)
    triple per n = 1..max_moment.  Standard error is +inf for a single trial."""
    if not 1 <= max_moment <= MAX_MC_MOMENT:
        raise ValueError(f"max moment must be in 1..{MAX_MC_MOMENT}, got {max_moment}")
    import numpy as np

    per_trial = np.empty((cfg.trials, max_moment))
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        evs = np.linalg.eigvalsh(_sample_matrix(cfg, rng))
        for n in range(1, max_moment + 1):
            per_trial[t, n - 1] = float(np.mean(evs**n))
    out = []
    for n in range(1, max_moment + 1):
        vals = per_trial[:, n - 1]
        mean = float(np.mean(vals))
        stderr = (
            float(np.std(vals, ddof=1) / math.sqrt(cfg.trials))
            if cfg.trials > 1
            else math.inf
        )
        out.append((n, mean, stderr))
    return tuple(out)


def exact_family_moments(cfg: McConfig, max_moment: int) -> dict[int, Fraction]:
    """Exact trace moments of the limiting family: the radii fill a cyclic
    table with only second cumulants, and the usual moment formula applies."""
    if max_moment < 1:
        raise ValueError(f"max moment must be positive, got {max_moment}")
    order = max(2, max_moment)
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
    for i1 in range(1, cfg.d + 1):
        for i2 in range(1, cfg.d + 1):
            r = cfg.radii[i1 - 1][i2 - 1]
            if r:
                table[((1, 1), (i1, i2))] = r * r / 4
    fam = RCyclicFamily.of(cfg.d, 1, order, table)
    moments = family_moments(determining_series(fam), cfg.d)
    return {n: coef(moments, (1,) * n) for n in range(1, max_moment + 1)}


def finite_size_allowance(cfg: McConfig, n: int) -> float:
    """Heuristic bias allowance C for moment n: 4 * (largest radius)^n."""
    top = max(float(v) for row in cfg.radii for v in row)
    return 4.0 * top**n


def compare(
    cfg: McConfig,
    predictions: Mapping[int, Fraction],
    samples: Sequence[tuple[int, float, float]] | None = None,
) -> list[OracleReport]:
    """One report per predicted moment: empirical mean must sit within
    3 * (standard error + C/M) of the exact value."""
    from .oracle import OracleReport

    if samples is None:
        samples = sample_block_moments(cfg, max(predictions))
    by_n = {n: (mean, stderr) for n, mean, stderr in samples}
    reports = []
    for n in sorted(predictions):
        exact = float(predictions[n])
        mean, stderr = by_n[n]
        tol = 3.0 * (stderr + finite_size_allowance(cfg, n) / cfg.size)
        dev = abs(mean - exact)
        reports.append(
            OracleReport(
                name="mc-moment",
                inputs=f"n={n} M={cfg.size} trials={cfg.trials} seed={cfg.seed}",
                expected=f"{exact:.6f} within {tol:.6f}",
                actual=f"{mean:.6f} off by {dev:.6f}",
                passed=dev <= tol,
            )
        )
    return reports
