"""Slow definitional cross-checks for the fast combinatorial paths.

Everything here is written straight from definitions: set partitions are
generated by element insertion, crossing is the literal four-point test,
Kreweras complements are found by exhaustive search, and cumulants come from
the triangular moment inversion.  None of it shares logic with the fast
modules, which is the point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from ._frozen import frozen
from .ncpartition import Partition

Word = tuple[int, ...]

MAX_SET_PARTITION_N = 9
MAX_SEARCH_N = 8
MAX_SUITE_ORDER = 8
MAX_INVERSION_ORDER = 5


@frozen
class OracleReport:
    """One comparison between an oracle value and an engine value."""

    name: str
    inputs: str
    expected: str
    actual: str
    passed: bool

    @classmethod
    def compare(cls, name: str, inputs: str, expected: object, actual: object) -> "OracleReport":
        e, a = str(expected), str(actual)
        return cls(name, inputs, e, a, e == a)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}\t{self.name}\t{self.inputs}\t{self.expected}\t{self.actual}"


def all_set_partitions(n: int) -> list[Partition]:
    """Every set partition of {1..n}, by inserting elements one at a time."""
    if not 1 <= n <= MAX_SET_PARTITION_N:
        raise ValueError(f"n must be in 1..{MAX_SET_PARTITION_N}, got {n}")
    parts: list[list[list[int]]] = [[[1]]]
    for e in range(2, n + 1):
        grown = []
        for part in parts:
            for t in range(len(part)):
                grown.append([b + [e] if i == t else list(b) for i, b in enumerate(part)])
            grown.append([list(b) for b in part] + [[e]])
        parts = grown
    return [Partition.of(n, p) for p in parts]


def _crosses(p: Partition) -> bool:
    # literal four-point definition
    owner = {}
    for t, block in enumerate(p.blocks):
        for e in block:
            owner[e] = t
    for i, j, k, l in itertools.combinations(range(1, p.n + 1), 4):
        if owner[i] == owner[k] and owner[j] == owner[l] and owner[i] != owner[j]:
            return True
    return False


def nc_by_filter(n: int) -> list[Partition]:
    """Non-crossing partitions obtained by filtering all set partitions."""
    return list(_nc_filtered(n))


@lru_cache(maxsize=MAX_SET_PARTITION_N)
def _nc_filtered(n: int) -> tuple[Partition, ...]:
    return tuple(p for p in all_set_partitions(n) if not _crosses(p))


def _perm_images(p: Partition) -> tuple[int, ...]:
    images = [0] * p.n
    for block in p.blocks:
        for t, e in enumerate(block):
            images[e - 1] = block[(t + 1) % len(block)]
    return tuple(images)


def kreweras_by_search(p: Partition) -> Partition:
    """Search all non-crossing q whose permutation completes p to the forward cycle."""
    n = p.n
    if n > MAX_SEARCH_N:
        raise ValueError(f"search oracle limited to n <= {MAX_SEARCH_N}")
    gamma = tuple(range(2, n + 1)) + (1,)
    pim = _perm_images(p)
    hits = []
    for q in _nc_filtered(n):
        qim = _perm_images(q)
        if tuple(pim[qim[k] - 1] for k in range(n)) == gamma:
            hits.append(q)
    if len(hits) != 1:
        raise RuntimeError(f"complement not unique for {p}: {hits}")
    return hits[0]


def cumulants_by_inversion(
    moments: Mapping[Word, Fraction], alphabet: int, order: int
) -> dict[Word, Fraction]:
    """Solve the moment-cumulant relation degree by degree.

    The moment of a word equals the sum over non-crossing partitions of the
    products of cumulants of the restricted subwords; the full-block term is
    the only one involving the cumulant of the whole word, so the system is
    triangular in the word length.
    """
    if order > MAX_INVERSION_ORDER:
        raise ValueError(f"inversion oracle limited to order {MAX_INVERSION_ORDER}")
    kappa: dict[Word, Fraction] = {}
    for n in range(1, order + 1):
        for w in itertools.product(range(1, alphabet + 1), repeat=n):
            acc = Fraction(0)
            for p in _nc_filtered(n):
                if len(p.blocks) == 1:
                    continue
                term = Fraction(1)
                for block in p.blocks:
                    term *= kappa.get(tuple(w[e - 1] for e in block), Fraction(0))
                    if not term:
                        break
                acc += term
            val = Fraction(moments.get(w, Fraction(0))) - acc
            if val:
                kappa[w] = val
    return kappa


def brute_force_family_moments(fam, order: int):
    """Moments of a matrix family straight from entrywise expectations.

    For each word of matrix labels, multiply the matrices symbolically and
    average the state over the diagonal entries (the normalized trace of the
    entrywise expectation).
    """
    from .freeprob import phi_poly, product_sum
    from .series import Series

    d, s, model = fam.d, fam.s, fam.model
    out: dict[Word, Fraction] = {}

    def grid_mul(a, b):
        return tuple(
            tuple(product_sum((a[i][k], b[k][j]) for k in range(d)) for j in range(d))
            for i in range(d)
        )

    def walk(word: Word, prod) -> None:
        val = sum((phi_poly(model, prod[i][i]) for i in range(d)), Fraction(0)) / d
        if val:
            out[word] = val
        if len(word) < order:
            for r in range(1, s + 1):
                walk(word + (r,), grid_mul(prod, fam.grids[r - 1]))

    for r in range(1, s + 1):
        walk((r,), fam.grids[r - 1])
    return Series.of(s, order, out)


def run_suite(name: str, order: int = 4) -> list[OracleReport]:
    """Run one named verification suite; 'all' chains every suite."""
    if not 1 <= order <= MAX_SUITE_ORDER:
        # the dense s=2 series suite grows about sixfold per order
        raise ValueError(f"suite order must be in 1..{MAX_SUITE_ORDER}, got {order}")
    suites = {
        "ncpartition": _suite_ncpartition,
        "series": _suite_series,
        "freeprob": _suite_freeprob,
        "rcyclic": _suite_rcyclic,
    }
    if name == "all":
        reports: list[OracleReport] = []
        for fn in suites.values():
            reports.extend(fn(order))
        return reports
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(suites)} or 'all'")
    return suites[name](order)


def _suite_ncpartition(order: int) -> list[OracleReport]:
    from . import ncpartition as ncp

    reports = []
    for n in range(1, 8):
        fast = len(ncp.enumerate_nc(n))
        slow = len(nc_by_filter(n)) if n <= MAX_SET_PARTITION_N else fast
        reports.append(OracleReport.compare("nc-count", f"n={n}", slow, fast))
    for n in range(1, 7):
        bad = [p for p in ncp.enumerate_nc(n) if ncp.kreweras(p) != kreweras_by_search(p)]
        reports.append(OracleReport.compare("kreweras-search", f"n={n}", "[]", bad))
    worked = ncp.kreweras(Partition.of(5, [(1, 2, 5), (3, 4)]))
    reports.append(
        OracleReport.compare("kreweras-worked", "{1,2,5}{3,4}", "{1}{2,4}{3}{5}", worked)
    )
    return reports


def _suite_series(order: int) -> list[OracleReport]:
    import math

    from . import series as ser
    from .freeprob import boxed_inverse

    reports = []
    mob = ser.moebius(2, order)
    for n in range(1, order + 1):
        want = Fraction((-1) ** (n + 1) * math.comb(2 * n - 2, n - 1), n)
        got = ser.coef(mob, (1,) * n)
        reports.append(OracleReport.compare("moebius-coef", f"n={n}", want, got))
    inv = boxed_inverse(ser.zeta(2, order))
    reports.append(OracleReport.compare("moebius-inverse", f"s=2 N={order}", mob, inv))
    prod = ser.boxed_convolve(ser.zeta(2, order), mob)
    reports.append(
        OracleReport.compare("zeta-moebius-delta", f"s=2 N={order}", ser.delta(2, order), prod)
    )
    return reports


def _suite_freeprob(order: int) -> list[OracleReport]:
    from . import freeprob as fp

    reports = []
    model = fp.CumulantModel.of(1, order, {(1, 1): Fraction(1)})
    mom = fp.moment_series(model, [fp.NcPolynomial.generator(1)])
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, order + 1):
        want = Fraction(0) if n % 2 else Fraction(catalan[n // 2])
        got = fp.phi_word(model, (1,) * n)
        reports.append(OracleReport.compare("semicircle-moment", f"n={n}", want, got))
    moments = dict(mom.coeffs)
    back = cumulants_by_inversion(moments, 1, min(order, MAX_INVERSION_ORDER))
    want_table = {
        w: v for w, v in model.coeffs.items() if len(w) <= min(order, MAX_INVERSION_ORDER)
    }
    reports.append(
        OracleReport.compare(
            "cumulant-inversion", "semicircular", _fmt_table(want_table), _fmt_table(back)
        )
    )
    return reports


def _fmt_table(table: Mapping[Word, Fraction]) -> str:
    items = sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return "{" + ", ".join(f"{w}: {v}" for w, v in items) + "}"


def _suite_rcyclic(order: int) -> list[OracleReport]:
    from . import rcyclic as rc
    from .freeprob import CumulantModel

    reports = []
    # one matrix, off-diagonal circular pair: entries (1,2) and (2,1)
    model = CumulantModel.of(4, order, {(2, 3): Fraction(1), (3, 2): Fraction(1)})
    fam = rc.MatrixFamily.from_generator_entries(2, 1, model)
    f = rc.determining_series(fam)
    eng = rc.family_moments(f, 2)
    brute = brute_force_family_moments(fam, order)
    reports.append(OracleReport.compare("family-moments", f"circular 2x2 N={order}", brute, eng))
    rt = rc.family_rtransform(f, 2)
    reports.append(
        OracleReport.compare(
            "family-rtransform",
            "circular 2x2",
            _fmt_table({(1, 1): Fraction(1)}),
            _fmt_table(rt.coeffs),
        )
    )
    return reports
