"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [criterion k] PASS/FAIL line so the suite output
doubles as the acceptance report.  Tolerances and seeds are fixed here and
nowhere else.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ncfree.freeprob import NcPolynomial, check_free, product_cumulant
from ncfree.mc import McConfig, compare, exact_family_moments, sample_block_moments
from ncfree.ncpartition import Partition, enumerate_nc, kreweras
from ncfree.opvalued import (
    OperatorMatrix,
    ScalarMatrix,
    bvalued_cumulant_entrywise,
    check_amalgamated_freeness,
    dcumulant_data,
    dvalued_cumulant,
    expect_b,
    expect_d,
    ktilde,
    odot,
    opvalued_cumulant_generic,
)
from ncfree.oracle import brute_force_family_moments, kreweras_by_search, nc_by_filter
from ncfree.rcyclic import (
    RCyclicFamily,
    closure_check,
    cyclic_family,
    determining_series,
    entry_letter,
    family_moments,
    family_rtransform,
    partial_sum_rtransform,
)
from ncfree.series import (
    boxed_convolve,
    coef,
    delta,
    dilate,
    ext_boxed_convolve,
    geometric,
    h_series,
    moebius,
    pair_word,
    scale,
    zeta,
)
from helpers import (
    PartitionPermutation,
    bvalued_cumulant_pi,
    circular_2x2,
    constant_table_family,
    cumulant_of_elements,
    diagonal_free_2x2,
    first_moment_family,
    detached_diagonal_family,
    gen_coef,
    mixed_2x2,
    model_from_cyclic_table,
    opvalued_cumulant_pi,
    perm_of,
    random_cyclic_table,
    random_model,
    random_series,
    two_free_mixed_2x2,
)

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}
ALPHAS = (Fraction(2), Fraction(-1), Fraction(1, 3))


@contextmanager
def criterion(number, name, capsys):
    with capsys.disabled():
        try:
            yield
        except BaseException:
            print(f"[criterion {number}] {name}: FAIL")
            raise
        print(f"[criterion {number}] {name}: PASS")


def family_matrix(fam, r=1):
    grid = [[fam.entry(r, i, j) for j in range(1, fam.d + 1)] for i in range(1, fam.d + 1)]
    return OperatorMatrix.of(fam.model, grid)


def test_criterion_01_partition_counts(capsys):
    with criterion(1, "non-crossing enumeration counts", capsys):
        for n in range(1, 8):
            fast = enumerate_nc(n)
            assert len(fast) == CATALAN[n]
            assert set(fast) == set(nc_by_filter(n))


def test_criterion_02_kreweras_complement(capsys):
    with criterion(2, "Kreweras complement identities", capsys):
        example = Partition.of(5, [[1, 2, 5], [3, 4]])
        assert str(kreweras(example)) == "{1}{2,4}{3}{5}"
        for n in range(1, 8):
            gamma = PartitionPermutation.forward_cycle(n)
            for p in enumerate_nc(n):
                q = kreweras(p)
                assert perm_of(p).compose(perm_of(q)) == gamma
                assert p.block_count() + q.block_count() == n + 1
                assert kreweras_by_search(p) == q


def test_criterion_03_convolution_identities(capsys):
    with criterion(3, "boxed convolution identities", capsys):
        for s in (1, 2, 3):
            assert boxed_convolve(zeta(s, 5), moebius(s, 5)) == delta(s, 5)
            assert boxed_convolve(moebius(s, 5), zeta(s, 5)) == delta(s, 5)
        for t in range(200):
            rng = random.Random(3000 + t)
            s = rng.choice((1, 2))
            d = rng.choice((1, 2, 3))
            order = rng.choice((3, 4, 5))
            alpha = ALPHAS[t % 3]
            f = random_series(rng, s * d, order, per_length=2)
            f2 = random_series(rng, s * d, order, per_length=2)
            f3 = random_series(rng, s * d, order, per_length=2)
            g = random_series(rng, d, order, per_length=2)
            h = random_series(rng, d, order, per_length=2)
            assert boxed_convolve(boxed_convolve(f, f2), f3) == boxed_convolve(
                f, boxed_convolve(f2, f3)
            )
            assert ext_boxed_convolve(ext_boxed_convolve(f, g), h) == ext_boxed_convolve(
                f, boxed_convolve(g, h)
            )
            assert ext_boxed_convolve(f, zeta(d, order)) == boxed_convolve(
                f, zeta(s * d, order)
            )
            assert ext_boxed_convolve(f, moebius(d, order)) == boxed_convolve(
                f, moebius(s * d, order)
            )
            fg = ext_boxed_convolve(f, g)
            assert ext_boxed_convolve(dilate(f, alpha), g) == dilate(fg, alpha)
            assert ext_boxed_convolve(scale(f, alpha), scale(g, alpha)) == scale(
                dilate(fg, alpha), alpha
            )
            assert ext_boxed_convolve(scale(f, alpha), g) == scale(
                ext_boxed_convolve(f, scale(dilate(g, alpha), 1 / alpha)), alpha
            )


def test_criterion_04_index_sum_series(capsys):
    with criterion(4, "index-sum series structure", capsys):
        for d in (2, 3):
            h = h_series(d, 3)
            for i1, i2 in itertools.product(range(1, d + 1), repeat=2):
                assert coef(h, (i1, i2)) == Fraction(int(i1 == i2)) - Fraction(1, d)
            for w in itertools.product(range(1, d + 1), repeat=3):
                i1, i2, i3 = w
                expect = (
                    Fraction(int(i1 == i2 == i3))
                    - Fraction(int(i1 == i2) + int(i1 == i3) + int(i2 == i3), d)
                    + Fraction(2, d * d)
                )
                assert coef(h, w) == expect
        # every slot sums to zero across its index, in all degrees past one
        for d in (2, 3):
            h = h_series(d, 5)
            for n in range(2, 6):
                for slot in range(n):
                    for rest in itertools.product(range(1, d + 1), repeat=n - 1):
                        total = sum(
                            coef(h, rest[:slot] + (i,) + rest[slot:])
                            for i in range(1, d + 1)
                        )
                        assert total == 0
        # the two constructions agree coefficientwise
        for d in (2, 3, 4):
            direct = h_series(d, 6)
            flipped = scale(
                boxed_convolve(scale(geometric(d, 6), Fraction(1, d)), moebius(d, 6)), d
            )
            assert direct == flipped


def test_criterion_05_family_moments_vs_brute_force(capsys):
    with criterion(5, "family moments against brute force", capsys):
        for fam in (circular_2x2(6), diagonal_free_2x2(6), mixed_2x2(6)):
            engine = family_moments(determining_series(fam), fam.d)
            brute = brute_force_family_moments(fam, 6)
            assert engine == brute


def test_criterion_06_chain_cumulant_factorization(capsys):
    with criterion(6, "chain cumulant factorization", capsys):
        for t in range(50):
            rng = random.Random(6000 + t)
            s = 1 if t < 25 else 2
            fam = random_cyclic_table(rng, 2, s, 5, per_length=3)
            d = fam.d
            model, _ = model_from_cyclic_table(fam)
            table = model.table
            f = determining_series(fam)
            g = geometric(d, fam.order)
            for n in range(2, 6):
                pairs_list = [(p, kreweras(p)) for p in enumerate_nc(n)]
                for iword in itertools.product(range(1, d + 1), repeat=n):
                    # the complement's factor depends on iword alone
                    g_coefs = [gen_coef(g, iword, kr) for _, kr in pairs_list]
                    for rword in itertools.product(range(1, s + 1), repeat=n):
                        letters = tuple(
                            entry_letter(rword[t2], iword[t2 - 1], iword[t2], d)
                            for t2 in range(n)
                        )
                        pw = pair_word(rword, iword, d)
                        for (p, _), g_coef in zip(pairs_list, g_coefs):
                            lhs = Fraction(1)
                            for block in p.blocks:
                                lhs *= table.get(
                                    tuple(letters[e - 1] for e in block), Fraction(0)
                                )
                                if not lhs:
                                    break
                            assert lhs == gen_coef(f, pw, p) * g_coef


def test_criterion_07_explicit_family_rtransforms(capsys):
    with criterion(7, "explicit family R-transforms", capsys):
        # one circular pair: the family is a standard semicircular
        circ = circular_2x2()
        f = determining_series(circ)
        assert family_rtransform(f, 2).coeffs == {(1, 1): Fraction(1)}
        m = family_moments(f, 2)
        assert [coef(m, (1,) * n) for n in range(1, 7)] == [0, 1, 0, 2, 0, 5]

        # all four entries at radius 2: semicircular of doubled variance
        mixed = mixed_2x2()
        fm = determining_series(mixed)
        assert family_rtransform(fm, 2).coeffs == {(1, 1): Fraction(2)}
        mm = family_moments(fm, 2)
        assert (coef(mm, (1, 1)), coef(mm, (1,) * 4), coef(mm, (1,) * 6)) == (2, 8, 40)

        # two such matrices with independent entries come out free
        pair = two_free_mixed_2x2()
        fp = determining_series(pair)
        rt = family_rtransform(fp, 2)
        assert rt.coeffs == {(1, 1): Fraction(2), (2, 2): Fraction(2)}
        ok, witness = check_free(rt, [[1], [2]])
        assert ok and witness is None
        assert partial_sum_rtransform(fp, 2) == rt

        # index-constant tables scale by pure powers of the dimension
        alpha1 = {
            (1,): Fraction(1, 2),
            (1, 1): Fraction(1, 3),
            (1, 1, 1): Fraction(-1),
            (1, 1, 1, 1): Fraction(1, 4),
        }
        fam1 = constant_table_family(2, 1, 4, alpha1)
        r1 = partial_sum_rtransform(determining_series(fam1), 2)
        assert r1 == family_rtransform(determining_series(fam1), 2)
        for rword, a in alpha1.items():
            assert coef(r1, rword) == 2 ** (len(rword) - 1) * a
        alpha2 = {}
        for n in range(1, 4):
            for k, rword in enumerate(itertools.product((1, 2), repeat=n)):
                alpha2[rword] = Fraction(k + 1, n + 2)
        fam2 = constant_table_family(2, 2, 3, alpha2)
        r2 = partial_sum_rtransform(determining_series(fam2), 2)
        for rword, a in alpha2.items():
            assert coef(r2, rword) == 2 ** (len(rword) - 1) * a


def test_criterion_08_adjunction_closure(capsys):
    with criterion(8, "adjoined matrices stay in the class", capsys):
        fam = two_free_mixed_2x2(6)
        a = [[fam.entry(1, i, j) for j in (1, 2)] for i in (1, 2)]
        b = [[fam.entry(2, i, j) for j in (1, 2)] for i in (1, 2)]
        prod = [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]
        combo = [[a[i][j].scale(2) - b[i][j] for j in (0, 1)] for i in (0, 1)]
        diag = [
            [NcPolynomial.unit(), NcPolynomial.zero()],
            [NcPolynomial.zero(), NcPolynomial.unit().scale(2)],
        ]
        for grid in (prod, combo, diag):
            ok, witness = closure_check(fam, grid, budget=4)
            assert ok and witness is None
        v12 = [
            [NcPolynomial.zero(), NcPolynomial.unit()],
            [NcPolynomial.zero(), NcPolynomial.zero()],
        ]
        ok, witness = closure_check(fam, v12, budget=3)
        assert not ok
        assert witness == ((3,), ((1, 2),))

        # merging two neighbours of a cumulant agrees with the direct definition
        for t in range(100):
            rng = random.Random(8000 + t)
            model = random_model(rng, 2, 5, per_length=4)
            n = rng.randint(2, 5)
            word = tuple(rng.randint(1, 2) for _ in range(n))
            mpos = rng.randint(1, n - 1)
            args = [NcPolynomial.generator(gidx) for gidx in word]
            merged = args[: mpos - 1] + [args[mpos - 1] * args[mpos]] + args[mpos + 1 :]
            assert product_cumulant(model, word, mpos) == cumulant_of_elements(
                model, merged
            )


def test_criterion_09_matrix_valued_cumulants(capsys):
    with criterion(9, "matrix-valued cumulant formulas", capsys):
        # full-matrix values against the defining recursion, random entries
        for t in range(50):
            rng = random.Random(9000 + t)
            model = random_model(rng, 4, 4, per_length=3)
            from ncfree.rcyclic import MatrixFamily

            fam = MatrixFamily.from_generator_entries(2, 1, model)
            x = family_matrix(fam)
            for n in (1, 2, 3, 4):
                assert bvalued_cumulant_entrywise([x] * n) == opvalued_cumulant_generic(
                    [x] * n, "B"
                )

        # diagonal values under the vanishing-chain hypothesis, R-cyclic or not
        for fam in (circular_2x2(4), mixed_2x2(4), detached_diagonal_family(4)):
            x = family_matrix(fam)
            for n in (1, 2, 3, 4):
                assert dvalued_cumulant([x] * n) == opvalued_cumulant_generic(
                    [x] * n, "D"
                )

        # partitioned pieces reassemble the expectation; cells match ktilde
        mixed = mixed_2x2(4)
        x = family_matrix(mixed)
        for n in (2, 3, 4):
            total = ScalarMatrix.zero(2)
            for p in enumerate_nc(n):
                piece = bvalued_cumulant_pi(p, [x] * n)
                assert piece == opvalued_cumulant_pi(p, [x] * n, "B")
                total = total + piece
            prod = x
            for _ in range(n - 1):
                prod = prod.mul(x)
            assert total == expect_b(prod)
        r = family_rtransform(determining_series(mixed), 2)
        for n in (1, 2, 3, 4):
            grid = odot([x] * n)
            assert ktilde(mixed.model, grid, "B") == bvalued_cumulant_entrywise([x] * n)
            assert ktilde(mixed.model, grid, "D") == dvalued_cumulant([x] * n)
            assert ktilde(mixed.model, grid, "C") == coef(r, (1,) * n)

        # projection weights cut the diagonal cumulant down to the cyclic table
        table = cyclic_family(mixed).table
        for n in (2, 3):
            for iword in itertools.product((1, 2), repeat=n):
                lambdas = [ScalarMatrix.unit(2, iword[k], iword[k]) for k in range(n - 1)]
                got = dvalued_cumulant([x] * n, lambdas)
                assert got.entry(iword[-1], iword[-1]) == table.get(
                    ((1,) * n, iword), Fraction(0)
                )


def test_criterion_10_amalgamated_freeness(capsys):
    with criterion(10, "amalgamated freeness characterization", capsys):
        # forward: cyclic-table families pass the alternating-word scan
        for fam in (circular_2x2(4), diagonal_free_2x2(4), mixed_2x2(4)):
            ok, witness = check_amalgamated_freeness([family_matrix(fam)], budget=4)
            assert ok and witness is None
        pair = two_free_mixed_2x2(4)
        mats = [family_matrix(pair, 1), family_matrix(pair, 2)]
        ok, witness = check_amalgamated_freeness(mats, budget=4)
        assert ok and witness is None

        # hand-built alternating words vanish under the diagonal expectation
        mixed = mixed_2x2(4)
        x = family_matrix(mixed)
        model = mixed.model
        v12 = OperatorMatrix.from_scalar(model, ScalarMatrix.unit(2, 1, 2))
        v21 = OperatorMatrix.from_scalar(model, ScalarMatrix.unit(2, 2, 1))
        xc = x.sub(OperatorMatrix.from_scalar(model, expect_d(x)))
        xxc = x.mul(x).sub(OperatorMatrix.from_scalar(model, expect_d(x.mul(x))))
        assert expect_d(xc.mul(v12).mul(xc)).is_zero()
        assert expect_d(v21.mul(xxc).mul(v12)).is_zero()
        assert expect_d(xc.mul(v12).mul(xc).mul(v21).mul(xc)).is_zero()

        # converse: matrix-valued cumulant data rebuilds the cyclic table
        for fam in (circular_2x2(4), mixed_2x2(4)):
            x = family_matrix(fam)
            data = dcumulant_data([x], 4)
            expect_table = cyclic_family(fam).table
            assert data == expect_table
            rebuilt = RCyclicFamily.of(2, 1, 4, data)
            assert family_moments(determining_series(rebuilt), 2) == family_moments(
                determining_series(fam), 2
            )

        # a first moment off the diagonal breaks freeness, with a short witness
        bad = family_matrix(first_moment_family(4))
        ok, witness = check_amalgamated_freeness([bad], budget=2)
        assert not ok
        assert witness == "1 V(2,1) A1"


def test_criterion_11_random_matrix_crosscheck(capsys):
    with criterion(11, "random matrix cross-check", capsys):
        # processor time, so a busy machine cannot fail the bound
        started = time.process_time()
        r2 = Fraction(2)
        cfg = McConfig.of(2, ((r2, r2), (r2, r2)), 512, 20, 20260819)
        exact = exact_family_moments(cfg, 6)
        # the exact engine must put the targets where the theory says
        assert exact[2] == 2 and exact[4] == 8 and exact[6] == 40
        samples = sample_block_moments(cfg, 6)
        reports = compare(cfg, {2: exact[2], 4: exact[4], 6: exact[6]}, samples)
        assert len(reports) == 3
        assert all(r.passed for r in reports)
        assert time.process_time() - started < 60.0
