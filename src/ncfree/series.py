"""Truncated formal power series in non-commuting indeterminates.

A series over alphabet size s and truncation order N stores exact rational
coefficients on words (tuples of letters in 1..s) of length 1..N.  There is
no constant term, and zero coefficients are never stored.

The central operation is the boxed convolution: the coefficient of a word w
in f [*] g is the sum over non-crossing partitions pi of the generalized
coefficient of f at (w, pi) times the generalized coefficient of g at
(w, Kreweras complement of pi), where a generalized coefficient is the
product of ordinary coefficients over the restrictions of w to the blocks.
One kernel walks NC(n) at a single degree: the convolutions run it at every
degree, and the inversion kernel runs it on a series and the inverse's own
lower degrees to solve degree n.  The public boxed inverse lives in
`freeprob`, which runs that kernel on the series' cumulant series.  Orders
above DEFAULT_MAX_GROUND_SET raise before any work.

The extended variant pairs a series over s*d letters (encoded pairs (r, i)
with r outer: letter = (r-1)*d + i) with a series over d letters; the second
factor only sees the i-components of the word.

The kernels run on plain integers: a series also presents its coefficients
as integer numerators over one common denominator L (the lcm of the
coefficient denominators).  A partition's term is then a product of ints
with a denominator fixed by its block count, every term of an output word is
lifted to one shared denominator, and each output coefficient becomes a
Fraction once, after its whole sum.  Rationals in lowest terms are unique,
so this gives exactly the values of term-by-term Fraction arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from ._frozen import frozen
from .ncpartition import DEFAULT_MAX_GROUND_SET, nc_pairs

Word = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Zeta, Moebius and the constant-word series store every word of their kind
# up to their order; more words or letters than these are refused before the
# first word is made.
MAX_SERIES_WORDS = 10**6
MAX_SERIES_LETTERS = 10**7


def format_rational(x: Fraction) -> str:
    """Lowest terms with an explicit positive denominator, e.g. 3/1, -1/2."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


class Numerators(NamedTuple):
    """Coefficients as integer numerators over one common denominator."""

    denominator: int
    by_word: dict[Word, int]
    by_length: dict[int, tuple[tuple[Word, int], ...]]


def over_lcm(items: Iterable[tuple[Word, Fraction]]) -> tuple[int, dict[Word, int]]:
    """The least common denominator L of the values and each value times L."""
    items = tuple(items)
    den = math.lcm(*(v.denominator for _, v in items))
    return den, {w: v.numerator * (den // v.denominator) for w, v in items}


@frozen
class Series:
    """Sparse truncated series; items are sorted by word length then word."""

    alphabet: int
    order: int
    items: tuple[tuple[Word, Fraction], ...]

    @classmethod
    def of(cls, alphabet: int, order: int, coeffs: Mapping[Word, Fraction | int]) -> "Series":
        if alphabet < 1:
            raise ValueError(f"alphabet size must be positive, got {alphabet}")
        if order < 1:
            raise ValueError(f"truncation order must be positive, got {order}")
        norm: dict[Word, Fraction] = {}
        for w, v in coeffs.items():
            word = tuple(w)
            if not word:
                raise ValueError("series have no constant term")
            if len(word) > order:
                raise ValueError(f"word {word} longer than order {order}")
            if any(not 1 <= letter <= alphabet for letter in word):
                raise ValueError(f"letters of {word} out of range 1..{alphabet}")
            val = Fraction(v)
            if val:
                norm[word] = val
        items = tuple(sorted(norm.items(), key=lambda kv: (len(kv[0]), kv[0])))
        return cls(alphabet, order, items)

    @cached_property
    def coeffs(self) -> dict[Word, Fraction]:
        return dict(self.items)

    @cached_property
    def numerators(self) -> Numerators:
        """Every coefficient as numerator / denominator, the denominator shared."""
        den, by_word = over_lcm(self.items)
        by_length: dict[int, list[tuple[Word, int]]] = {}
        for w, num in by_word.items():
            by_length.setdefault(len(w), []).append((w, num))
        return Numerators(den, by_word, {n: tuple(rows) for n, rows in by_length.items()})


def coef(f: Series, w: Iterable[int]) -> Fraction:
    word = tuple(w)
    if not 1 <= len(word) <= f.order:
        raise ValueError(f"word length must be in 1..{f.order}, got {len(word)}")
    return f.coeffs.get(word, _ZERO)


def _within_cap(order: int) -> None:
    if order > DEFAULT_MAX_GROUND_SET:
        raise ValueError(f"order {order} exceeds the cap of {DEFAULT_MAX_GROUND_SET} letters")


def _convolve_degree(
    f: Numerators, lg: int, gc: Mapping[Word, int], n: int, proj: list[int] | None
) -> dict[Word, int]:
    # Degree n of f [*] g over (Lf Lg)^n, g as numerators gc over Lg.
    # Iterate over fillings of each partition's blocks by support words of f;
    # every word with a nonzero output coefficient arises this way, so sparse
    # operands never force a scan of the full alphabet.  With f = a/Lf and
    # g = b/Lg, a partition with k blocks (its complement has n+1-k) gives
    # (prod a)(prod b) / (Lf^k Lg^(n+1-k)); lifting it by Lf^(n-k) Lg^(k-1)
    # puts every term over Lf^n Lg^n.
    lf, supp = f.denominator, f.by_length
    acc: dict[Word, int] = {}
    for blocks, co_blocks in nc_pairs(n):
        pools = []
        for b in blocks:
            pool = supp.get(len(b))
            if not pool:
                pools = None
                break
            pools.append(pool)
        if pools is None:
            continue
        k = len(blocks)
        lift = lf ** (n - k) * lg ** (k - 1)
        for combo in itertools.product(*pools):
            w = [0] * n
            c = lift
            for b, (bw, bc) in zip(blocks, combo):
                c *= bc
                for pos, letter in zip(b, bw):
                    w[pos] = letter
            pw = w if proj is None else [proj[x] for x in w]
            for b2 in co_blocks:
                side = gc.get(tuple(pw[pos] for pos in b2))
                if side is None:
                    break
                c *= side
            else:
                word = tuple(w)
                acc[word] = acc.get(word, 0) + c
    return acc


def _convolve(f: Series, g: Series, proj: list[int] | None) -> dict[Word, Fraction]:
    # proj[x] is the letter of g that f's letter x stands for, if they differ
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}; re-truncate explicitly")
    _within_cap(f.order)
    lg, gc = g.numerators.denominator, g.numerators.by_word
    out: dict[Word, Fraction] = {}
    for n in range(1, f.order + 1):
        den = (f.numerators.denominator * lg) ** n
        for word, num in _convolve_degree(f.numerators, lg, gc, n, proj).items():
            if num:
                out[word] = Fraction(num, den)
    return out


def boxed_convolve(f: Series, g: Series) -> Series:
    """Coefficientwise sum over non-crossing partitions against the complement."""
    if f.alphabet != g.alphabet:
        raise ValueError(f"alphabet mismatch: {f.alphabet} vs {g.alphabet}")
    return Series.of(f.alphabet, f.order, _convolve(f, g, None))


def ext_boxed_convolve(f: Series, g: Series) -> Series:
    """Boxed convolution of a pair-letter series against a plain one.

    f lives on s*d letters encoding pairs (r, i); g lives on d letters and is
    evaluated on the i-components only.  The result lives on the pair letters.
    """
    d = g.alphabet
    if f.alphabet % d != 0:
        raise ValueError(f"pair alphabet {f.alphabet} not a multiple of {d}")
    proj = [0] + [(x - 1) % d + 1 for x in range(1, f.alphabet + 1)]
    return Series.of(f.alphabet, f.order, _convolve(f, g, proj))


def _check_invertible(f: Series) -> None:
    # The two refusals of the boxed inverse, before any work: an order past
    # the cap, then the first letter with no degree-1 coefficient.
    _within_cap(f.order)
    for r in range(1, f.alphabet + 1):
        if (r,) not in f.coeffs:
            raise ValueError(f"degree-1 coefficient at letter {r} is zero; not invertible")


def _kernel_inverse(f: Series) -> Series:
    # Two-sided inverse for the boxed convolution, solved degree by degree.
    # The coefficient of the inverse at a word of length n appears only in the
    # all-singletons term of the convolution.  So degree n is the degree-n
    # convolution kernel run on f and the inverse found so far, which has no
    # word of length n, divided by the product of the degree-1 coefficients
    # and negated.  The public entry point is `freeprob.boxed_inverse`.
    _check_invertible(f)
    s, order = f.alphabet, f.order
    lf, fc = f.numerators.denominator, f.numerators.by_word
    inv: dict[Word, Fraction] = {(r,): Fraction(lf, fc[(r,)]) for r in range(1, s + 1)}
    for n in range(2, order + 1):
        m, ic = over_lcm(inv.items())
        for w, num in _convolve_degree(f.numerators, m, ic, n, None).items():
            if num:
                # inv(w) = -(num / (Lf M)^n) / prod(a_{w_t} / Lf)
                denom = m**n
                for letter in w:
                    denom *= fc[(letter,)]
                inv[w] = Fraction(-num, denom)
    return Series.of(s, order, inv)


def dilate(f: Series, alpha: Fraction | int) -> Series:
    """Rescale each degree-n coefficient by alpha**n."""
    a = Fraction(alpha)
    return Series.of(f.alphabet, f.order, {w: v * a ** len(w) for w, v in f.items})


def scale(f: Series, alpha: Fraction | int) -> Series:
    a = Fraction(alpha)
    return Series.of(f.alphabet, f.order, {w: v * a for w, v in f.items})


def add(f: Series, g: Series) -> Series:
    if f.alphabet != g.alphabet or f.order != g.order:
        raise ValueError("operands must share alphabet and order")
    out = dict(f.coeffs)
    for w, v in g.items:
        out[w] = out.get(w, _ZERO) + v
    return Series.of(f.alphabet, f.order, out)


def truncate(f: Series, order: int) -> Series:
    """Drop coefficients beyond the new (smaller or equal) order."""
    if order > f.order:
        raise ValueError(f"cannot extend order {f.order} to {order}")
    return Series.of(f.alphabet, order, {w: v for w, v in f.items if len(w) <= order})


def _refuse_oversize(what: str, order: int, count: Callable[[int], int]) -> None:
    # count(n) words of length n for n = 1..order; raise at the first length
    # that takes the totals past MAX_SERIES_WORDS words or MAX_SERIES_LETTERS
    # letters, so huge orders cost no more than the cap.
    words = letters = 0
    for n in range(1, order + 1):
        k = count(n)
        words += k
        letters += n * k
        if words > MAX_SERIES_WORDS:
            raise ValueError(f"{what} to order {order} has more than {MAX_SERIES_WORDS} words")
        if letters > MAX_SERIES_LETTERS:
            raise ValueError(
                f"{what} to order {order} has more than {MAX_SERIES_LETTERS} letters"
            )


def _words_by_length(s: int, order: int) -> Iterator[tuple[int, Iterator[Word]]]:
    # (n, the words of length n over s letters) for n = 1..order, refused past
    # the size caps before the first is made.  An empty alphabet has no words
    # at any order, and Series.of refuses it.
    if s < 1:
        return
    _refuse_oversize(f"alphabet {s}", order, lambda n: s**n)
    for n in range(1, order + 1):
        yield n, itertools.product(range(1, s + 1), repeat=n)


def zeta(s: int, order: int) -> Series:
    """Coefficient 1 on every word."""
    return Series.of(s, order, {w: _ONE for _, words in _words_by_length(s, order) for w in words})


def moebius(s: int, order: int) -> Series:
    """The boxed inverse of zeta; signed Catalan coefficient by length."""
    out = {}
    for n, words in _words_by_length(s, order):
        val = Fraction((-1) ** (n + 1) * math.comb(2 * n - 2, n - 1), n)
        out.update(dict.fromkeys(words, val))
    return Series.of(s, order, out)


def delta(s: int, order: int) -> Series:
    """Coefficient 1 on degree-1 words only; the unit for boxed convolution."""
    return Series.of(s, order, {(r,): _ONE for r in range(1, s + 1)})


def geometric(d: int, order: int) -> Series:
    """Coefficient 1 exactly on the constant words (i, i, ..., i)."""
    _refuse_oversize(f"constant-word series over {d} letters", order, lambda n: d)
    out = {}
    for n in range(1, order + 1):
        for i in range(1, d + 1):
            out[(i,) * n] = _ONE
    return Series.of(d, order, out)


def h_series(d: int, order: int) -> Series:
    """The companion of the constant-word series used for R-transforms.

    Convolving a determining series against this on the right and averaging
    the diagonal substitution gives the R-transform of the matrix family,
    the same way the constant-word series gives the moments.
    """
    _within_cap(order)
    stretched = scale(dilate(moebius(d, order), Fraction(1, d)), d)
    return boxed_convolve(geometric(d, order), stretched)


def pair_letter(r: int, i: int, d: int) -> int:
    return (r - 1) * d + i


def split_letter(letter: int, d: int) -> tuple[int, int]:
    return (letter - 1) // d + 1, (letter - 1) % d + 1


def pair_word(rword: Iterable[int], iword: Iterable[int], d: int) -> Word:
    rw, iw = tuple(rword), tuple(iword)
    if len(rw) != len(iw):
        raise ValueError("component words must have equal length")
    return tuple(pair_letter(r, i, d) for r, i in zip(rw, iw))


def split_word(w: Iterable[int], d: int) -> tuple[Word, Word]:
    pairs = [split_letter(letter, d) for letter in w]
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def to_tsv(f: Series, pair_d: int | None = None) -> str:
    """One line per stored coefficient: word TAB value, sorted by length then word.

    Plain letters print comma-separated; with pair_d given, letters decode to
    r:i tokens.
    """
    lines = []
    for w, v in f.items:
        if pair_d is None:
            key = ",".join(str(x) for x in w)
        else:
            key = ",".join(f"{r}:{i}" for r, i in (split_letter(x, pair_d) for x in w))
        lines.append(f"{key}\t{format_rational(v)}")
    return "\n".join(lines)
