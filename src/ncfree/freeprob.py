"""Joint distributions presented by their free cumulants.

A model fixes m generators and a sparse table of joint cumulants (word ->
rational).  The state of a word is the sum over non-crossing partitions of
the products of table entries on the restricted subwords; polynomials in the
generators are evaluated by linearity.  The state is not assumed tracial.

States are computed by the first-block recursion: grouping the partitions by
the block V that holds the first letter, the state of w is the sum over V of
the cumulant of w restricted to V times the states of the gaps V leaves.  V
is built left to right and extended only while its letters spell a prefix of
a table word, so on a sparse table almost no candidate block is tried.  All
of it runs on integers: with the table as numerators over its lcm L, the
state of a word of length n is one integer over L^n, cached per model.

Moment series and R-transforms convert between the two coefficient systems
by the same recursion, on integers and without walking NC(n): the moments of
a cumulant series are the states of the model whose table it is, and the
cumulants of a moment series come from inverting the recursion one word at a
time, each cumulant being its moment minus the terms of the blocks V that
hold the first letter and are not the whole word (Nica-Speicher, Lectures on
the Combinatorics of Free Probability, Lecture 11).  That inversion is the
one `rcyclic.closure_check` runs on index tuples.

The boxed inverse lives here too, because it runs through the cumulant
series: the inverse of f is the R-transform of the inverse of f's
R-transform, found by the NC(n) inversion kernel of `series`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Container, Iterable, Mapping, Sequence

from ._frozen import frozen
from .ncpartition import DEFAULT_MAX_GROUND_SET
from .series import (
    Series,
    _check_invertible,
    _kernel_inverse,
    _within_cap,
    _words_by_length,
    over_lcm,
)

Word = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@frozen
class CumulantModel:
    """m generators with joint cumulants given sparsely up to a fixed order."""

    generators: int
    order: int
    items: tuple[tuple[Word, Fraction], ...]

    @classmethod
    def of(
        cls, generators: int, order: int, table: Mapping[Word, Fraction | int]
    ) -> "CumulantModel":
        if generators < 1 or order < 1:
            raise ValueError("need at least one generator and positive order")
        norm: dict[Word, Fraction] = {}
        for w, v in table.items():
            word = tuple(w)
            if not 1 <= len(word) <= order:
                raise ValueError(f"cumulant word {word} outside order 1..{order}")
            if any(not 1 <= g <= generators for g in word):
                raise ValueError(f"letters of {word} out of range 1..{generators}")
            val = Fraction(v)
            if val:
                norm[word] = val
        items = tuple(sorted(norm.items(), key=lambda kv: (len(kv[0]), kv[0])))
        return cls(generators, order, items)

    @cached_property
    def table(self) -> dict[Word, Fraction]:
        return dict(self.items)

    @cached_property
    def numerators(self) -> tuple[int, dict[Word, int]]:
        """(L, table times L): the lcm L of the table's denominators, and every
        cumulant as an integer numerator over it."""
        return over_lcm(self.items)

    @cached_property
    def prefixes(self) -> frozenset[Word]:
        """Every nonempty prefix of a table word, table words included."""
        return frozenset(w[:k] for w, _ in self.items for k in range(1, len(w) + 1))

    @cached_property
    def _phi_cache(self) -> dict[Word, int]:
        # word -> its state times L^len(word)
        return {}


@frozen
class NcPolynomial:
    """Polynomial in non-commuting generators; the empty word is the unit."""

    items: tuple[tuple[Word, Fraction], ...]

    @classmethod
    def of(cls, terms: Mapping[Word, Fraction | int]) -> "NcPolynomial":
        norm: dict[Word, Fraction] = {}
        for w, v in terms.items():
            val = Fraction(v)
            if val:
                norm[tuple(w)] = val
        return cls(tuple(sorted(norm.items(), key=lambda kv: (len(kv[0]), kv[0]))))

    @classmethod
    def zero(cls) -> "NcPolynomial":
        return cls(())

    @classmethod
    def unit(cls) -> "NcPolynomial":
        return cls((((), _ONE),))

    @classmethod
    def generator(cls, r: int) -> "NcPolynomial":
        return cls((((r,), _ONE),))

    @cached_property
    def terms(self) -> dict[Word, Fraction]:
        return dict(self.items)

    def degree(self) -> int:
        return max((len(w) for w, _ in self.items), default=0)

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self.terms)
        for w, v in other.items:
            out[w] = out.get(w, _ZERO) + v
        return NcPolynomial.of(out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self.terms)
        for w, v in other.items:
            out[w] = out.get(w, _ZERO) - v
        return NcPolynomial.of(out)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial(tuple((w, -v) for w, v in self.items))

    def __mul__(self, other):
        if isinstance(other, NcPolynomial):
            return product_sum([(self, other)])
        return self.scale(other)

    def __rmul__(self, other) -> "NcPolynomial":
        return self.scale(other)

    def scale(self, alpha: Fraction | int) -> "NcPolynomial":
        a = Fraction(alpha)
        if not a:
            return NcPolynomial.zero()
        return NcPolynomial(tuple((w, v * a) for w, v in self.items))


def product_sum(pairs: Iterable[tuple[NcPolynomial, NcPolynomial]]) -> NcPolynomial:
    """Sum of the products p * q, every term collected before one normalisation."""
    out: dict[Word, Fraction] = {}
    for p, q in pairs:
        for w1, v1 in p.items:
            for w2, v2 in q.items:
                w = w1 + w2
                out[w] = out.get(w, _ZERO) + v1 * v2
    return NcPolynomial.of(out)


def integer_terms(
    polys: Sequence[NcPolynomial],
) -> tuple[int, list[tuple[tuple[Word, int], ...]]]:
    """(P, terms): the lcm P of the polynomials' coefficient denominators, and
    each polynomial as its (word, coefficient times P) pairs."""
    den = math.lcm(*(v.denominator for p in polys for _, v in p.items))
    terms = [tuple((w, v.numerator * (den // v.denominator)) for w, v in p.items) for p in polys]
    return den, terms


def _phi_numerator(model: CumulantModel, word: Word) -> int:
    # phi(word) * L^n by the first-block recursion: the block V holding
    # position 0 contributes t(word|V) * L^(|V|-1) * prod over its gaps g of
    # phi(g) * L^|g|.  V grows left to right while word|V is a table prefix;
    # gap states come from the same cache (module-level recursion, at most n
    # deep, so nothing holds a reference cycle).
    n = len(word)
    if n == 0:
        return 1
    cache = model._phi_cache
    hit = cache.get(word)
    if hit is not None:
        return hit
    if n > model.order:
        raise ValueError(f"word of length {n} exceeds model order {model.order}")
    if n > DEFAULT_MAX_GROUND_SET:
        raise ValueError(f"word of length {n} exceeds the cap of {DEFAULT_MAX_GROUND_SET} letters")
    den, table = model.numerators
    prefixes = model.prefixes
    acc = 0
    # (last position in V, letters of word|V, product of the closed gaps' states)
    stack = [(0, word[:1], 1)] if word[:1] in prefixes else []
    while stack:
        last, letters, gaps = stack.pop()
        t = table.get(letters)
        if t is not None:
            tail = _phi_numerator(model, word[last + 1 :])
            if tail:
                acc += t * gaps * tail * den ** (len(letters) - 1)
        for nxt in range(last + 1, n):
            grown = letters + (word[nxt],)
            if grown in prefixes:
                gap = _phi_numerator(model, word[last + 1 : nxt])
                if gap:
                    stack.append((nxt, grown, gaps * gap))
    cache[word] = acc
    return acc


def _terms_state(model: CumulantModel, terms: Iterable[tuple[Word, int]], deg: int) -> int:
    # The state of a sum of c * word (integer terms) times L^deg; deg bounds
    # every word's length.
    den = model.numerators[0]
    return sum(c * _phi_numerator(model, w) * den ** (deg - len(w)) for w, c in terms)


def _product_state(
    model: CumulantModel, factors: Sequence[Iterable[tuple[Word, int]]], deg: int
) -> int:
    # The state of the product of the factors (integer term lists) times
    # L^deg, summed over one term per factor; deg bounds every word's length.
    den = model.numerators[0]
    acc = 0
    for choice in itertools.product(*factors):
        coeff = 1
        word: Word = ()
        for w, c in choice:
            coeff *= c
            word += w
        acc += coeff * _phi_numerator(model, word) * den ** (deg - len(word))
    return acc


def _scaled_cumulant(
    idx: tuple[int, ...],
    memo: dict[tuple[int, ...], int],
    moment: Callable[[tuple[int, ...]], int],
    table_value: Callable[[tuple[int, ...]], int | None] | None = None,
    prefixes: Container[tuple[int, ...]] | None = None,
) -> int:
    # The cumulant of idx by the first-block inversion on scaled integers:
    # its moment minus, over each block V holding position 0 that is not the
    # whole of idx, the cumulant of idx|V times the moments of the gaps V
    # leaves (the tail after V included).  moment() must be scaled
    # multiplicatively over blocks, with moment(()) == 1; the result carries
    # the same scale.  V grows left to right, a vanishing gap cutting every
    # block through it, and, given prefixes, only while idx|V spells one of
    # them: the caller promises that every shorter tuple with a nonzero
    # cumulant has all its prefixes there.  table_value, when given, answers
    # a tuple outright unless it returns None.  Module level, not a closure
    # over memo, so the memo is freed on return rather than by the cycle
    # collector.
    acc = None if table_value is None else table_value(idx)
    if acc is None:
        n = len(idx)
        acc = moment(idx)
        # (last position in V, entries of idx|V, product of the closed gaps' moments)
        stack = [(0, idx[:1], 1)]
        while stack:
            last, sub, gaps = stack.pop()
            if len(sub) < n:
                tail = moment(idx[last + 1 :])
                if tail:
                    kappa = memo.get(sub)
                    if kappa is None:
                        kappa = _scaled_cumulant(sub, memo, moment, table_value, prefixes)
                    acc -= kappa * gaps * tail
            for nxt in range(last + 1, n):
                gap = moment(idx[last + 1 : nxt])
                if gap:
                    grown = sub + (idx[nxt],)
                    if prefixes is None or grown in prefixes:
                        stack.append((nxt, grown, gaps * gap))
    memo[idx] = acc
    return acc


def phi_word(model: CumulantModel, w: Iterable[int]) -> Fraction:
    """State of a product of generators: sum of cumulant products over NC(n).

    Computed by the first-block recursion over table prefixes, on integers:
    with the table as integer numerators over its lcm L, the state of a word
    of length n is one integer over L^n, made a Fraction once.  Words longer
    than the model order or than DEFAULT_MAX_GROUND_SET raise ValueError.
    """
    word = tuple(w)
    return Fraction(_phi_numerator(model, word), model.numerators[0] ** len(word))


def phi_poly(model: CumulantModel, p: NcPolynomial) -> Fraction:
    """State of a polynomial by linearity: the first-block word states summed
    as one integer over P L^deg (P the lcm of the coefficient denominators)
    and divided once."""
    deg = p.degree()
    p_den, (terms,) = integer_terms([p])
    return Fraction(_terms_state(model, terms, deg), p_den * model.numerators[0] ** deg)


def moment_series(
    model: CumulantModel, elements: Sequence[NcPolynomial], order: int | None = None
) -> Series:
    """Joint moment series of the elements: coefficient at (r_1..r_n) is the
    state of the product element_{r_1} * ... * element_{r_n}.

    The walk over (r_1..r_n) carries that product as integer numerators over
    P^n (P the lcm of the elements' coefficient denominators), drops the
    words that cancel, and sums the first-block word states over P^n L^deg;
    each stored coefficient is one Fraction.

    Raises when a product word outgrows the model order; pick the order so
    that n times the maximal entry degree stays within it.
    """
    n_max = model.order if order is None else order
    s = len(elements)
    if s < 1:
        raise ValueError("need at least one element")
    den = model.numerators[0]
    p_den, terms = integer_terms(elements)
    out: dict[Word, Fraction] = {}
    stack = [((r,), dict(terms[r - 1])) for r in range(s, 0, -1)]
    while stack:
        word, prod = stack.pop()
        deg = max(map(len, prod), default=0)
        acc = _terms_state(model, prod.items(), deg)
        if acc:
            out[word] = Fraction(acc, p_den ** len(word) * den**deg)
        if len(word) < n_max:
            for r in range(s, 0, -1):
                grown: dict[Word, int] = {}
                for w1, c1 in prod.items():
                    for w2, c2 in terms[r - 1]:
                        w = w1 + w2
                        grown[w] = grown.get(w, 0) + c1 * c2
                stack.append((word + (r,), {w: c for w, c in grown.items() if c}))
    return Series.of(s, n_max, out)


def r_transform(m: Series) -> Series:
    """Cumulant series of a moment series.

    Solved degree by degree over every word of the alphabet by the
    first-block inversion

        kappa(w) = m(w) - sum over V holding the first letter, V not all of w,
                   of kappa(w|V) times the product of m over the gaps V leaves

    (the tail after V's last letter is a gap too).  It runs on integers:
    with m as numerators a over their lcm L, M(w) = a(w) L^(|w|-1) is m(w)
    times L^|w|, a scale multiplicative over blocks, so kappa(w) comes out as
    one integer over L^|w| and is made a Fraction once.  V grows only while
    its letters spell a prefix of a nonzero lower-degree cumulant, and a
    vanishing gap cuts every block through it.  Equals the boxed convolution
    of m with the Moebius series.  An order above DEFAULT_MAX_GROUND_SET, or
    more words or letters over the alphabet than the caps of `series.zeta`,
    raises ValueError before any cumulant is computed.
    """
    _within_cap(m.order)
    s = m.alphabet
    den, by_word = m.numerators.denominator, m.numerators.by_word
    scaled = {w: a * den ** (len(w) - 1) for w, a in by_word.items()}
    scaled[()] = 1

    def moment(w: Word) -> int:
        return scaled.get(w, 0)

    memo: dict[Word, int] = {}
    prefixes: set[Word] = set()
    out: dict[Word, Fraction] = {}
    for n, words in _words_by_length(s, m.order):
        found = []
        for w in words:
            kappa = _scaled_cumulant(w, memo, moment, prefixes=prefixes)
            if kappa:
                found.append(w)
                out[w] = Fraction(kappa, den**n)
        prefixes.update(w[:k] for w in found for k in range(1, n + 1))
    return Series.of(s, m.order, out)


def boxed_inverse(f: Series) -> Series:
    """Two-sided inverse for the boxed convolution.

    Zeta is central for the boxed convolution: the Kreweras complement is a
    bijection of NC(n), so (zeta [*] f)(w) and (f [*] zeta)(w) both sum f's
    generalized coefficients over all of NC(n).  Hence Moebius, its inverse,
    is central too, and with r = f [*] Moebius = r_transform(f),

        f^-1 = (r [*] zeta)^-1 = r^-1 [*] Moebius = r_transform(r^-1)

    (Nica-Speicher, Lectures on the Combinatorics of Free Probability, the
    lectures on the boxed convolution).  The NC(n) inversion kernel runs on
    r, which has f's degree-1 coefficients and is sparse where f is a
    model's dense moment series.  Every degree-1 coefficient must be
    nonzero; that check, the order cap and the size caps of `r_transform`
    run before any cumulant is computed.
    """
    _check_invertible(f)
    return r_transform(_kernel_inverse(r_transform(f)))


def m_from_r(r: Series) -> Series:
    """Moment series of a cumulant series.

    The moment of a word is its state in the model whose cumulant table is
    r, so each word of the alphabet up to the order is one first-block
    recursion over the table's prefixes, on integers (see `phi_word`).
    Equals the boxed convolution of r with the zeta series.  An order above
    DEFAULT_MAX_GROUND_SET, or more words or letters over the alphabet than
    the caps of `series.zeta`, raises ValueError before any state is computed.
    """
    _within_cap(r.order)
    model = CumulantModel(r.alphabet, r.order, r.items)
    den = model.numerators[0]
    out: dict[Word, Fraction] = {}
    for n, words in _words_by_length(r.alphabet, r.order):
        for w in words:
            num = _phi_numerator(model, w)
            if num:
                out[w] = Fraction(num, den**n)
    return Series.of(r.alphabet, r.order, out)


def check_free(r: Series, families: Sequence[Iterable[int]]) -> tuple[bool, Word | None]:
    """Freeness of groups of letters read off a joint cumulant series.

    The groups must partition 1..alphabet; the first stored word (by length,
    then lexicographically) mixing two groups is returned as the witness.
    """
    owner: dict[int, int] = {}
    for t, fam in enumerate(families):
        for letter in fam:
            if letter in owner:
                raise ValueError(f"letter {letter} in two families")
            owner[letter] = t
    if set(owner) != set(range(1, r.alphabet + 1)):
        raise ValueError("families must partition the alphabet")
    for w, _ in r.items:
        if len({owner[x] for x in w}) > 1:
            return False, w
    return True, None


def product_cumulant(model: CumulantModel, letters: Sequence[int], m: int) -> Fraction:
    """Cumulant with arguments m and m+1 merged into one product argument.

    Evaluates the combination of table entries that expresses the shorter
    cumulant of (x_1, ..., x_m * x_{m+1}, ..., x_n) through the cumulants of
    the unmerged arguments: the full cumulant, the split at m, and the two
    fans of pair products around the merge point.
    """
    word = tuple(letters)
    n = len(word)
    if n < 2:
        raise ValueError("need at least two arguments")
    if not 1 <= m <= n - 1:
        raise ValueError(f"merge position must be in 1..{n - 1}, got {m}")
    if any(not 1 <= g <= model.generators for g in word):
        raise ValueError("letters out of range")
    table = model.table

    def k(sub: Word) -> Fraction:
        return table.get(sub, _ZERO)

    total = k(word)
    total += k(word[:m]) * k(word[m:])
    for j in range(2, m + 1):
        total += k(word[j - 1 : m]) * k(word[: j - 1] + word[m:])
    for j in range(m + 1, n):
        total += k(word[m:j]) * k(word[:m] + word[j:])
    return total
