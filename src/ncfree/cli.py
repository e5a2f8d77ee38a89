"""Command-line front end.

Spec files declare a cumulant model for matrix entries in a line-oriented
format; subcommands dispatch to the library and print TSV.  Exit status is
0 on success or pass, 1 when a check fails (with a WITNESS line), 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from ._frozen import frozen
from .freeprob import CumulantModel
from .ncpartition import DEFAULT_MAX_GROUND_SET
from .opvalued import OperatorMatrix, check_amalgamated_freeness, opvalued_cumulant_generic
from .rcyclic import (
    MatrixFamily,
    determining_series,
    entry_letter,
    family_moments,
    family_rtransform,
    is_rcyclic,
)
from .series import delta, format_rational, geometric, h_series, moebius, to_tsv, zeta

Word = tuple[int, ...]

COST_WARN_THRESHOLD = 10**8


class SpecError(ValueError):
    """Parse or validation failure, carrying the offending line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


@frozen
class CumulantDecl:
    """Joint cumulant of the listed matrix entries, in order."""

    entries: tuple[tuple[int, int, int], ...]
    value: Fraction


@frozen
class SemicircularDecl:
    """Entry (i, i) of matrix r is semicircular with the given radius."""

    r: int
    i: int
    radius: Fraction


@frozen
class CircularDecl:
    """Entries (i, j) and (j, i) of matrix r are a circular adjoint pair."""

    r: int
    i: int
    j: int
    radius: Fraction


Decl = CumulantDecl | SemicircularDecl | CircularDecl

# shorthand directive -> (its declaration, the letters of its index keys in order)
_SHORTHANDS = {"semicircular": (SemicircularDecl, "ri"), "circular": (CircularDecl, "rij")}


@frozen
class SpecFile:
    order: int
    d: int
    s: int
    decls: tuple[Decl, ...]


def _parse_value(token: str, lineno: int, what: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise SpecError(lineno, f"bad {what} {token!r}") from None


def _check_indices(lineno: int, d: int, s: int, r: int, *ij: int) -> None:
    # matrix r, then the entry (i, j), or the one diagonal index i
    if not 1 <= r <= s:
        raise SpecError(lineno, f"matrix index {r} out of range 1..{s}")
    if not all(1 <= x <= d for x in ij):
        where = f"index {ij[0]}" if len(ij) == 1 else f"entry ({ij[0]},{ij[1]})"
        raise SpecError(lineno, f"{where} out of range 1..{d}")


def _parse_entry_token(token: str, d: int, s: int, lineno: int) -> tuple[int, int, int]:
    # <r>:<i>,<j>
    try:
        r_text, ij = token.split(":")
        i_text, j_text = ij.split(",")
        r, i, j = int(r_text), int(i_text), int(j_text)
    except ValueError:
        raise SpecError(lineno, f"bad entry token {token!r}, want r:i,j") from None
    _check_indices(lineno, d, s, r, i, j)
    return r, i, j


def _parse_assigned(token: str, key: str, lineno: int) -> int:
    if not token.startswith(key + "="):
        raise SpecError(lineno, f"expected {key}=<int>, got {token!r}")
    try:
        return int(token[len(key) + 1 :])
    except ValueError:
        raise SpecError(lineno, f"expected {key}=<int>, got {token!r}") from None


def _expansion_words(decl: Decl, d: int) -> list[Word]:
    if isinstance(decl, CumulantDecl):
        return [tuple(entry_letter(r, i, j, d) for r, i, j in decl.entries)]
    if isinstance(decl, SemicircularDecl):
        e = entry_letter(decl.r, decl.i, decl.i, d)
        return [(e, e)]
    a = entry_letter(decl.r, decl.i, decl.j, d)
    b = entry_letter(decl.r, decl.j, decl.i, d)
    return [(a, b), (b, a)]


def parse_spec(text: str) -> SpecFile:
    """Parse the line-oriented spec format; '#' starts a comment.

    Directives: order / dim / matrices (each once, before declarations), then
    cumulant / semicircular / circular lines.  Any malformed line, index out
    of range or duplicate cumulant key (shorthand expansions included) raises
    SpecError with its line number.
    """
    header: dict[str, int] = {}
    decls: list[Decl] = []
    claimed: dict[Word, int] = {}

    def claim(word: Word, lineno: int) -> None:
        if word in claimed:
            raise SpecError(
                lineno, f"duplicate cumulant key (first declared at line {claimed[word]})"
            )
        claimed[word] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("order", "dim", "matrices"):
            if head in header:
                raise SpecError(lineno, f"duplicate {head} directive")
            if decls:
                raise SpecError(lineno, f"{head} directive must precede declarations")
            if len(tokens) != 2:
                raise SpecError(lineno, f"want: {head} <int>")
            try:
                value = int(tokens[1])
            except ValueError:
                raise SpecError(lineno, f"want: {head} <int>") from None
            if value < 1:
                raise SpecError(lineno, f"{head} must be positive, got {value}")
            header[head] = value
            continue
        missing = [k for k in ("order", "dim", "matrices") if k not in header]
        if missing:
            raise SpecError(lineno, f"declaration before {missing[0]} directive")
        order, d, s = header["order"], header["dim"], header["matrices"]
        if head == "cumulant":
            if "=" not in tokens or tokens.index("=") != len(tokens) - 2:
                raise SpecError(lineno, "want: cumulant <r>:<i>,<j> ... = <p>/<q>")
            split_at = tokens.index("=")
            entry_tokens = tokens[1:split_at]
            if not entry_tokens:
                raise SpecError(lineno, "cumulant needs at least one entry")
            if len(entry_tokens) > order:
                raise SpecError(
                    lineno, f"{len(entry_tokens)} entries exceed order {order}"
                )
            entries = tuple(_parse_entry_token(t, d, s, lineno) for t in entry_tokens)
            value = _parse_value(tokens[split_at + 1], lineno, "cumulant value")
            decl: Decl = CumulantDecl(entries, value)
        elif head in _SHORTHANDS:
            cls, keys = _SHORTHANDS[head]
            if len(tokens) != len(keys) + 3 or tokens[-2] != "radius":
                want = " ".join(f"{k}=<{k}>" for k in keys)
                raise SpecError(lineno, f"want: {head} {want} radius <p>/<q>")
            indices = [_parse_assigned(t, k, lineno) for t, k in zip(tokens[1:], keys)]
            _check_indices(lineno, d, s, *indices)
            if len(indices) == 3 and indices[1] == indices[2]:
                raise SpecError(lineno, "circular shorthand needs i != j")
            if order < 2:
                raise SpecError(lineno, f"{head} shorthand needs order >= 2")
            radius = _parse_value(tokens[-1], lineno, "radius")
            if radius < 0:
                raise SpecError(lineno, "radius must be non-negative")
            decl = cls(*indices, radius)
        else:
            raise SpecError(lineno, f"unknown directive {head!r}")
        for word in _expansion_words(decl, d):
            claim(word, lineno)
        decls.append(decl)
    for key in ("order", "dim", "matrices"):
        if key not in header:
            raise SpecError(len(text.splitlines()) + 1, f"missing {key} directive")
    return SpecFile(header["order"], header["dim"], header["matrices"], tuple(decls))


def emit_spec(spec: SpecFile) -> str:
    """Render a SpecFile back to text; parse_spec inverts this exactly."""
    lines = [f"order {spec.order}", f"dim {spec.d}", f"matrices {spec.s}"]
    for decl in spec.decls:
        if isinstance(decl, CumulantDecl):
            entries = " ".join(f"{r}:{i},{j}" for r, i, j in decl.entries)
            lines.append(f"cumulant {entries} = {format_rational(decl.value)}")
        elif isinstance(decl, SemicircularDecl):
            lines.append(
                f"semicircular r={decl.r} i={decl.i} radius {format_rational(decl.radius)}"
            )
        else:
            lines.append(
                f"circular r={decl.r} i={decl.i} j={decl.j} "
                f"radius {format_rational(decl.radius)}"
            )
    return "\n".join(lines) + "\n"


def build_model(spec: SpecFile) -> tuple[CumulantModel, MatrixFamily]:
    """Cumulant model on s*d^2 entry generators plus the matching family."""
    table: dict[Word, Fraction] = {}
    for decl in spec.decls:
        if isinstance(decl, CumulantDecl):
            value = decl.value
        else:
            value = decl.radius * decl.radius / 4
        for word in _expansion_words(decl, spec.d):
            table[word] = value
    model = CumulantModel.of(spec.s * spec.d * spec.d, spec.order, table)
    return model, MatrixFamily.from_generator_entries(spec.d, spec.s, model)


def _load_spec(path: str) -> SpecFile:
    with open(path, encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _family_matrices(spec: SpecFile) -> list[OperatorMatrix]:
    model, fam = build_model(spec)
    return [OperatorMatrix.of(model, fam.grids[r - 1]) for r in range(1, spec.s + 1)]


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _warn_if_costly(alphabet: int, order: int) -> None:
    estimate = sum(_catalan(n) * alphabet**n for n in range(1, order + 1))
    if estimate > COST_WARN_THRESHOLD:
        print(
            f"warning: about {estimate} elementary products at alphabet {alphabet}, "
            f"order {order}; this may take a while",
            file=sys.stderr,
        )


def _print_witness(*fields: object) -> None:
    print("WITNESS\t" + "\t".join(str(f) for f in fields))


def _fmt_word(w: Word) -> str:
    return ",".join(str(x) for x in w)


def _fmt_pairs(pairs) -> str:
    return ";".join(f"{i},{j}" for i, j in pairs)


def _cmd_series(args) -> int:
    if args.kind in ("Gd", "Hd") and args.d < 1:
        raise ValueError("--d must be positive for Gd/Hd")
    if args.kind == "Zeta":
        f = zeta(args.s, args.order)
    elif args.kind == "Moebius":
        f = moebius(args.s, args.order)
    elif args.kind == "Delta":
        f = delta(args.s, args.order)
    elif args.kind == "Gd":
        f = geometric(args.d, args.order)
    else:
        f = h_series(args.d, args.order)
    out = to_tsv(f)
    if out:
        print(out)
    return 0


def _cmd_rcyclic(args) -> int:
    spec = _load_spec(args.spec)
    model, fam = build_model(spec)
    order = spec.order if args.order is None else args.order
    top = spec.order
    if args.action in ("moments", "rtransform"):
        top = min(top, DEFAULT_MAX_GROUND_SET)  # the convolutions' NC(n) cap
    if not 1 <= order <= top:
        raise ValueError(f"{args.action} needs order in 1..{top}, got {order}")
    if args.action != "check":
        _warn_if_costly(spec.s * spec.d, order)
    ok, witness = is_rcyclic(fam, order)
    if not ok:
        rword, pairs = witness
        print("FAIL\trcyclic")
        _print_witness(_fmt_word(rword), _fmt_pairs(pairs))
        return 1
    if args.action == "check":
        print("PASS\trcyclic")
        return 0
    f = determining_series(fam, order)
    if args.action == "determining-series":
        out = to_tsv(f, pair_d=spec.d)
    elif args.action == "moments":
        out = to_tsv(family_moments(f, spec.d))
    else:
        out = to_tsv(family_rtransform(f, spec.d))
    if out:
        print(out)
    return 0


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    if args.budget < 1 or args.budget > spec.order:
        raise ValueError(f"--budget must be in 1..{spec.order} (the spec order), got {args.budget}")
    gens = _family_matrices(spec)
    ok, witness = check_amalgamated_freeness(gens, args.budget)
    if ok:
        print("PASS\tamalg-freeness")
        return 0
    print("FAIL\tamalg-freeness")
    _print_witness(witness)
    return 1


def _cmd_opcumulant(args) -> int:
    spec = _load_spec(args.spec)
    try:
        rword = tuple(int(t) for t in args.word.split(","))
    except ValueError:
        raise ValueError(f"bad --word {args.word!r}, want r1,r2,...") from None
    if not rword or any(not 1 <= r <= spec.s for r in rword):
        raise ValueError(f"matrix indices must be in 1..{spec.s}")
    if len(rword) > spec.order:
        raise ValueError(f"word longer than spec order {spec.order}")
    gens = _family_matrices(spec)
    km = opvalued_cumulant_generic([gens[r - 1] for r in rword], args.algebra)
    for i in range(1, spec.d + 1):
        print("\t".join(format_rational(km.entry(i, j)) for j in range(1, spec.d + 1)))
    return 0


def _cmd_verify(args) -> int:
    from .oracle import run_suite  # the slow definitional checks load only here

    reports = run_suite(args.suite, args.order)
    failed = False
    for report in reports:
        print(report.line())
        if not report.passed:
            failed = True
            _print_witness(report.name, report.inputs)
    return 1 if failed else 0


def mc_radii(spec: SpecFile) -> list[list[Fraction]]:
    """The d x d radius grid of a one-matrix spec of semicircular and circular
    declarations, the input of `mc.McConfig.of`; any other spec raises
    ValueError."""
    if spec.s != 1:
        raise ValueError("mc needs a spec with matrices 1")
    radii = [[Fraction(0)] * spec.d for _ in range(spec.d)]
    for decl in spec.decls:
        if isinstance(decl, CumulantDecl):
            raise ValueError("mc needs semicircular/circular declarations only")
        j = decl.j if isinstance(decl, CircularDecl) else decl.i
        radii[decl.i - 1][j - 1] = radii[j - 1][decl.i - 1] = decl.radius
    return radii


def _cmd_mc(args) -> int:
    if args.trials < 2:
        # one trial has an infinite standard error, so every tolerance passes
        raise ValueError(f"mc needs --trials of at least 2, got {args.trials}")
    from . import mc as mcmod  # numpy loads only for this subcommand

    if not 1 <= args.max_moment <= mcmod.MAX_MC_MOMENT:
        # the sampler's range, checked before the exact moments are computed
        raise ValueError(f"max moment must be in 1..{mcmod.MAX_MC_MOMENT}, got {args.max_moment}")
    spec = _load_spec(args.spec)
    cfg = mcmod.McConfig.of(spec.d, mc_radii(spec), args.size, args.trials, args.seed)
    exact = mcmod.exact_family_moments(cfg, args.max_moment)
    samples = mcmod.sample_block_moments(cfg, args.max_moment)
    reports = mcmod.compare(cfg, exact, samples)
    by_n = {n: (mean, stderr) for n, mean, stderr in samples}
    failed = False
    for n, report in zip(sorted(exact), reports):
        mean, stderr = by_n[n]
        status = "PASS" if report.passed else "FAIL"
        print(f"{n}\t{mean!r}\t{stderr!r}\t{format_rational(exact[n])}\t{status}")
        if not report.passed:
            failed = True
            _print_witness(report.inputs, report.expected, report.actual)
    return 1 if failed else 0


class _ArgumentParser(argparse.ArgumentParser):
    # a rejected command line raises for run() to report; subparsers share the class
    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ncfree",
        description="Exact engine for block-matrix families with cyclic cumulants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("series", help="print a named coefficient series as TSV")
    sp.add_argument(
        "--kind", required=True, choices=["Zeta", "Moebius", "Delta", "Gd", "Hd"]
    )
    sp.add_argument("--s", type=int, default=1, help="alphabet size for Zeta/Moebius/Delta")
    sp.add_argument("--d", type=int, default=1, help="block dimension for Gd/Hd")
    sp.add_argument("--order", type=int, required=True)
    sp.set_defaults(handler=_cmd_series)

    rp = sub.add_parser("rcyclic", help="family computations from a spec file")
    rp.add_argument(
        "action", choices=["moments", "rtransform", "determining-series", "check"]
    )
    rp.add_argument("--spec", required=True)
    rp.add_argument("--order", type=int, default=None)
    rp.set_defaults(handler=_cmd_rcyclic)

    cp = sub.add_parser("check", help="structural checks on a spec file")
    cp.add_argument("what", choices=["amalg-freeness"])
    cp.add_argument("--spec", required=True)
    cp.add_argument("--budget", type=int, default=4)
    cp.set_defaults(handler=_cmd_check)

    op = sub.add_parser("opcumulant", help="matrix-valued cumulant of a matrix word")
    op.add_argument("--spec", required=True)
    op.add_argument("--algebra", required=True, choices=["B", "D"])
    op.add_argument("--word", required=True, help="comma-separated matrix indices")
    op.set_defaults(handler=_cmd_opcumulant)

    vp = sub.add_parser("verify", help="run oracle comparison suites")
    vp.add_argument("--suite", default="all")
    vp.add_argument("--order", type=int, default=4)
    vp.set_defaults(handler=_cmd_verify)

    mp = sub.add_parser("mc", help="random-matrix cross-check of exact moments")
    mp.add_argument("--spec", required=True)
    mp.add_argument("--size", type=int, default=512)
    mp.add_argument("--trials", type=int, default=20)
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--max-moment", type=int, default=6, dest="max_moment")
    mp.set_defaults(handler=_cmd_mc)
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        # --help prints to stdout and exits 0
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        # every ValueError is bad input, a usage error: argparse's, the library's,
        # SpecError and the handlers' own argument checks; this is the one error line
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
