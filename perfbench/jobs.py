"""Running one job, its untimed correctness gate, and the layer probes.

`Runner.run(job)` does the timed work and returns the job's output text
(hashed for the recorded-digest check) plus what the gate needs.
`Runner.gate(job, result)` returns None when every check passes, otherwise a
one-line reason.  Gates use identities from the paper and its companions,
never the output of an earlier run, except for the recorded digests.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

from ncfree import (
    CumulantModel,
    NcPolynomial,
    OperatorMatrix,
    boxed_convolve,
    boxed_inverse,
    check_amalgamated_freeness,
    check_free,
    closure_check,
    cyclic_family,
    dcumulant_data,
    delta,
    determining_series,
    dvalued_cumulant,
    family_moments,
    family_rtransform,
    format_rational,
    geometric,
    h_series,
    is_rcyclic,
    m_from_r,
    moebius,
    moment_series,
    opvalued_cumulant_generic,
    r_transform,
    to_tsv,
    zeta,
)
from ncfree import mc as mcmod
from ncfree.cli import CircularDecl, SemicircularDecl, build_model, parse_spec
from ncfree.oracle import brute_force_family_moments, run_suite

JOB_TIMEOUT_S = 30.0
MC_MAX_MOMENT = 6  # the CLI's default --max-moment
CLI_ENTRY = "import sys; from ncfree.cli import main; main()"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _matrices(model, fam) -> list[OperatorMatrix]:
    return [OperatorMatrix.of(model, g) for g in fam.grids]


def _fmt_matrix(km) -> str:
    return "\n".join("\t".join(format_rational(v) for v in row) for row in km.rows)


class Runner:
    """Executes jobs of one workload; holds the tracer and the request env."""

    def __init__(self, tracer, env: dict[str, str] | None = None, workdir: str = "."):
        self.tr = tracer
        self.env = env
        self.workdir = workdir
        self._expected: dict[tuple, tuple[int, str]] = {}

    # ----- timed work -------------------------------------------------------

    def run(self, job: dict) -> dict:
        kind = job["kind"]
        with self.tr.span("job." + kind):
            if kind == "spectra":
                return self._spectra(job)
            if kind == "scalar":
                return self._scalar(job)
            if kind == "closure":
                return self._closure(job)
            if kind == "matrix":
                return self._matrix(job)
            return self._cli(job)

    def _family(self, text: str):
        span = self.tr.span
        with span("cli.parse_spec"):
            spec = parse_spec(text)
        with span("cli.build_model"):
            model, fam = build_model(spec)
        return spec, model, fam

    def _spectra(self, job: dict) -> dict:
        span = self.tr.span
        spec, model, fam = self._family(job["spec"])
        with span("rcyclic.cyclic_family"):
            cf = cyclic_family(fam)
        with span("rcyclic.determining_series"):
            f = determining_series(cf)
        with span("rcyclic.family_moments"):
            m = family_moments(f, spec.d)
        with span("rcyclic.family_rtransform"):
            r = family_rtransform(f, spec.d)
        text = "\n".join(("DS", to_tsv(f, pair_d=spec.d), "M", to_tsv(m), "R", to_tsv(r)))
        d, s, n = spec.d, spec.s, spec.order
        counts = {
            "rcyclic.patterns": sum((s * d * d) ** k for k in range(1, n + 1)),
            "rcyclic.table_entries": len(cf.items),
            "series.out_coeffs": len(f.items) + len(m.items) + len(r.items),
        }
        return {"text": text, "fam": fam, "d": d, "m": m, "r": r, "counts": counts}

    def _scalar(self, job: dict) -> dict:
        span = self.tr.span
        table = {w: Fraction(v) for w, v in job["table"]}
        model = CumulantModel.of(job["gens"], job["model_order"], table)
        els = [NcPolynomial.of({w: Fraction(v) for w, v in terms}) for terms in job["elements"]]
        with span("freeprob.moment_series"):
            m = moment_series(model, els, job["order"])
        with span("freeprob.r_transform"):
            r = r_transform(m)
        with span("freeprob.m_from_r"):
            m2 = m_from_r(r)
        with span("series.boxed_inverse"):
            inv = boxed_inverse(m)
        with span("freeprob.check_free"):
            free, witness = check_free(r, job["groups"])
        text = "\n".join((
            "M", to_tsv(m), "R", to_tsv(r), "INV", to_tsv(inv), f"FREE\t{free}\t{witness}",
        ))
        counts = {
            "freeprob.moment_words": len(m.items),
            "series.out_coeffs": len(m.items) + len(r.items) + len(m2.items) + len(inv.items),
        }
        return {"text": text, "m": m, "m2": m2, "inv": inv, "free": free, "counts": counts}

    def _closure(self, job: dict) -> dict:
        spec, model, fam = self._family(job["spec"])
        d = spec.d
        a = [[fam.entry(1, i, j) for j in range(1, d + 1)] for i in range(1, d + 1)]
        lam = [Fraction(v) for v in job["lam"]]
        shift = [Fraction(v) for v in job["shift"]]
        # A Lam A + Shift: a polynomial in the family and the diagonal scalars
        grid = [
            [
                sum(((a[i][k] * a[k][j]).scale(lam[k]) for k in range(d)), NcPolynomial.zero())
                + (NcPolynomial.unit().scale(shift[i]) if i == j else NcPolynomial.zero())
                for j in range(d)
            ]
            for i in range(d)
        ]
        with self.tr.span("rcyclic.closure_check"):
            ok, witness = closure_check(fam, grid, job["budget"])
        return {"text": f"CLOSURE\t{ok}\t{witness}", "ok": ok, "counts": {}}

    def _matrix(self, job: dict) -> dict:
        span = self.tr.span
        spec, model, fam = self._family(job["spec"])
        mats = _matrices(model, fam)
        args = [mats[r - 1] for r in job["word"]]
        with span("opvalued.check_amalgamated_freeness"):
            ok, witness = check_amalgamated_freeness(mats, job["budget"])
        with span("opvalued.opvalued_cumulant_generic"):
            kb = opvalued_cumulant_generic(args, "B")
            kd = opvalued_cumulant_generic(args, "D")
        with span("opvalued.dcumulant_data"):
            data = dcumulant_data(mats, job["k"])
        parts = [f"AMALG\t{ok}\t{witness}", "KB", _fmt_matrix(kb), "KD", _fmt_matrix(kd), "DCUM"]
        parts += [
            f"{rw}\t{iw}\t{format_rational(v)}"
            for (rw, iw), v in sorted(data.items(), key=lambda kv: (len(kv[0][0]), kv[0]))
        ]
        dv = None
        if ok:
            # the weighted chain formula presumes the family is R-cyclic
            with span("opvalued.dvalued_cumulant"):
                dv = dvalued_cumulant(args)
            parts += ["DVAL", _fmt_matrix(dv)]
        counts = {"opvalued.amalg_pass": int(ok), "opvalued.amalg_fail": int(not ok)}
        return {
            "text": "\n".join(parts), "ok": ok, "fam": fam, "kd": kd, "data": data,
            "dv": dv, "k": job["k"], "counts": counts,
        }

    def argv(self, job: dict) -> list[str]:
        """Request arguments with generated-spec names resolved to paths."""
        out = []
        for a in job["argv"]:
            out.append(os.path.join(self.workdir, a[1:] + ".spec") if a.startswith("@") else a)
        return out

    def request(self, argv: list[str]) -> tuple[int, str, str]:
        """One CLI request in a fresh interpreter; a timeout reads as exit -9."""
        try:
            p = subprocess.run(
                [sys.executable, "-c", CLI_ENTRY, *argv], env=self.env, capture_output=True,
                text=True, timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -9, "", "timeout"
        return p.returncode, p.stdout, p.stderr

    def _cli(self, job: dict) -> dict:
        argv = self.argv(job)
        with self.tr.span("cli." + argv[0]):
            code, out, err = self.request(argv)
        return {"text": _cli_text(argv, code, out), "code": code, "out": out, "err": err,
                "argv": argv}

    # ----- untimed gate and counts -------------------------------------------

    def counts(self, job: dict, res: dict) -> dict[str, int]:
        """Work-size counts of one job, computed from its inputs and outputs."""
        if job["kind"] != "cli":
            return res["counts"]
        argv, out = res["argv"], res["out"]
        counts = {"cli.exit_mismatch": int(res["code"] != self.expected(argv)[0])}
        if res["code"] == 2:
            return counts
        if argv[0] == "rcyclic":
            spec = _load(argv)
            d, s = spec.d, spec.s
            order = int(_opt(argv, "--order", str(spec.order)))
            counts["rcyclic.patterns"] = sum((s * d * d) ** k for k in range(1, order + 1))
            if argv[1] == "determining-series":
                counts["rcyclic.table_entries"] = len(out.splitlines())
        if argv[0] == "series" or (argv[0] == "rcyclic" and argv[1] != "check"):
            counts["series.out_coeffs"] = len(out.splitlines())
        if argv[0] == "check":
            passed = out.startswith("PASS")
            counts["opvalued.amalg_pass"], counts["opvalued.amalg_fail"] = int(passed), int(not passed)
        return counts

    def gate(self, job: dict, res: dict) -> str | None:
        kind = job["kind"]
        if kind == "spectra":
            if m_from_r(res["r"]) != res["m"]:
                return "m_from_r(family_rtransform) != family_moments"
            if job["order"] <= 4 and brute_force_family_moments(res["fam"], job["order"]) != res["m"]:
                return "family_moments differs from the brute-force oracle"
            return None
        if kind == "scalar":
            m = res["m"]
            if res["m2"] != m:
                return "m_from_r(r_transform(m)) != m"
            if boxed_convolve(res["inv"], m) != delta(m.alphabet, m.order):
                return "boxed_inverse(m) [*] m != delta"
            if res["free"] != job["free"]:
                return f"check_free says {res['free']}, construction says {job['free']}"
            return None
        if kind == "closure":
            # an R-cyclic family stays R-cyclic when a polynomial in its matrices
            # and the diagonal scalars is added
            return None if res["ok"] else "closure_check rejected a polynomial in the family"
        if kind == "matrix":
            fam = res["fam"]
            cyclic, _ = is_rcyclic(fam)
            if res["ok"] != cyclic:
                return f"amalgamated-freeness verdict {res['ok']} != is_rcyclic {cyclic}"
            if cyclic:
                if res["data"] != cyclic_family(fam, res["k"]).table:
                    return "dcumulant_data != cyclic table"
                if res["dv"] != res["kd"]:
                    return "dvalued_cumulant != D-valued generic cumulant"
            return None
        return self._gate_cli(job, res)

    def _gate_cli(self, job: dict, res: dict) -> str | None:
        argv = res["argv"]
        want_code, want_out = self.expected(argv)
        if res["code"] != want_code:
            return f"exit {res['code']}, want {want_code}: {' '.join(job['argv'])}"
        if res["out"] != want_out:
            return f"stdout differs from the library answer: {' '.join(job['argv'])}"
        if want_code == 2:
            lines = res["err"].splitlines()
            if len(lines) != 1 or not lines[0].startswith("error: "):
                return f"usage error without a one-line message: {' '.join(job['argv'])}"
        return None

    def expected(self, argv: list[str]) -> tuple[int, str]:
        """The library's answer to a request, computed in this process."""
        key = tuple(argv)
        hit = self._expected.get(key)
        if hit is None:
            lines: list[str] = []
            code = _library_answer(argv, lines)
            hit = self._expected[key] = (code, "".join(line + "\n" for line in lines))
        return hit

    # ----- probes (traced runs only, outside job timing) ---------------------

    def probe(self, job: dict) -> None:
        """Time, alone, the layer call a job hides inside a larger one."""
        span = self.tr.span
        if job["kind"] == "spectra":
            with span("series.h_series"):
                h_series(job["d"], job["order"])
            return
        if job["kind"] != "cli":
            return
        argv = self.argv(job)
        if argv[0] == "mc":
            cfg = _mc_config(argv)
            with span("mc.sample_block_moments"):
                mcmod.sample_block_moments(cfg, MC_MAX_MOMENT)
        elif argv[:3] == ["series", "--kind", "Hd"] or argv[:2] == ["rcyclic", "rtransform"]:
            d, order = _h_shape(argv)
            with span("series.h_series"):
                h_series(d, order)


def _cli_text(argv: list[str], code: int, out: str) -> str:
    if argv[0] == "mc":
        # sampled means and standard errors are floats from LAPACK, whose last
        # bits may differ between CPUs; hash only the exact columns
        out = "".join(
            "\t".join(f for t, f in enumerate(line.split("\t")) if t not in (1, 2)) + "\n"
            if not line.startswith("WITNESS") else "WITNESS\n"
            for line in out.splitlines()
        )
    return f"exit={code}\n{out}"


def _opt(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _load(argv: list[str]):
    with open(_opt(argv, "--spec"), encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _h_shape(argv: list[str]) -> tuple[int, int]:
    if argv[0] == "series":
        return int(_opt(argv, "--d")), int(_opt(argv, "--order"))
    spec = _load(argv)
    return spec.d, spec.order


def _mc_config(argv: list[str]):
    spec = _load(argv)
    radii = [[Fraction(0)] * spec.d for _ in range(spec.d)]
    for decl in spec.decls:
        j = decl.j if isinstance(decl, CircularDecl) else decl.i
        radii[decl.i - 1][j - 1] = radii[j - 1][decl.i - 1] = decl.radius
    return mcmod.McConfig.of(
        spec.d, radii, int(_opt(argv, "--size")), int(_opt(argv, "--trials")),
        int(_opt(argv, "--seed")),
    )


def _witness(*fields: object) -> str:
    return "WITNESS\t" + "\t".join(str(f) for f in fields)


def _library_answer(argv: list[str], out: list[str]) -> int:
    """Exit code and stdout lines the CLI contract implies for a request.

    Usage and spec errors give exit 2 and no stdout; a failed check gives
    exit 1 with a WITNESS line.
    """
    cmd = argv[0]
    try:
        if cmd == "series":
            kind, order = _opt(argv, "--kind"), int(_opt(argv, "--order"))
            s, d = int(_opt(argv, "--s", "1")), int(_opt(argv, "--d", "1"))
            if s < 1 or order < 1 or (kind in ("Gd", "Hd") and d < 1):
                return 2
            f = {"Zeta": lambda: zeta(s, order), "Moebius": lambda: moebius(s, order),
                 "Delta": lambda: delta(s, order), "Gd": lambda: geometric(d, order),
                 "Hd": lambda: h_series(d, order)}[kind]()
            out.extend(to_tsv(f).splitlines())
            return 0
        if cmd == "verify":
            code = 0
            for report in run_suite(_opt(argv, "--suite", "all"), int(_opt(argv, "--order", "4"))):
                out.append(report.line())
                if not report.passed:
                    code = 1
                    out.append(_witness(report.name, report.inputs))
            return code
        spec = _load(argv)
        model, fam = build_model(spec)
        if cmd == "rcyclic":
            action = argv[1]
            order = int(_opt(argv, "--order", str(spec.order)))
            if order > spec.order:
                return 2
            if action == "check":
                ok, witness = is_rcyclic(fam, order)
                if ok:
                    out.append("PASS\trcyclic")
                    return 0
                rword, pairs = witness
                out += ["FAIL\trcyclic", _witness(
                    ",".join(map(str, rword)), ";".join(f"{i},{j}" for i, j in pairs))]
                return 1
            try:
                f = determining_series(fam, order)
            except ValueError as exc:
                out += ["FAIL\trcyclic", _witness(exc)]
                return 1
            if action == "determining-series":
                out.extend(to_tsv(f, pair_d=spec.d).splitlines())
            elif action == "moments":
                out.extend(to_tsv(family_moments(f, spec.d)).splitlines())
            else:
                out.extend(to_tsv(family_rtransform(f, spec.d)).splitlines())
            return 0
        if cmd == "check":
            budget = int(_opt(argv, "--budget", "4"))
            if not 1 <= budget <= spec.order:
                return 2
            ok, witness = check_amalgamated_freeness(_matrices(model, fam), budget)
            if ok:
                out.append("PASS\tamalg-freeness")
                return 0
            out += ["FAIL\tamalg-freeness", _witness(witness)]
            return 1
        if cmd == "opcumulant":
            rword = tuple(int(t) for t in _opt(argv, "--word").split(","))
            if not all(1 <= r <= spec.s for r in rword) or len(rword) > spec.order:
                return 2
            mats = _matrices(model, fam)
            km = opvalued_cumulant_generic([mats[r - 1] for r in rword], _opt(argv, "--algebra"))
            out.extend(_fmt_matrix(km).splitlines())
            return 0
        if cmd == "mc":
            if spec.s != 1 or not all(
                isinstance(d, (SemicircularDecl, CircularDecl)) for d in spec.decls
            ):
                return 2
            cfg = _mc_config(argv)
            exact = mcmod.exact_family_moments(cfg, MC_MAX_MOMENT)
            samples = mcmod.sample_block_moments(cfg, MC_MAX_MOMENT)
            by_n = {n: (mean, err) for n, mean, err in samples}
            code = 0
            for n, report in zip(sorted(exact), mcmod.compare(cfg, exact, samples)):
                mean, err = by_n[n]
                status = "PASS" if report.passed else "FAIL"
                out.append(f"{n}\t{mean!r}\t{err!r}\t{format_rational(exact[n])}\t{status}")
                if not report.passed:
                    code = 1
                    out.append(_witness(report.inputs, report.expected, report.actual))
            return code
    except (OSError, ValueError):
        # unreadable or malformed spec, bad word: the contract says exit 2
        out.clear()
        return 2
    raise ValueError(f"no library answer for request {argv}")


def nc_probe(max_n: int) -> dict[str, float]:
    """Cold NC(n) enumeration and complements for n <= max_n (run in a fresh process)."""
    import time

    from ncfree import enumerate_nc, kreweras

    t0 = time.perf_counter()
    parts = [enumerate_nc(n) for n in range(1, max_n + 1)]
    t1 = time.perf_counter()
    for ps in parts:
        for p in ps:
            kreweras(p)
    t2 = time.perf_counter()
    count = sum(len(ps) for ps in parts)
    if count != sum(math.comb(2 * n, n) // (n + 1) for n in range(1, max_n + 1)):
        raise ValueError(f"NC(n) counts are not Catalan numbers for n <= {max_n}")
    return {"enumerate_nc_s": t1 - t0, "kreweras_s": t2 - t1, "partitions": count}


def warm_nc(max_n: int) -> None:
    """Fill the global NC caches through public calls, as a long-lived user would."""
    boxed_convolve(zeta(1, max_n), moebius(1, max_n))
    nc_probe(max_n)
