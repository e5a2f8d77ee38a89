"""Seeded job lists for the three workloads.

Every workload is a fixed template of job slots; the seed only fills in the
content of each slot (which entries carry cumulants, their values, which
bundled spec or word a request uses).  Slot shapes (matrix size d, matrix
count s, order N, budget) never depend on the seed, so different seeds give
jobs of the same cost profile and the run-to-run spread stays small.

Jobs are plain data (spec text, tuples, argument lists); nothing here imports
ncfree, so a job builds its own CumulantModel inside the timed region and the
per-model caches start cold for every job.
"""

from __future__ import annotations

import random

WORKLOADS = ("spectra", "freeness", "cli")

# Every workload runs 22 jobs per pass; a run measures whole passes, three to
# five of them at the default --seconds.
JOBS_PER_PASS = 22

# Slot costs are grouped so that the median (rank ~10.5 of 22) and the p75
# tail (rank ~16) each fall inside a run of similar jobs, never on the edge
# between two cost groups: then noise cannot swap which job sits at the rank.
#
# (d, s, N, rich) per spectra slot: three ~0.01 s (2,1,4) jobs; eleven
# ~0.12 s (3,1,4) jobs around the median; five ~0.17 s (2,1,6) jobs around
# p75; three 0.7-1.7 s jobs, (2,1,7), (2,2,5) and (3,2,4) (times at the seed
# commit on a 2-core x86 box).  Big jobs are spread over the pass.
SPECTRA_SLOTS = (
    (2, 1, 4, False), (3, 1, 4, True), (2, 1, 6, False), (3, 1, 4, False),
    (2, 1, 7, False), (3, 1, 4, True), (2, 1, 6, True), (3, 1, 4, False),
    (2, 1, 4, True), (3, 1, 4, True), (2, 2, 5, True), (3, 1, 4, False),
    (2, 1, 6, False), (3, 1, 4, True), (2, 1, 4, False), (3, 1, 4, False),
    (3, 2, 4, True), (3, 1, 4, True), (2, 1, 6, True), (3, 1, 4, False),
    (2, 1, 6, False), (3, 1, 4, True),
)

BUNDLED_SPECS = ("scripts/circ2x2.spec", "scripts/mixed2x2.spec", "scripts/twofree2x2.spec")

# Requests whose exit code breaks the CLI contract at the time the benchmark
# was written (a ValueError traceback with exit 1 instead of exit 2).  They
# run once per run outside the timed stream; see README.md.
KNOWN_BROKEN = (
    ("series", "--kind", "Zeta", "--s", "0", "--order", "3"),
    ("series", "--kind", "Moebius", "--s", "1", "--order", "0"),
)


def _rng(workload: str, seed: int, slot: int) -> random.Random:
    # string seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{slot}")


def family_spec(rng: random.Random, d: int, s: int, order: int, chains: int = 0,
                injected: bool = False, mc_only: bool = False,
                values: random.Random | None = None) -> str:
    """Spec text of an R-cyclic family, optionally with one non-cyclic cumulant.

    Every diagonal entry is semicircular and, for d > 1, each matrix has one
    circular pair; `chains` adds cyclic cumulant chains of lengths 3, 4, 3, ...
    (at most the order).  `injected` adds a length-2 cumulant whose index
    chain does not close, so the family stops being R-cyclic.  `mc_only`
    keeps to the shorthands the Monte Carlo subcommand accepts.  `rng` picks
    positions and `values` (default: `rng`) the values; neither changes how
    many entries there are.
    """
    val = values or rng
    lines = [f"order {order}", f"dim {d}", f"matrices {s}"]
    for r in range(1, s + 1):
        for i in range(1, d + 1):
            lines.append(f"semicircular r={r} i={i} radius {val.randint(1, 4)}/1")
        if d > 1:
            i, j = sorted(rng.sample(range(1, d + 1), 2))
            lines.append(f"circular r={r} i={i} j={j} radius {val.randint(1, 4)}/1")
    if not mc_only:
        used: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        while len(used) < chains:
            length = min(3 + len(used) % 2, order)
            rword = tuple(rng.randint(1, s) for _ in range(length))
            iword = tuple(rng.randint(1, d) for _ in range(length))
            if (rword, iword) in used:
                continue
            used.add((rword, iword))
            ents = " ".join(
                f"{rword[t]}:{iword[t - 1]},{iword[t]}" for t in range(length)
            )
            lines.append(f"cumulant {ents} = {val.randint(1, 5)}/2")
        if injected:
            # entries (i,j) then (i,j) with i != j: column j never meets row i
            r = rng.randint(1, s)
            i, j = rng.sample(range(1, d + 1), 2)
            lines.append(f"cumulant {r}:{i},{j} {r}:{i},{j} = {val.randint(1, 3)}/2")
    return "\n".join(lines) + "\n"


def spectra_jobs(seed: int) -> list[dict]:
    jobs = []
    for k, (d, s, order, rich) in enumerate(SPECTRA_SLOTS):
        rng = _rng("spectra", seed, k)
        jobs.append({
            "kind": "spectra", "d": d, "s": s, "order": order,
            "spec": family_spec(rng, d, s, order, chains=3 if rich else 0),
        })
    return jobs


def _scalar_job(rng: random.Random, gens: int, degree: int, order: int, free: bool) -> dict:
    # Element 1 lives on generator 1, the others on generators 2..gens.  With
    # no mixed cumulant between the two groups the elements are free; a mixed
    # second cumulant (all values positive) makes them not free.  Every
    # element has a nonzero mean, so its moment series is boxed-invertible.
    table: dict[tuple[int, ...], str] = {}
    for g in range(1, gens + 1):
        table[(g, g)] = f"{rng.randint(1, 4)}/2"
        table[(g, g, g)] = f"{rng.randint(1, 2)}/3"
    for g in range(2, gens):
        table[(g, g + 1)] = table[(g + 1, g)] = "1/3"
    if not free:
        table[(1, 2)] = table[(2, 1)] = f"{rng.randint(1, 2)}/4"
    elements = []
    for r in range(1, min(gens, 3) + 1):
        pool = [1] if r == 1 else list(range(2, gens + 1))
        terms: dict[tuple[int, ...], str] = {(): f"{rng.randint(1, 4)}/1"}
        for g in pool:
            terms[(g,)] = f"{rng.randint(1, 4)}/2"
        if degree == 2:
            g = rng.choice(pool)
            terms[(g, g)] = f"{rng.randint(1, 2)}/3"
        elements.append(sorted(terms.items()))
    groups = [[1], list(range(2, len(elements) + 1))]
    return {
        "kind": "scalar", "gens": gens, "model_order": order * degree,
        "table": sorted(table.items()), "elements": elements, "order": order,
        "groups": groups, "free": free,
    }


def freeness_jobs(seed: int) -> list[dict]:
    """Three job classes with roughly equal shares of a pass."""
    jobs: list[dict] = []

    def rng() -> random.Random:
        return _rng("freeness", seed, len(jobs))

    def scalar(gens: int, degree: int, order: int, free: bool) -> None:
        jobs.append(_scalar_job(rng(), gens, degree, order, free))

    # Family shapes (which entries are nonzero) depend on the job kind and
    # size alone and the seed only draws values: the cost of these checks
    # depends on where the nonzero entries sit, and that should not vary from
    # seed to seed or between jobs of one cost group.
    def shape(kind: str, d: int, s: int) -> random.Random:
        return random.Random(f"freeness-shape:{kind}:{d}:{s}")

    def matrix(d: int, s: int, budget: int, word: list[int], injected: bool = False) -> None:
        r = rng()
        jobs.append({
            "kind": "matrix",
            "spec": family_spec(shape("matrix", d, s), d, s, 4, chains=1, injected=injected,
                                values=r),
            "budget": budget, "word": word, "k": 3,
        })

    def closure(d: int, s: int, budget: int) -> None:
        r = rng()
        jobs.append({
            "kind": "closure",
            "spec": family_spec(shape("closure", d, s), d, s, 4, chains=1, values=r),
            "lam": [f"{r.randint(1, 3)}/1" for _ in range(d)],
            "shift": [f"{r.randint(1, 3)}/1" for _ in range(d)],
            "budget": budget,
        })

    # Linear elements to order 6 load the dense convolutions; quadratic ones
    # to order 4 load phi_word on words of length 8.  Cost groups: seven
    # jobs under 0.25 s; seven ~0.3 s d=3 word tests around the median; six
    # ~0.5 s scalar and closure jobs around p75; two ~1 s jobs.
    matrix(3, 1, 2, [1, 1, 1])
    scalar(2, 1, 6, free=True)
    closure(2, 1, 4)
    matrix(3, 1, 2, [1, 1])
    closure(2, 2, 4)
    matrix(2, 1, 2, [1, 1, 1], injected=True)
    matrix(3, 1, 2, [1, 1, 1, 1])
    scalar(2, 2, 4, free=True)
    closure(3, 1, 4)
    matrix(3, 1, 2, [1, 1, 1])
    scalar(2, 1, 6, free=False)
    closure(2, 1, 3)
    matrix(3, 1, 2, [1, 1])
    closure(2, 2, 4)
    matrix(2, 1, 2, [1, 1], injected=True)
    scalar(3, 1, 5, free=False)
    matrix(3, 1, 2, [1, 1, 1])
    closure(2, 1, 4)
    scalar(2, 1, 6, free=True)
    matrix(3, 1, 2, [1, 1, 1, 1])
    scalar(2, 2, 4, free=False)
    closure(2, 2, 4)
    return jobs


def cli_jobs(seed: int) -> list[dict]:
    """Requests as argument lists; generated specs are returned as files to write.

    A spec path of the form '@name' refers to a generated spec; the child
    process writes it under its work directory and substitutes the path.
    """
    jobs: list[dict] = []
    files: dict[str, str] = {}

    def rng() -> random.Random:
        return _rng("cli", seed, len(jobs))

    def gen_spec(r, name, *args, **kw) -> str:
        files[name] = family_spec(r, *args, **kw)
        return "@" + name

    def add(*argv: str) -> None:
        jobs.append({"kind": "cli", "argv": list(argv)})

    r = rng()
    add("series", "--kind", "Zeta", "--s", str(r.randint(1, 2)), "--order", "5")
    r = rng()
    add("rcyclic", "moments", "--spec", r.choice(BUNDLED_SPECS))
    r = rng()
    add("check", "amalg-freeness", "--spec", gen_spec(r, "amalg_ok", 2, 1, 4, chains=1),
        "--budget", "3")
    r = rng()
    add("opcumulant", "--spec", r.choice(BUNDLED_SPECS), "--algebra", "B", "--word", "1,1,1")
    r = rng()
    add("rcyclic", "rtransform", "--spec", gen_spec(r, "rt5", 2, 1, 5, chains=2))
    r = rng()
    add("series", "--kind", "Hd", "--d", "2", "--order", str(r.randint(5, 6)))
    r = rng()
    add("mc", "--spec", gen_spec(r, "mc", 2, 1, 6, mc_only=True), "--size", "128",
        "--trials", "4", "--seed", str(r.randint(0, 99)))
    r = rng()
    add("rcyclic", "check", "--spec", gen_spec(r, "bad", 2, 1, 4, injected=True))
    r = rng()
    add("verify", "--order", "4")
    r = rng()
    add("rcyclic", "determining-series", "--spec", gen_spec(r, "ds", 2, 2, 4, chains=2))
    r = rng()
    word = ",".join(str(r.randint(1, 2)) for _ in range(r.randint(2, 4)))
    add("opcumulant", "--spec", "scripts/twofree2x2.spec", "--algebra", "D", "--word", word)
    r = rng()
    add("series", "--kind", "Moebius", "--s", "3", "--order", "4")
    r = rng()
    add("check", "amalg-freeness", "--spec", gen_spec(r, "amalg_bad", 2, 2, 4, injected=True),
        "--budget", "2")
    r = rng()
    add("rcyclic", "moments", "--spec", gen_spec(r, "d3", 3, 1, 4, chains=1))
    r = rng()
    add(*_malformed(r, files))
    r = rng()
    add("mc", "--spec", r.choice(BUNDLED_SPECS[:2]), "--size", "256", "--trials", "8",
        "--seed", str(r.randint(0, 99)))
    r = rng()
    add("check", "amalg-freeness", "--spec", "scripts/mixed2x2.spec", "--budget",
        str(r.randint(2, 3)))
    r = rng()
    add("rcyclic", "check", "--spec", r.choice(BUNDLED_SPECS))
    r = rng()
    add("opcumulant", "--spec", gen_spec(r, "op3", 3, 1, 4, chains=1), "--algebra",
        r.choice("BD"), "--word", "1,1")
    r = rng()
    add("series", "--kind", r.choice(["Zeta", "Moebius"]), "--s", "2", "--order", "4")
    r = rng()
    add("rcyclic", "rtransform", "--spec", gen_spec(r, "rt6", 2, 1, 6, chains=1))
    r = rng()
    add("check", "amalg-freeness", "--spec", gen_spec(r, "amalg2", 2, 2, 4, chains=1),
        "--budget", "2")
    for job in jobs:
        job["files"] = files
    return jobs


def _malformed(rng: random.Random, files: dict[str, str]) -> tuple[str, ...]:
    """One usage or spec error that the CLI must reject with exit 2."""
    kind = rng.randrange(5)
    if kind == 0:
        return ("rcyclic", "moments", "--spec", "perfbench/no-such.spec")
    if kind == 1:
        return ("check", "amalg-freeness", "--spec", "scripts/circ2x2.spec", "--budget", "0")
    if kind == 2:
        return ("opcumulant", "--spec", "scripts/mixed2x2.spec", "--algebra", "B",
                "--word", "1,x")
    if kind == 3:
        return ("rcyclic", "rtransform", "--spec", "scripts/twofree2x2.spec", "--order", "9")
    # a spec whose last declaration repeats an earlier one
    text = family_spec(rng, 2, 1, 4)
    files["dup"] = text + text.splitlines()[-1] + "\n"
    return ("rcyclic", "moments", "--spec", "@dup")


def jobs_for(workload: str, seed: int) -> list[dict]:
    if workload == "spectra":
        return spectra_jobs(seed)
    if workload == "freeness":
        return freeness_jobs(seed)
    if workload == "cli":
        return cli_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def max_order(workload: str) -> int:
    """Largest NC(n) a job of the workload needs; the warm-up fills caches to it."""
    return {"spectra": 7, "freeness": 8, "cli": 6}[workload]
