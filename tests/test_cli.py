import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ncfree
from ncfree.cli import (
    CircularDecl,
    CumulantDecl,
    SemicircularDecl,
    SpecError,
    SpecFile,
    build_model,
    emit_spec,
    parse_spec,
    run,
)

CIRC_SPEC = """\
# one circular offdiagonal pair, radius 2
order 6
dim 2
matrices 1
circular r=1 i=1 j=2 radius 2/1
"""

MIXED_SPEC = """\
order 6
dim 2
matrices 1
semicircular r=1 i=1 radius 2/1
semicircular r=1 i=2 radius 2/1
circular r=1 i=1 j=2 radius 2/1
"""


# one order past the non-crossing partition cap (ncpartition.DEFAULT_MAX_GROUND_SET)
ORDER13_SPEC = MIXED_SPEC.replace("order 6", "order 13")


def spec_file(tmp_path, text, name="family.spec"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_spec():
    spec = parse_spec(CIRC_SPEC)
    assert (spec.order, spec.d, spec.s) == (6, 2, 1)
    assert len(spec.decls) == 1
    decl = spec.decls[0]
    assert isinstance(decl, CircularDecl)
    assert (decl.r, decl.i, decl.j, decl.radius) == (1, 1, 2, Fraction(2))


def test_parse_cumulant_lines():
    spec = parse_spec("order 3\ndim 2\nmatrices 2\ncumulant 1:1,2 2:2,1 = -3/4\n")
    decl = spec.decls[0]
    assert isinstance(decl, CumulantDecl)
    assert decl.entries == ((1, 1, 2), (2, 2, 1))
    assert decl.value == Fraction(-3, 4)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("order 2\ndim 2\nmatrices 1\ncumulant 1:3,1 = 1\n", "line 4"),
        ("order 2\ndim 2\ncumulant 1:1,1 = 1\n", "line 3"),  # matrices missing
        ("order 2\ndim 2\nmatrices 1\nfrobnicate 1\n", "line 4"),
        ("order 2\norder 3\ndim 2\nmatrices 1\n", "line 2"),
        ("order 2\ndim 2\nmatrices 1\ncumulant 1:1,1 = x\n", "line 4"),
        ("order 2\ndim 2\nmatrices 1\ncircular r=1 i=1 j=1 radius 1\n", "line 4"),
        ("order 1\ndim 2\nmatrices 1\nsemicircular r=1 i=1 radius 1\n", "line 4"),
    ]
    for text, frag in cases:
        with pytest.raises(SpecError) as exc:
            parse_spec(text)
        assert frag in str(exc.value)


def test_duplicate_keys_rejected_across_shorthand():
    text = (
        "order 4\ndim 2\nmatrices 1\n"
        "semicircular r=1 i=1 radius 2\n"
        "cumulant 1:1,1 1:1,1 = 1\n"
    )
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert "line 5" in str(exc.value) and "line 4" in str(exc.value)


def test_emit_parse_round_trip():
    spec = SpecFile(
        order=4,
        d=2,
        s=2,
        decls=(
            CumulantDecl(entries=((1, 1, 2), (2, 2, 1)), value=Fraction(1, 3)),
            SemicircularDecl(r=2, i=1, radius=Fraction(5, 2)),
            CircularDecl(r=1, i=2, j=1, radius=Fraction(1)),
        ),
    )
    assert parse_spec(emit_spec(spec)) == spec
    assert parse_spec(emit_spec(parse_spec(MIXED_SPEC))) == parse_spec(MIXED_SPEC)


def test_build_model_expands_shorthand():
    model, fam = build_model(parse_spec(MIXED_SPEC))
    assert model.generators == 4
    # radius 2 means k2 = 1 on each declared slot
    assert model.table == {
        (1, 1): Fraction(1),
        (4, 4): Fraction(1),
        (2, 3): Fraction(1),
        (3, 2): Fraction(1),
    }
    assert fam.d == 2 and fam.s == 1


def test_cli_series_hd(capsys):
    assert run(["series", "--kind", "Hd", "--d", "2", "--order", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "1,2\t-1/2" in lines
    assert "1,1\t1/2" in lines
    assert not any(len(w.split(",")) == 3 and v != "0/1" for w, v in (l.split("\t") for l in lines))


def test_cli_series_moebius(capsys):
    assert run(["series", "--kind", "Moebius", "--s", "1", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1\t1/1", "1,1\t-1/1", "1,1,1\t2/1", "1,1,1,1\t-5/1"]


def test_cli_rcyclic_rtransform(tmp_path, capsys):
    path = spec_file(tmp_path, CIRC_SPEC)
    assert run(["rcyclic", "rtransform", "--spec", path]) == 0
    assert capsys.readouterr().out == "1,1\t1/1\n"


def test_cli_rcyclic_moments(tmp_path, capsys):
    path = spec_file(tmp_path, MIXED_SPEC)
    assert run(["rcyclic", "moments", "--spec", path, "--order", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "1,1\t2/1" in lines
    assert "1,1,1,1\t8/1" in lines


def test_cli_rcyclic_determining_series(tmp_path, capsys):
    path = spec_file(tmp_path, CIRC_SPEC)
    assert run(["rcyclic", "determining-series", "--spec", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "1:1,1:2\t1/1" in lines and "1:2,1:1\t1/1" in lines


def test_cli_rcyclic_order_cap(tmp_path, capsys):
    path = spec_file(tmp_path, CIRC_SPEC)
    assert run(["rcyclic", "moments", "--spec", path, "--order", "9"]) == 2
    assert "order" in capsys.readouterr().err


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize("action", ["moments", "rtransform", "determining-series", "check"])
def test_cli_rcyclic_order_below_one_is_a_usage_error(action, order, tmp_path, capsys):
    path = spec_file(tmp_path, CIRC_SPEC)
    assert_usage_error(run(["rcyclic", action, "--spec", path, "--order", str(order)]), capsys)


def test_cli_rcyclic_check_pass_and_fail(tmp_path, capsys):
    good = spec_file(tmp_path, CIRC_SPEC, "good.spec")
    assert run(["rcyclic", "check", "--spec", good]) == 0
    assert capsys.readouterr().out.startswith("PASS\trcyclic")
    bad = spec_file(tmp_path, "order 2\ndim 2\nmatrices 1\ncumulant 1:1,2 = 1\n", "bad.spec")
    assert run(["rcyclic", "check", "--spec", bad]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL\trcyclic")
    assert "WITNESS\t" in out


def test_cli_check_amalg_freeness(tmp_path, capsys):
    good = spec_file(tmp_path, MIXED_SPEC)
    assert run(["check", "amalg-freeness", "--spec", good, "--budget", "3"]) == 0
    assert capsys.readouterr().out.startswith("PASS\t")
    bad = spec_file(tmp_path, "order 2\ndim 2\nmatrices 1\ncumulant 1:1,2 = 1\n", "bad.spec")
    assert run(["check", "amalg-freeness", "--spec", bad, "--budget", "2"]) == 1
    out = capsys.readouterr().out
    assert "WITNESS\t1 V(2,1) A1" in out


# semicircular diagonal entries and one non-cyclic cumulant of length 6
LATE_SPEC = """\
order 8
dim 2
matrices 1
semicircular r=1 i=1 radius 1/1
semicircular r=1 i=2 radius 1/1
cumulant 1:1,2 1:1,2 1:1,2 1:1,2 1:1,2 1:1,2 = 1/1
"""


def test_cli_check_refuses_a_search_past_the_cap(tmp_path, capsys):
    # budget 6 searches and fails; budget 7 would search about 1.7e5 words
    path = spec_file(tmp_path, LATE_SPEC)
    started = time.process_time()
    assert_usage_error(run(["check", "amalg-freeness", "--spec", path, "--budget", "7"]), capsys)
    assert time.process_time() - started < 1.0


def test_cli_opcumulant(tmp_path, capsys):
    path = spec_file(tmp_path, MIXED_SPEC)
    assert run(["opcumulant", "--spec", path, "--algebra", "B", "--word", "1,1"]) == 0
    out = capsys.readouterr().out
    assert out == "2/1\t0/1\n0/1\t2/1\n"
    assert run(["opcumulant", "--spec", path, "--algebra", "D", "--word", "1"]) == 0
    assert capsys.readouterr().out == "0/1\t0/1\n0/1\t0/1\n"


def test_cli_opcumulant_eight_letters_with_means(tmp_path, capsys):
    # every entry has mean 1 and variance 1, so no first moment vanishes
    entries = [f"1:{i},{j}" for i in (1, 2) for j in (1, 2)]
    text = "order 8\ndim 2\nmatrices 1\n" + "".join(
        f"cumulant {e} = 1/1\ncumulant {e} {e} = 1/1\n" for e in entries
    )
    path = spec_file(tmp_path, text)
    model, fam = build_model(parse_spec(text))
    x = ncfree.OperatorMatrix.of(model, fam.grids[0])
    for algebra in ("B", "D"):
        km = ncfree.opvalued_cumulant_generic([x] * 8, algebra)
        fmt = ncfree.format_rational
        want = "".join(f"{fmt(km.entry(i, 1))}\t{fmt(km.entry(i, 2))}\n" for i in (1, 2))
        assert run(["opcumulant", "--spec", path, "--algebra", algebra, "--word", ",".join("1" * 8)]) == 0
        assert capsys.readouterr().out == want


def test_cli_verify(capsys):
    assert run(["verify", "--suite", "series", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert out and all(line.startswith("PASS\t") for line in out.splitlines())


def test_cli_verify_unknown_suite(capsys):
    assert run(["verify", "--suite", "nope"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_mc_small(tmp_path, capsys):
    path = spec_file(tmp_path, CIRC_SPEC)
    code = run([
        "mc", "--spec", path, "--size", "64", "--trials", "4",
        "--seed", "7", "--max-moment", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert all(r[-1] == "PASS" for r in rows)
    assert rows[1][3] == "1/1"  # exact second moment of the one-circular-pair family


@pytest.mark.parametrize("trials", ["1", "0", "-3"])
def test_cli_mc_needs_two_trials(tmp_path, capsys, trials):
    # a single trial would pass any tolerance through its infinite stderr
    path = spec_file(tmp_path, CIRC_SPEC)
    argv = ["mc", "--spec", path, "--max-moment", "1", "--size", "16", "--trials", trials]
    assert_usage_error(run(argv), capsys)


@pytest.mark.parametrize("max_moment", ["-1", "0", "9", "12", "13"])
def test_cli_mc_max_moment_refuses_fast(max_moment, tmp_path, capsys):
    # outside 1..mc.MAX_MC_MOMENT: refused before the exact moments, which
    # take seconds at 12 letters
    path = spec_file(tmp_path, CIRC_SPEC)
    argv = ["mc", "--spec", path, "--size", "16", "--trials", "2", "--max-moment", max_moment]
    t0 = time.process_time()
    code = run(argv)
    assert time.process_time() - t0 < 1.0
    assert_usage_error(code, capsys)


@pytest.mark.parametrize("option", [("--size", "2049"), ("--size", "20000"), ("--trials", "10001")])
def test_cli_mc_refuses_oversized_samples(option, tmp_path, capsys):
    # past mc.MAX_SAMPLE_DIM (d * size, d = 2 here) or mc.MAX_TRIALS: refused
    # before any exact work or sampling
    path = spec_file(tmp_path, CIRC_SPEC)
    argv = ["mc", "--spec", path, "--size", "16", "--trials", "2", "--max-moment", "4", *option]
    t0 = time.process_time()
    code = run(argv)
    assert time.process_time() - t0 < 1.0
    assert_usage_error(code, capsys)


def test_cli_mc_rejects_general_cumulants(tmp_path, capsys):
    bad = spec_file(tmp_path, "order 2\ndim 1\nmatrices 1\ncumulant 1:1,1 = 1\n")
    assert run(["mc", "--spec", bad]) == 2
    assert "mc" in capsys.readouterr().err


def test_cli_spec_parse_error_exit_code(tmp_path, capsys):
    bad = spec_file(tmp_path, "order 6\ndim 2\nmatrices 1\ncumulant 3:1,1 = 1\n")
    assert run(["rcyclic", "moments", "--spec", bad]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err


def test_cli_missing_file(capsys):
    assert run(["rcyclic", "moments", "--spec", "/nonexistent.spec"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_usage_error_exit_code(capsys):
    assert run(["series", "--kind", "Nope", "--order", "2"]) == 2
    capsys.readouterr()


def assert_usage_error(code, capsys):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--kind", "Zeta", "--s", "0", "--order", "3"],
        ["series", "--kind", "Moebius", "--s", "1", "--order", "0"],
        # past the partition cap: refused before any degree is convolved
        ["series", "--kind", "Hd", "--d", "2", "--order", "13"],
        # past series.MAX_SERIES_WORDS: 16 + 16^2 + ... + 16^5 words
        ["series", "--kind", "Zeta", "--s", "16", "--order", "5"],
        ["series", "--kind", "Moebius", "--s", "16", "--order", "5"],
        ["series", "--kind", "Hd", "--d", "16", "--order", "5"],
    ],
)
def test_cli_series_library_error_exit_code(argv, capsys):
    assert_usage_error(run(argv), capsys)


@pytest.mark.parametrize("kind", ["Zeta", "Moebius", "Gd"])
def test_cli_series_letter_cap_refuses_fast(kind, capsys):
    # past series.MAX_SERIES_LETTERS: refused before the first word is made
    t0 = time.perf_counter()
    code = run(["series", "--kind", kind, "--s", "1", "--d", "1", "--order", "100000"])
    assert time.perf_counter() - t0 < 1.0
    assert_usage_error(code, capsys)


def test_cli_opcumulant_word_past_partition_cap(tmp_path, capsys):
    path = spec_file(tmp_path, ORDER13_SPEC)
    code = run(["opcumulant", "--spec", path, "--algebra", "B", "--word", ",".join(["1"] * 13)])
    assert_usage_error(code, capsys)


def test_cli_opcumulant_word_past_argument_cap(tmp_path, capsys):
    # within the spec order, yet past opvalued.MAX_CUMULANT_ARGS
    path = spec_file(tmp_path, MIXED_SPEC.replace("order 6", "order 9"))
    code = run(["opcumulant", "--spec", path, "--algebra", "B", "--word", ",".join(["1"] * 9)])
    assert_usage_error(code, capsys)


def test_cli_rcyclic_order_past_partition_cap(tmp_path, capsys):
    path = spec_file(tmp_path, ORDER13_SPEC)
    assert run(["rcyclic", "check", "--spec", path]) == 0
    assert capsys.readouterr().out == "PASS\trcyclic\n"
    assert run(["rcyclic", "determining-series", "--spec", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["1:1,1:1\t1/1", "1:1,1:2\t1/1", "1:2,1:1\t1/1", "1:2,1:2\t1/1"]
    for action in ("moments", "rtransform"):
        assert_usage_error(run(["rcyclic", action, "--spec", path]), capsys)


@pytest.mark.parametrize("order", [9, 10, 13, 14])
def test_cli_verify_order_past_partition_cap(order, capsys):
    assert_usage_error(run(["verify", "--order", str(order)]), capsys)


def _loaded_after(imports: str, module: str) -> str:
    # "True\n" when `module` is loaded after the imports in a fresh interpreter
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ncfree.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {imports}; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return proc.stdout


def test_cli_import_leaves_numpy_out():
    # numpy loads only when mc samples
    assert _loaded_after("ncfree, ncfree.cli, ncfree.mc", "numpy") == "False\n"


def test_cli_import_leaves_dataclasses_out():
    # the value classes come from ncfree._frozen, which needs neither
    for module in ("dataclasses", "inspect"):
        assert _loaded_after("ncfree, ncfree.cli, ncfree.mc", module) == "False\n"


def test_cli_import_leaves_oracle_out():
    # the oracle loads only for the verify subcommand and mc's comparison
    assert _loaded_after("ncfree.cli", "ncfree.oracle") == "False\n"
    assert _loaded_after("ncfree.mc", "ncfree.oracle") == "False\n"


def test_public_surface_resolves_once():
    names = ncfree.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ncfree, name)]
    assert not missing
    removed = {"bvalued_cumulant_entrywise", "odot", "ktilde"}
    assert removed.isdisjoint(names)
    assert not any(hasattr(ncfree, name) for name in removed)


def test_bundled_scripts_run():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ncfree.__file__))}

    def call(*argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=repo, env=env, capture_output=True, text=True, timeout=60
        )

    proc = call("scripts/worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert "{1}{2,4}{3}{5}" in proc.stdout
    specs = sorted(f for f in os.listdir(os.path.join(repo, "scripts")) if f.endswith(".spec"))
    assert specs
    for spec in specs:
        proc = call(
            "-c", "import sys; from ncfree.cli import run; sys.exit(run(sys.argv[1:]))",
            "rcyclic", "moments", "--spec", os.path.join("scripts", spec),
        )
        assert proc.returncode == 0, (spec, proc.stderr)
        assert proc.stdout
