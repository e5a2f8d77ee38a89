from fractions import Fraction

import pytest

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


def test_cli_opcumulant(tmp_path, capsys):
    path = spec_file(tmp_path, MIXED_SPEC)
    assert run(["opcumulant", "--spec", path, "--algebra", "B", "--word", "1,1"]) == 0
    out = capsys.readouterr().out
    assert out == "2/1\t0/1\n0/1\t2/1\n"
    assert run(["opcumulant", "--spec", path, "--algebra", "D", "--word", "1"]) == 0
    assert capsys.readouterr().out == "0/1\t0/1\n0/1\t0/1\n"


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
    ],
)
def test_cli_series_library_error_exit_code(argv, capsys):
    assert_usage_error(run(argv), capsys)


def test_cli_opcumulant_word_past_partition_cap(tmp_path, capsys):
    path = spec_file(tmp_path, ORDER13_SPEC)
    code = run(["opcumulant", "--spec", path, "--algebra", "B", "--word", ",".join(["1"] * 13)])
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
