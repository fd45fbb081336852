import json
from pathlib import Path

import pytest

from bandvie.cli import main
from bandvie.config import load_problem

MODEL01_YAML = """\
n: 2
T: 2.0
alpha: ["t/2"]
K:
  - ["1+t+s", "1"]
  - ["1+t-s", "-1"]
G:
  - ["x", "x"]
  - ["x", "x"]
f:
  - "3*t*sin(t/2)/2 + sin(t/2) + 2*cos(t/2) - cos(t) - 1"
  - "t*sin(t/2)/2 + sin(t/2) - 2*cos(t/2) + cos(t) + 1"
"""


def test_list_builtins(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 5
    assert any(line.startswith("model01") for line in lines)
    assert any(line.startswith("nonlinear-sys2") for line in lines)


def test_run_model01_collocation(capsys):
    code = main(["run", "--builtin", "model01", "--method", "collocation",
                 "--degree", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "eps" in out
    assert "0.0003954" in out  # aggregate error of the degree-5 solve


def test_run_model02_low_degree(capsys):
    code = main(["run", "--builtin", "model02", "--method", "collocation",
                 "--degree", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.034" in out  # aggregate error ~3.45e-2


def test_run_missing_config_exits_2(capsys):
    code = main(["run", "--config", "missing.toml", "--method", "pc",
                 "--nodes", "32"])
    assert code == 2
    assert "No such file" in capsys.readouterr().err


def test_run_invalid_problem_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MODEL01_YAML.replace(
        '"3*t*sin(t/2)/2 + sin(t/2) + 2*cos(t/2) - cos(t) - 1"', '"1+t"'))
    code = main(["run", "--config", str(bad), "--method", "pc",
                 "--nodes", "16"])
    assert code == 2
    assert "f_1(0)" in capsys.readouterr().err


def test_run_curve_that_is_nan_at_zero_exits_2(tmp_path, capsys):
    # t^2*log(t) is nan at 0: validation names the curve before the
    # start-value matrix meets its nan slope
    bad = tmp_path / "bad.yaml"
    bad.write_text(MODEL01_YAML.replace('"t/2"', '"t/2+t^2*log(t)"')
                   .replace("T: 2.0", "T: 1.0"))
    code = main(["run", "--config", str(bad), "--method", "pc",
                 "--nodes", "8"])
    assert code == 2
    assert "alpha_1(0) != 0" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("T: .nan", "horizon T must be a positive finite number, got nan"),
    ("T: .inf", "horizon T must be a positive finite number, got inf"),
    ("T: -2.0", "horizon T must be a positive finite number, got -2.0"),
    ("T: true", "horizon T must be a positive finite number, got True"),
    ("n: true", "n must be a positive integer, got True"),
    ("unknown_of_band: [1.7, 2]",
     "unknown_of_band entries must be integers, got 1.7"),
    ("unknown_of_band: [true, 2]",
     "unknown_of_band entries must be integers, got True"),
    ('unknown_of_band: "12"', "unknown_of_band must be a list, got '12'"),
    ("unknown_of_band: 1", "unknown_of_band must be a list, got 1"),
    ("unknown_of_band: [1, 1]",
     "unknown_of_band (1, 1) gives 1 component(s) for 2 equation(s); it "
     "must give one component per equation"),
    ("f: 5", "f must be a list, got 5"),
    ("f: null", "f must be a list, got None"),
    ('exact: "t^2"', "exact must be a list, got 't^2'"),
    ('guess: "0"', "guess must be a list, got '0'"),
    ("name: [a]", "name must be a string, got ['a']"),
    ("name: 3", "name must be a string, got 3"),
])
def test_run_bad_horizon_or_band_count_exits_2_with_one_error(
        tmp_path, capsys, line, message):
    key = line.split(":")[0]
    rows = MODEL01_YAML.splitlines()
    if not any(row.startswith(key + ":") for row in rows):
        rows.append(key + ": null")     # an optional key the config omits
    # the key's line is replaced, and the indented block under it dropped
    kept, owner = [], None
    for row in rows:
        if not row.startswith(" "):
            owner = row.split(":")[0]
        if owner != key:
            kept.append(row)
        elif not row.startswith(" "):
            kept.append(line)
    bad = tmp_path / "bad.yaml"
    bad.write_text("\n".join(kept) + "\n")
    code = main(["run", "--config", str(bad), "--method", "pc",
                 "--nodes", "16"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("line, name", [("name: sample", "sample"),
                                        ("name:", None), ("", None)])
def test_config_name_falls_back_to_the_path(tmp_path, line, name):
    cfg = tmp_path / "named.yaml"
    cfg.write_text(MODEL01_YAML + line + "\n")
    assert load_problem(cfg).name == (str(cfg) if name is None else name)


def test_run_variable_outside_its_role_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MODEL01_YAML.replace('["x", "x"]', '["x", "t*x"]', 1))
    code = main(["run", "--config", str(bad), "--method", "pc",
                 "--nodes", "16"])
    assert code == 2
    assert "G_1,2 may use only s, x, but uses t" in capsys.readouterr().err


def test_run_solver_error_exits_3(capsys):
    # degree 15 trips the singularity threshold of the monomial system
    code = main(["run", "--builtin", "model01", "--method", "collocation",
                 "--degree", "15"])
    assert code == 3
    assert "singular" in capsys.readouterr().err


SQRT_AT_ZERO_YAML = """\
n: 2
T: 2.0
alpha: ["t/2"]
K:
  - ["1+t+s", "1"]
  - ["1+t-s", "-1"]
G:
  - ["sqrt(x)", "x"]
  - ["x", "x"]
f: ["t", "t^2"]
guess: ["0", "0"]
"""


@pytest.mark.parametrize("method, size", [
    ("pc", ["--nodes", "16"]), ("collocation", ["--degree", "3"])])
def test_run_non_finite_frozen_kernel_exits_2(tmp_path, capsys, method, size):
    # dG/dx = 1/(2 sqrt(x)) is infinite along the guess x0 = 0; validation
    # names the equation and the band before either solver starts
    cfg = tmp_path / "sqrt.yaml"
    cfg.write_text(SQRT_AT_ZERO_YAML)
    code = main(["run", "--config", str(cfg), "--method", method, *size])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite frozen kernel" in err
    assert "band 1" in err


def test_run_non_finite_guess_exits_2(tmp_path, capsys):
    # the guess of component 2 is nan past t = 1, inside its domain [0, 2]
    cfg = tmp_path / "guess.yaml"
    cfg.write_text(SQRT_AT_ZERO_YAML.replace(
        '["sqrt(x)", "x"]', '["x", "x"]').replace(
        'guess: ["0", "0"]', 'guess: ["0", "sqrt(1-t)"]'))
    code = main(["run", "--config", str(cfg), "--method", "collocation",
                 "--degree", "3"])
    assert code == 2
    assert "initial guess of component 2 is not finite" in (
        capsys.readouterr().err)


def test_run_g_not_finite_along_the_guess_exits_2(tmp_path, capsys):
    # G_1,2 = log(x - 1) is nan at the guess 0; validation names it before
    # the start values meet psi's nan derivative at t = 0 (exit 3)
    cfg = tmp_path / "log.yaml"
    cfg.write_text(SQRT_AT_ZERO_YAML.replace(
        '["sqrt(x)", "x"]', '["x", "log(x-1)"]'))
    code = main(["run", "--config", str(cfg), "--method", "pc",
                 "--nodes", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite G along the initial guess in equation 1, band 2" in err
    assert "G_1,2 = nan" in err


def test_usage_errors_exit_2(capsys):
    for argv in (
            ["run", "--method", "pc", "--degree", "3"],
            ["study", "--method", "collocation", "--sweep", "", "--degree",
             "3"],
            ["study", "--method", "collocation", "--sweep", "5,3"],
            ["study", "--method", "pc", "--sweep", "8", "--degree", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--builtin", "model01"] + argv[1:])
        assert exc.value.code == 2
        # the usage line is the subcommand's, not the top-level one
        assert capsys.readouterr().err.startswith(
            f"usage: bandvie {argv[0]} ")


def test_study_csv_json_agree_and_are_deterministic(tmp_path, capsys):
    args = ["study", "--builtin", "model01", "--method", "collocation",
            "--sweep", "2,3,5"]
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    assert main(args + ["--format", "csv", "--out", str(csv_a)]) == 0
    assert main(args + ["--format", "csv", "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()

    json_path = tmp_path / "a.json"
    assert main(args + ["--format", "json", "--out", str(json_path)]) == 0
    rows = json.loads(json_path.read_text())
    header, *data = csv_a.read_text().split("\r\n")
    names = header.split(",")
    assert [r["m"] for r in rows] == [2, 3, 5]
    # identical numbers in both encodings
    for row_obj, line in zip(rows, data):
        for name, cell in zip(names, line.split(",")):
            value = row_obj[name]
            if isinstance(value, float):
                assert abs(value - float(cell)) <= 1e-15 * max(1.0, abs(value))
            else:
                assert str(value) == cell
    # errors decrease over the sweep
    eps = [r["eps"] for r in rows]
    assert eps[0] > eps[1] > eps[2]


def test_study_records_error_rows_and_continues(capsys):
    code = main(["study", "--builtin", "model01", "--method", "collocation",
                 "--sweep", "12,15", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\r\n")
    assert len(lines) == 3  # header + two rows
    assert "error" in lines[0]
    assert "singular" in lines[2]


def test_study_pc_sweep(capsys):
    code = main(["study", "--builtin", "nonlinear-scalar", "--method", "pc",
                 "--sweep", "16,32", "--iters", "8", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["N"] for r in rows] == [16, 32]
    assert rows[1]["eps"] < rows[0]["eps"]


def test_run_config_without_exact_reports_residual(tmp_path, capsys):
    cfg = tmp_path / "prob.yaml"
    cfg.write_text(MODEL01_YAML)
    code = main(["run", "--config", str(cfg), "--method", "collocation",
                 "--degree", "4", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert "residual_sup" in rows[0]
    assert rows[0]["residual_sup"] < 1e-3
    assert "eps" not in rows[0]


SAMPLE_PROBLEM = (Path(__file__).resolve().parents[1]
                  / "bench" / "problems" / "sample_problem.yaml")


@pytest.mark.parametrize("method, sweep, expected", [
    ("pc", "32,64,128", {32: 3.4750042571494305e-04,
                         64: 8.782187732024084e-05,
                         128: 2.0854884804043673e-05}),
    ("collocation", "2,4,6,8", {2: 2.441406299347193e-09,
                                4: 2.441406299347193e-09,
                                6: 2.441406299347193e-09,
                                8: 2.4414062438360418e-09}),
])
def test_study_residuals_of_the_sample_problem_are_pinned(
        method, sweep, expected, capsys):
    # the residual oracle integrates all 50 sample times in one plan; these
    # are the values of the per-time loop it replaced
    code = main(["study", "--config", str(SAMPLE_PROBLEM), "--method", method,
                 "--sweep", sweep, "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    param = "N" if method == "pc" else "m"
    assert [r[param] for r in rows] == list(expected)
    for row in rows:
        assert row["iterations"] == 2
        assert row["residual_sup"] == pytest.approx(expected[row[param]],
                                                    rel=1e-8)


@pytest.mark.parametrize("argv, option", [
    (["study", "--method", "collocation", "--sweep", "0,2"], "--sweep"),
    (["study", "--method", "pc", "--sweep", "1,4"], "--sweep"),
    (["run", "--method", "pc", "--nodes", "8", "--iters", "0"], "--iters"),
    (["study", "--method", "pc", "--sweep", "8", "--iters", "-1"], "--iters"),
    (["run", "--method", "pc", "--nodes", "8", "--tol", "0"], "--tol"),
    (["run", "--method", "pc", "--nodes", "8", "--tol", "nan"], "--tol"),
    (["run", "--method", "pc", "--nodes", "8", "--tol", "inf"], "--tol"),
    # there is no --panels option: the collocation plan's panel count is
    # fixed, and an unknown option is a usage error of the subcommand
    (["run", "--method", "collocation", "--degree", "3", "--panels", "0"],
     "--panels"),
    (["run", "--method", "pc", "--nodes", "8", "--panels", "-3"], "--panels"),
    (["run", "--method", "pc", "--nodes", "8", "--panels", "100"], "--panels"),
    (["study", "--method", "pc", "--sweep", "8", "--panels", "100"],
     "--panels"),
])
def test_numeric_options_out_of_range_exit_2(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--builtin", "model01"] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage line is the subcommand's, not the top-level one
    assert err.startswith(f"usage: bandvie {argv[0]} ")
    assert option in err
