"""Command-line interface: output content and exit codes."""

import hashlib
import json
import os
import re

import numpy as np
import pytest

from hermitesof.benchmarks import (
    CSV_HEADER, DATA_DIR_ENV, NN6_ACHIEVABLE_GAIN, ExperimentRow, get_plant, rows_to_csv,
    run_experiment, suite,
)
from hermitesof import cli, hermite
from hermitesof.cli import main
from hermitesof.stability import roots


def _floats(text):
    return [float(m) for m in re.findall(r"-?\d+\.?\d*(?:[eE][+-]?\d+)?", text)]


def test_hermite_power_nn1(capsys):
    rc = main(["hermite", "--fixture", "NN1", "--basis", "power"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H(1,1) = -13*k2 - 5*k1*k2 + k2^2" in out
    assert "H(2,3) = 0" in out


def test_hermite_lagrange_nn1_with_roots(capsys):
    rc = main(
        ["hermite", "--fixture", "NN1", "--basis", "lagrange", "--roots=-1,-2,-3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "H(1,1) = -0.1969697*k2 - 0.075757576*k1*k2 + 0.015151515*k2^2" in out
    assert "0.2*k1" in out  # the (2,3) scaled entry


def test_hermite_lagrange_requires_target(capsys):
    rc = main(["hermite", "--fixture", "NN1", "--basis", "lagrange"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_cond_ac4(capsys):
    rc = main(["cond", "--fixture", "AC4_openloop"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = {l.split()[0]: l for l in out.splitlines() if l.strip()}
    power = _floats(lines["power"])[0]
    scaled = _floats(lines["power-scaled"])[-1]
    assert abs(power - 1158.2) <= 1e-3 * 1158.2
    assert abs(scaled - 32.096) <= 1e-3 * 32.096
    assert "scaled-lagrange" in lines


def test_cond_nn1_zero_form(capsys):
    # q(0) = s^3 - 13s has no real part, so the power form is identically
    # zero and every basis is singular
    rc = main(["cond", "--fixture", "NN1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = {l.split()[0]: l.split()[-1] for l in out.splitlines() if l.strip()}
    assert lines["power"] == lines["lagrange"] == lines["scaled-lagrange"] == "inf"


# cond with a target: the Lagrange rows take the target's nodes and are
# scaled by the evaluated polynomial's own form
COND_WITH_TARGET = {
    "AC4_openloop-roots": (
        ["--fixture", "AC4_openloop", "--roots", "-1,-2,-3,-4"],
        "power                          1158.1557\n"
        "power-scaled (rho=0.34973939)  32.100541\n"
        "lagrange                       355.77735\n"
        "scaled-lagrange                1182.6619\n",
    ),
    "NN1-target-shift": (
        ["--fixture", "NN1", "--K", "1,2", "--target-shift", "-0.5"],
        "power                          32.951622\n"
        "power-scaled (rho=0.79370053)  15.511804\n"
        "lagrange                       12.787594\n"
        "scaled-lagrange                9.1228728\n",
    ),
}


# cond without a target: the nodes of the evaluated polynomial itself mix
# real and imaginary values, so the scaled row is scaled through the 2x2
# block of each imaginary pair
COND_WITHOUT_TARGET = {
    "AC4_openloop": (
        ["--fixture", "AC4_openloop"],
        "power                          1158.1557\n"
        "power-scaled (rho=0.34973939)  32.100541\n"
        "lagrange                       8557.5921\n"
        "scaled-lagrange                4\n",
    ),
    "NN5_openloop": (
        ["--fixture", "NN5_openloop"],
        "power                          3782076.6\n"
        "power-scaled (rho=0.76879136)  754494.4\n"
        "lagrange                       20977811\n"
        "scaled-lagrange                7\n",
    ),
}


def _assert_cond_prints(argv, text, capsys):
    """cond prints text, and its rows as JSON under --format json."""
    assert main(["cond", *argv]) == 0
    assert capsys.readouterr().out == text
    assert main(["cond", *argv, "--format", "json"]) == 0
    rows = dict(re.split(r"  +", line) for line in text.splitlines())
    assert capsys.readouterr().out == json.dumps(rows, indent=1) + "\n"


@pytest.mark.parametrize("case", sorted(COND_WITH_TARGET))
def test_cond_with_a_target(case, capsys):
    _assert_cond_prints(*COND_WITH_TARGET[case], capsys)


@pytest.mark.parametrize("case", sorted(COND_WITHOUT_TARGET))
def test_cond_without_a_target(case, capsys):
    _assert_cond_prints(*COND_WITHOUT_TARGET[case], capsys)


@pytest.mark.parametrize("case", sorted(COND_WITH_TARGET) + sorted(COND_WITHOUT_TARGET))
def test_cond_builds_each_form_once(case, capsys, monkeypatch):
    # one power form, for the power rows and as the Lagrange form's input;
    # the scaled row rescales the evaluated Lagrange matrix
    calls = []

    def counted(name):
        real = getattr(hermite, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    power = counted("hermite_power")
    monkeypatch.setattr(hermite, "hermite_power", power)
    monkeypatch.setattr(cli, "hermite_power", power)
    monkeypatch.setattr(hermite, "_lagrange", counted("_lagrange"))
    argv, text = {**COND_WITH_TARGET, **COND_WITHOUT_TARGET}[case]
    assert main(["cond", *argv]) == 0
    assert capsys.readouterr().out == text
    assert calls.count("hermite_power") == 1 and calls.count("_lagrange") == 1, calls


@pytest.mark.parametrize("fixture, power, scaled", [
    ("NN1", "5.6568542e+80", "2.1544347e+53"),
    ("AC4", "5.0203749e+166", "2.7050889e+83"),
], ids=["NN1", "AC4"])
def test_cond_of_huge_finite_gains_is_finite(fixture, power, scaled, capsys):
    # q(K) and H(K) are finite at 1e80, but the sums of squares of the
    # Frobenius norms overflow; the rows continue those at 1e20 and 1e50
    assert main(["cond", "--fixture", fixture, "--K", "1e80,1e80"]) == 0
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    rows = dict(re.split(r"  +", line) for line in out.out.splitlines())
    assert rows["power"] == power
    (name,) = [name for name in rows if name.startswith("power-scaled")]
    assert rows[name] == scaled


# gains of each embedded fixture
FIXTURE_GAINS = {"NN1": 2, "NN6": 4, "AC4": 2, "AC4_openloop": 0, "NN5_openloop": 0}


@pytest.mark.parametrize("fixture", sorted(FIXTURE_GAINS))
def test_display_commands_exit_cleanly_on_every_fixture(fixture, capsys):
    zero = ",".join(["0"] * FIXTURE_GAINS[fixture])
    for argv in (
        ["hermite", "--fixture", fixture, "--basis", "power"],
        ["hermite", "--fixture", fixture, "--basis", "lagrange", "--target-shift", "-0.5"],
        ["cond", "--fixture", fixture],
        ["verify", "--fixture", fixture, "--K", zero],
    ):
        assert main(argv) in (0, 1, 2), argv
        assert "Traceback" not in capsys.readouterr().err, argv


def test_only_the_row_commands_offer_csv(capsys, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    for argv in (
        ["hermite", "--fixture", "NN1"],
        ["cond", "--fixture", "AC4_openloop"],
        ["verify", "--fixture", "AC4", "--K", "0,0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2, argv
        assert "invalid choice: 'csv'" in capsys.readouterr().err, argv
    for argv in (["solve", "--fixture", "NN1", "--mu", "-1"], ["bench", "--suite", "table2"]):
        main(argv + ["--format", "csv"])
        assert capsys.readouterr().out.startswith(CSV_HEADER + "\n"), argv


@pytest.mark.parametrize("argv, says", [
    (["verify", "--fixture", "NN1", "--K", "-1,2"], "stable: false"),
    (["hermite", "--fixture", "NN1", "--basis", "lagrange", "--roots", "-1,-2,-3"], "H(1,1) = "),
    (["solve", "--fixture", "NN1", "--basis", "power", "--K0", "-1,2e4"], "[-1 20000]"),
    (["solve", "--fixture", "NN1", "--basis", "power", "--lambda0", "-1e2"], "converged"),
    (["cond", "--fixture", "AC4_openloop", "--target-shift", "-1e-1"], "142.74356"),
], ids=["verify-K", "hermite-roots", "solve-K0", "solve-lambda0", "cond-target-shift"])
def test_list_values_may_start_with_a_minus_sign(argv, says, capsys):
    # argparse alone reads "-1,2" as an option; the "=" form always worked
    rc = main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"])
    joined = capsys.readouterr()
    assert main(argv) == rc
    assert capsys.readouterr() == joined
    assert says in joined.out


def test_verify_unstable_open_loop(capsys):
    rc = main(["verify", "--fixture", "AC4", "--K", "0,0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "2.579208" in out
    assert "stable: false" in out


def test_solve_nn1_power(capsys):
    rc = main(["solve", "--fixture", "NN1", "--basis", "power"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged" in out


def test_solve_diverged_row_exits_1_and_round_trips(capsys, tmp_path):
    path = tmp_path / "row.csv"
    rc = main(["solve", "--fixture", "AC4", "--basis", "power", "--format", "json",
               "--out", str(path)])
    row = _strict_json(capsys.readouterr().out)
    assert rc == 1
    assert row["status"] == "diverged"
    # the JSON fields give back the CSV row that --out wrote
    assert rows_to_csv([ExperimentRow(**row)]) == path.read_text()


@pytest.mark.parametrize("flags", [["--K0", "0,2e4"], ["--mu", "-1"]])
def test_solve_input_error_row_exits_2(flags, capsys):
    # run_single turns these input errors into an error row; exit 1 is
    # reserved for non-convergence
    rc = main(["solve", "--fixture", "NN1", "--basis", "power"] + flags)
    assert "error:" in capsys.readouterr().out
    assert rc == 2


def test_solve_over_real_and_imaginary_nodes_is_an_input_error(capsys):
    # q(NN6_ACHIEVABLE_GAIN) has a root at 2.71, so its Lagrange nodes mix
    # seven real values with +-2.7034j: the solve is refused, not run
    target = get_plant("NN6").q.at_gains(NN6_ACHIEVABLE_GAIN)
    given = ",".join(str(complex(r)).strip("()") for r in roots(target))
    rc = main(["solve", "--fixture", "NN6", "--basis", "lagrange", "--roots", given])
    row = capsys.readouterr().out.splitlines()[1]
    assert rc == 2
    assert "error: nodes 0+0j, " in row and " mix real and imaginary values" in row


@pytest.mark.parametrize("flags, says", [
    (["--mu", "inf"], "mu inf must be non-negative and finite"),
    (["--tol-inner", "nan"], "tol_inner nan must be non-negative and finite"),
    (["--tol-outer", "-1"], "tol_outer -1 must be non-negative and finite"),
    (["--tol-inner", "inf"], "tol_inner inf must be non-negative and finite"),
    (["--lambda0=-inf"], "lam0 -inf must be finite"),
])
def test_solve_rejects_non_finite_or_negative_settings(flags, says, capsys):
    rc = main(["solve", "--fixture", "NN1", "--basis", "power"] + flags)
    assert f"error: {says}" in capsys.readouterr().out
    assert rc == 2


def test_bench_table2_skips_without_data(capsys, tmp_path):
    out_path = tmp_path / "t2.csv"
    rc = main(["bench", "--suite", "table2", "--format", "csv", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("system,basis,mu")
    assert out_path.exists()
    assert "PAS" in out


def test_unknown_fixture_exit_code(capsys):
    rc = main(["hermite", "--fixture", "NOPE", "--basis", "power"])
    assert rc == 2


def test_solve_even_degree_instance_default_part(capsys, tmp_path):
    # degree 2: the imaginary part has degree 1, so the nodes must come
    # from the real part when no --part is given
    path = tmp_path / "even.json"
    path.write_text(json.dumps(
        {"name": "even", "A": [[0, 1], [1, 0]], "B": [[0], [1]], "C": [[1, 0], [0, 1]]}
    ))
    main(["solve", "--fixture", str(path), "--format", "csv"])
    row = capsys.readouterr().out.splitlines()[1]
    assert not row.split(",")[9].startswith("error:"), row


def test_solve_repeated_pole_instance_mirror_shift(capsys, tmp_path):
    # A is the companion matrix of (s - 1)^2 (s + 1)^2; the root finder
    # returns each double pole as a pair with tiny, non-conjugate imaginary
    # parts, and the mirror-shift target must still be a real polynomial
    path = tmp_path / "double.json"
    path.write_text(json.dumps({
        "name": "double",
        "A": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 2, 0]],
        "B": [[0], [0], [0], [1]],
        "C": [[1, 0, 0, 0], [0, 1, 0, 0]],
    }))
    main(["solve", "--instance", str(path), "--format", "csv"])
    row = capsys.readouterr().out.splitlines()[1]
    assert not row.split(",")[9].startswith("error:"), row


NON_FINITE_PLANTS = {
    "nan": '{"name": "nan", "A": [[NaN, 1], [0, 1]], "B": [[0], [1]], "C": [[1, 0]]}',
    "inf": '{"name": "inf", "A": [[0, 1], [Infinity, 1]], "B": [[0], [1]], "C": [[1, 0]]}',
    "number": "5",
    "null": "null",
}


@pytest.mark.parametrize("argv, says", [
    (["hermite", "--fixture", "{nan}", "--basis", "power"], "A has non-finite entries"),
    (["verify", "--fixture", "{inf}", "--K", "1"], "A has non-finite entries"),
    (["verify", "--fixture", "AC4", "--K", "nan,0"], "non-finite value"),
    (["cond", "--fixture", "AC4", "--K", "inf,0"], "non-finite value"),
    (["hermite", "--fixture", "NN1", "--basis", "lagrange", "--roots=nan,-1,-2"],
     "non-finite value"),
    (["solve", "--fixture", "NN1", "--basis", "power", "--P0", "0"], "p0 0 must be"),
    (["solve", "--fixture", "NN1", "--basis", "power", "--P0", "-1"], "p0 -1 must be"),
    (["hermite", "--fixture", "NN1", "--basis", "lagrange", "--target-shift", "nan"],
     "shift nan must be finite"),
    (["cond", "--fixture", "AC4_openloop", "--K", "1,2"], "gain vector length 2"),
    # q(K) finite and H(K) overflowing, then q(K) overflowing
    (["cond", "--fixture", "NN1", "--K", "1e300,1e300"], "gains K = 1e300,1e300 give"),
    (["cond", "--fixture", "AC4", "--K", "1e300,1e300"], "gains K = 1e300,1e300 give"),
    (["cond", "--fixture", "AC4", "--K", "1.7e308,1.7e308"], "gains K = 1.7e308,1.7e308"),
    (["solve", "--fixture", "{number}"], "expected a JSON object, got int"),
    (["hermite", "--fixture", "{null}", "--basis", "power"],
     "expected a JSON object, got NoneType"),
    # the power form has no nodes, so a target would go unused
    (["hermite", "--fixture", "NN1", "--basis", "power", "--roots=-1,-2,-3"],
     "error: the power basis takes no target"),
    (["solve", "--fixture", "NN1", "--basis", "power", "--roots=-1,-2,-3"],
     "error: the power basis takes no target"),
], ids=["nan-instance", "inf-instance", "nan-gain", "inf-gain", "nan-root", "zero-P0",
        "negative-P0", "nan-shift", "gains-without-variables", "overflowing-H",
        "overflowing-H-AC4", "overflowing-q", "number-instance", "null-instance",
        "power-hermite-roots", "power-solve-roots"])
def test_bad_outside_input_exits_2(argv, says, capsys, tmp_path):
    paths = {}
    for name, text in NON_FINITE_PLANTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    rc = main([arg.format(**paths) for arg in argv])
    out = capsys.readouterr()
    assert rc == 2
    assert says in out.out + out.err


@pytest.mark.parametrize("make, says", [
    (lambda path: path.write_bytes(b"\xff\xfe{}"), "cannot read: 'utf-8' codec"),
    (lambda path: path.mkdir(), "unknown fixture or instance"),
], ids=["non-utf8-file", "directory"])
def test_an_unreadable_instance_path_exits_2(make, says, capsys, tmp_path):
    path = tmp_path / "bad.json"
    make(path)
    rc = main(["verify", "--fixture", str(path), "--K", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(path) in err and says in err


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_json_rows_are_strict_json(capsys, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    main(["solve", "--fixture", "NN1", "--basis", "power", "--mu", "-1", "--format", "json"])
    row = _strict_json(capsys.readouterr().out)
    assert row["status"].startswith("error:") and row["lam"] is None
    assert main(["bench", "--suite", "table2", "--format", "json"]) == 0
    rows = _strict_json(capsys.readouterr().out)
    assert [r["lam"] for r in rows] == [None] * 4


def test_out_file_holds_the_csv_text(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    path = tmp_path / "rows.csv"
    main(["bench", "--suite", "table2", "--out", str(path)])
    assert path.read_text() == rows_to_csv(run_experiment(suite("table2")))
    capsys.readouterr()
    main(["solve", "--fixture", "NN1", "--basis", "power", "--mu", "-1",
          "--format", "csv", "--out", str(path)])
    # stdout is the same CSV text plus the newline print adds
    assert path.read_text() + "\n" == capsys.readouterr().out


def test_an_unwritable_out_is_an_input_error(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    missing = tmp_path / "missing" / "rows.csv"
    for argv, path in (
        (["bench", "--suite", "table2", "--out", str(tmp_path)], tmp_path),
        (["solve", "--fixture", "NN1", "--basis", "power", "--mu", "-1",
          "--out", str(missing)], missing),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot write: "), err
        assert "Traceback" not in err


def test_an_unwritable_out_fails_before_any_solve(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("solved before opening --out")

    monkeypatch.setattr("hermitesof.cli.run_experiment", refuse)
    monkeypatch.setattr("hermitesof.cli.run_single", refuse)
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    for argv in (["bench", "--suite", "table1"], ["solve", "--fixture", "NN1"]):
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv
        out = capsys.readouterr()
        assert out.err.startswith(f"error: {tmp_path}: cannot write: "), out.err
        assert out.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_failed_write_to_an_opened_out_is_an_input_error(capsys, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    assert main(["bench", "--suite", "table2", "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /dev/full: cannot write: "), err


@pytest.mark.parametrize("argv", [
    ["hermite", "--fixture", "NN1", "--basis", "lagrange"],
    ["cond", "--fixture", "AC4_openloop"],
    ["solve", "--fixture", "NN1"],
], ids=["hermite", "cond", "solve"])
def test_roots_and_target_shift_are_exclusive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--roots", "-1,-2,-3", "--target-shift", "-0.5"])
    assert exc.value.code == 2
    assert "--target-shift: not allowed with argument --roots" in capsys.readouterr().err


def test_solve_reads_no_instance_file_of_another_system(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    argv = ["solve", "--fixture", "NN1", "--basis", "power", "--format", "csv"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    (tmp_path / "AC7.json").write_text("{bad")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    assert main(argv) == 0
    assert capsys.readouterr().out == clean
    # a suite row's instance file is that suite's input
    assert main(["bench", "--suite", "table1"]) == 2
    assert f"error: {tmp_path / 'AC7.json'}: malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv, says", [
    (["hermite", "--fixture", "{q}", "--basis", "power"], "q(k) has a non-finite coefficient"),
    (["verify", "--fixture", "{q}", "--K", "1"], "q(k) has a non-finite coefficient"),
    (["hermite", "--fixture", "{H}", "--basis", "power"],
     "the power Hermite form has a non-finite coefficient"),
    (["solve", "--fixture", "{H}", "--basis", "power"],
     "error: the power Hermite form has a non-finite coefficient"),
], ids=["hermite-q", "verify-q", "hermite-H", "solve-H"])
def test_a_plant_whose_q_or_hermite_form_overflows_exits_2(argv, says, capsys, tmp_path):
    # finite A, B, C: q overflows, then q is finite and H overflows
    plants = {
        "q": {"name": "q", "A": [[0, 1e200], [1e200, 0]], "B": [[1], [0]], "C": [[1, 1]]},
        "H": {"name": "H", "A": [[0, 1e90, 0], [0, 0, 1e90], [-1e90, -1e90, -1e90]],
              "B": [[0], [0], [1]], "C": [[1, 0, 0], [0, 1, 0]]},
    }
    paths = {}
    for name, plant in plants.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(plant))
    assert main([arg.format(**paths) for arg in argv]) == 2
    out = capsys.readouterr()
    assert says in out.out + out.err
    assert "H(" not in out.out and "Traceback" not in out.err


def _max_real_root(plant, K):
    return np.roots(plant.q.at_gains(K)[::-1]).real.max()


def _max_real_eig(plant, K):
    K = np.reshape(K, (plant.m, plant.p), order="F")
    return np.linalg.eigvals(plant.A + plant.B @ K @ plant.C).real.max()


@pytest.mark.parametrize("fixture, gain, oracle", [
    ("NN6", 1e7, _max_real_root),  # inside NN6's Table-1 box, k_bound = 1e8
    ("AC4", 1e12, _max_real_root),
    ("NN1", 1e14, _max_real_eig),
], ids=["NN6", "AC4", "NN1"])
def test_verify_takes_large_gains(fixture, gain, oracle, capsys):
    plant = get_plant(fixture)
    K = [gain] * (plant.m * plant.p)
    argv = ["verify", "--fixture", fixture, "--K", ",".join(map(str, K)), "--format", "json"]
    assert main(argv) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["stable"] is False
    assert verdict["margin"] == f"{oracle(plant, K):.8g}"


def _fixed_rows(jobs):
    """Rows of made-up solve results, one per job: the bytes of a real solve
    follow numpy's SIMD dispatch, and this pins the writer alone."""
    statuses = ["converged", "max-outer", "error: a, b", "skipped: data not supplied"]
    return [
        ExperimentRow(
            system=name, basis=cfg.basis, mu=cfg.mu, k0=f"[{i} 0]", outer=i, inner=7 * i,
            linesearch=31 * i, K=f"[{-i / 3:.8g} {i * 1e-9:.8g}]",
            lam=float("nan") if i % 4 > 1 else -(10.0 ** i) / 3,
            status=statuses[i % 4], stable=i % 4 == 0,
        )
        for i, (name, _, cfg) in enumerate(jobs)
    ]


# SHA-256 over the argv, exit code and stdout of each display command on
# every embedded fixture and of `bench --suite table1` over `_fixed_rows`
DISPLAY_DIGEST = "3edb367bbc8dc37343df6806ab1429c63f61e8f935544fe14ca4a3fa6ed06ee6"


def test_every_display_command_prints_the_pinned_bytes(capsys, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    monkeypatch.setattr("hermitesof.cli.run_experiment", _fixed_rows)
    runs = []
    for fixture, gains in FIXTURE_GAINS.items():
        for argv in (
            ["hermite", "--fixture", fixture, "--basis", "power"],
            ["hermite", "--fixture", fixture, "--basis", "lagrange", "--target-shift", "-0.5"],
            ["cond", "--fixture", fixture],
            ["verify", "--fixture", fixture, "--K=" + ",".join(["0"] * gains)],
        ):
            runs += [argv + ["--format", fmt] for fmt in ("text", "json")]
    runs += [["bench", "--suite", "table1", "--format", fmt] for fmt in ("text", "csv", "json")]
    digest = hashlib.sha256()
    for argv in runs:
        rc = main(argv)
        digest.update(f"{' '.join(argv)}\n{rc}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == DISPLAY_DIGEST
