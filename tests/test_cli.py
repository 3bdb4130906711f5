"""Command-line interface: output content and exit codes."""

import json
import re

import pytest

from hermitesof.cli import main


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
