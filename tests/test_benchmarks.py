"""Embedded fixtures, instance file I/O, and the experiment harness."""

import numpy as np
import pytest

from hermitesof.benchmarks import (
    CSV_HEADER,
    ExperimentConfig,
    load_instance,
    registry,
    rows_to_csv,
    run_experiment,
    run_single,
    save_instance,
)
from hermitesof.errors import InputError
from hermitesof.solver import SolveConfig


REG = registry()


def test_registry_nn1_matrices():
    nn1 = REG["systems"]["NN1"]
    assert np.array_equal(nn1.A[2], [0.0, 13.0, 0.0])
    assert nn1.B.shape == (3, 1)
    assert nn1.C.shape == (2, 3)


def test_registry_nn6_constant_term():
    q = REG["polys"]["NN6"].q
    c0 = q.coeffs[0]
    assert dict(c0.terms) == {(1, 0, 0, 0): 95113415.0}
    assert q.degree_actual() == 9


def test_registry_nn5_constant_term():
    q = REG["polys"]["NN5_openloop"].q
    assert q.coeffs[0].constant_value() == 6.3000000
    assert q.degree_actual() == 7


def test_instance_round_trip(tmp_path):
    nn1 = REG["systems"]["NN1"]
    path = tmp_path / "NN1.json"
    save_instance(nn1, path)
    loaded = load_instance(path)
    assert loaded.name == nn1.name
    assert np.array_equal(loaded.A, nn1.A)
    assert np.array_equal(loaded.B, nn1.B)
    assert np.array_equal(loaded.C, nn1.C)


def test_load_instance_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "X", "A": [[0.0]], "B": [[1.0]]}')
    with pytest.raises(InputError):
        load_instance(path)


def test_load_instance_ragged_matrix(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text('{"name": "X", "A": [[0.0, 1.0], [0.0]], "B": [[1.0]], "C": [[1.0]]}')
    with pytest.raises(InputError):
        load_instance(path)


def test_load_instance_wrong_b_rows(tmp_path):
    path = tmp_path / "dims.json"
    path.write_text(
        '{"name": "X", "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[1.0]], "C": [[1.0, 0.0]]}'
    )
    with pytest.raises(InputError):
        load_instance(path)


def test_run_experiment_empty():
    assert run_experiment([]) == []


def test_run_experiment_skips_missing_data():
    cfg = ExperimentConfig("power", 1e-3)
    rows = run_experiment([("GHOST", None, cfg)])
    assert len(rows) == 1
    assert rows[0].status == "skipped: data not supplied"
    assert not rows[0].stable


def test_csv_header_layout():
    assert CSV_HEADER == "system,basis,mu,K0,outer,inner,linesearch,K,lambda,status,stable"
    rows = run_experiment([("GHOST", None, ExperimentConfig("power", 1e-3))])
    out = rows_to_csv(rows)
    assert out.splitlines()[0] == CSV_HEADER
    assert "skipped: data not supplied".replace(",", ";") in out


def test_run_experiment_deterministic():
    nn1 = REG["systems"]["NN1"]
    job = [("NN1", nn1, ExperimentConfig("power", 1e-3, k0=[0.0, 30.0]))]
    first = rows_to_csv(run_experiment(job))
    second = rows_to_csv(run_experiment(job))
    assert first == second


def test_run_single_leaves_solver_config_unchanged():
    scfg = SolveConfig(max_outer=1, max_inner=2)
    cfg = ExperimentConfig("power", 1e-3, k0=[0.0, 30.0], lam0=-1.0, solver=scfg)
    run_single("NN1", REG["systems"]["NN1"], cfg)
    assert scfg.k0 is None and scfg.lam0 is None
    assert scfg == SolveConfig(max_outer=1, max_inner=2)
