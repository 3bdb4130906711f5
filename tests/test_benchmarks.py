"""Embedded fixtures, instance file I/O, and the experiment harness."""

import hashlib

import numpy as np
import pytest

import hermitesof.benchmarks
from hermitesof.benchmarks import (
    CSV_HEADER,
    DATA_DIR_ENV,
    ExperimentConfig,
    get_plant,
    load_instance,
    rows_to_csv,
    run_experiment,
    run_single,
    suite,
    suite_config,
    table1_suite,
)
from hermitesof.cli import main
from hermitesof.errors import InputError
from hermitesof.polynomials import MultiPoly
from hermitesof.solver import SolveConfig
from hermitesof.stability import TargetSpec
from hermitesof.systems import SystemInstance

from conftest import save_instance
from test_hermite import _planted_plant


def test_registry_nn1_matrices():
    nn1 = get_plant("NN1")
    assert np.array_equal(nn1.A[2], [0.0, 13.0, 0.0])
    assert nn1.B.shape == (3, 1)
    assert nn1.C.shape == (2, 3)


def test_registry_nn6_constant_term():
    q = get_plant("NN6").q
    c0 = q.coeffs[0]
    assert dict(c0.terms) == {(1, 0, 0, 0): 95113415.0}
    assert q.n == 9


def test_registry_nn5_constant_term():
    q = get_plant("NN5_openloop").q
    assert q.coeffs[0].terms == {(): 6.3000000}
    assert q.n == 7


def _arrays(plant):
    if isinstance(plant, SystemInstance):
        return plant.A, plant.B, plant.C
    return plant.q.E, plant.q.Q


# the embedded fixtures, in table order
FIXTURES = {"systems": ("NN1",), "polys": ("NN6", "AC4", "AC4_openloop", "NN5_openloop")}


def _printed_targets():
    """The printed target root lists in table order, each from the suite
    row that solves over it."""
    pas = [cfg.target for _, _, cfg in suite("table2") if cfg.target is not None]
    return {
        "NN6_sigma1": suite_config("NN6", "lagrange").target,
        "AC4_shifted": suite_config("AC4", "lagrange").target,
        **{f"PAS_sigma{i}": target for i, target in enumerate(pas, 1)},
    }


def test_registry_holds_the_printed_fixtures_bit_for_bit():
    # any change to a name, value, dtype, shape or order changes the digest
    h = hashlib.sha256()
    for kind, names in FIXTURES.items():
        for name in names:
            plant = get_plant(name)
            h.update(f"{kind} {name} {plant.name} m={plant.m} p={plant.p}".encode())
            for a in _arrays(plant):
                h.update(f"{a.dtype.str} {a.shape}".encode() + a.tobytes())
    for name, target in _printed_targets().items():
        h.update(f"target {name} {target!r}".encode())
    assert h.hexdigest() == "beb21bc2d8e8692663ddfbe8d7126775d6846314ac0206fb233b6590c97666d9"


@pytest.mark.parametrize("name", ["NN1", "NN6", "AC4", "AC4_openloop", "NN5_openloop"])
def test_each_lookup_builds_a_fresh_copy_of_the_registry_entry(name):
    first, second = get_plant(name), get_plant(name)
    assert (first.name, first.m, first.p) == (second.name, second.m, second.p)
    for a, b in zip(_arrays(first), _arrays(second)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not np.shares_memory(a, b)


def test_a_lookup_builds_only_the_fixture_it_names(tmp_path, monkeypatch):
    plant = _planted_plant(3, 3, 1, 2)
    path = tmp_path / "planted.json"
    save_instance(SystemInstance("planted", plant.A, plant.B, plant.C), path)
    calls = []
    printed = hermitesof.benchmarks._printed

    def counted(rows):
        calls.append(rows)
        return printed(rows)

    monkeypatch.setattr(hermitesof.benchmarks, "_printed", counted)
    assert get_plant("NN6").q.n == 9 and len(calls) == 1
    get_plant("NN1")
    assert np.array_equal(get_plant(str(path)).A, plant.A)
    assert len(calls) == 1


def test_instance_round_trip(tmp_path):
    nn1 = get_plant("NN1")
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
    assert CSV_HEADER == (
        "system,basis,mu,K0,outer,inner,linesearch,K,lambda,status,stable,box_active")
    rows = run_experiment([("GHOST", None, ExperimentConfig("power", 1e-3))])
    out = rows_to_csv(rows)
    assert out.splitlines()[0] == CSV_HEADER
    assert "skipped: data not supplied".replace(",", ";") in out


def test_run_experiment_deterministic():
    nn1 = get_plant("NN1")
    job = [("NN1", nn1, ExperimentConfig("power", 1e-3, k0=[0.0, 30.0]))]
    first = rows_to_csv(run_experiment(job))
    second = rows_to_csv(run_experiment(job))
    assert first == second


def test_run_single_leaves_solver_config_unchanged():
    scfg = SolveConfig(max_outer=1)
    cfg = ExperimentConfig("power", 1e-3, k0=[0.0, 30.0], lam0=-1.0, solver=scfg)
    run_single("NN1", get_plant("NN1"), cfg)
    assert scfg.k0 is None and scfg.lam0 is None
    assert scfg == SolveConfig(max_outer=1)


def test_run_single_takes_k0_and_lam0_from_the_solver_config():
    nn1 = get_plant("NN1")
    row = run_single("NN1", nn1, ExperimentConfig(
        "power", 1e-3, solver=SolveConfig(k0=[0.0, 30.0], lam0=1e6)))
    assert row.k0 == "[0 30]" and row.status.startswith("error: lam0 1000000 ")
    # the ExperimentConfig's own values win
    row = run_single("NN1", nn1, ExperimentConfig(
        "power", 1e-3, k0=[0.0, 0.0], lam0=2e6, solver=SolveConfig(k0=[0.0, 30.0], lam0=1e6)))
    assert row.k0 == "[0 0]" and row.status.startswith("error: lam0 2000000 ")


def test_run_single_error_row_prints_k0_as_a_gain_matrix():
    plant = SystemInstance(
        name="two-by-two",
        A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -3.0]],
        B=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        C=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    )
    cfg = ExperimentConfig("chebyshev", 1e-3, k0=[1.0, 2.0, 3.0, 4.0])
    row = run_single("two-by-two", plant, cfg)
    assert row.status.startswith("error: unknown basis")
    assert row.k0 == "[1 3; 2 4]"
    # a k0 that is not m*p long cannot be shaped and is printed as given
    row = run_single("two-by-two", plant, ExperimentConfig("power", 1e-3, k0=[1.0, 2.0, 3.0]))
    assert row.status == "error: k0 length 3, expected 4"
    assert row.k0 == "[1 2 3]"


def test_run_single_builds_no_symbolic_polynomial(monkeypatch):
    # symbolic polynomials are for display; the solve path runs on arrays
    def refuse(self, *args, **kwargs):
        raise AssertionError("a MultiPoly was built")

    monkeypatch.setattr(MultiPoly, "__init__", refuse)
    mirror = TargetSpec(mode="mirror-shift", shift=-0.5)
    short = SolveConfig(max_outer=2)
    runs = [
        ("NN1", get_plant("NN1"), ExperimentConfig("power", 1e-3, k0=[0.0, 30.0])),
        ("AC4", get_plant("AC4"), ExperimentConfig(
            "lagrange", 1e-5, k0=[0.0, 0.0], target=suite_config("AC4", "lagrange").target,
            part="re", solver=short,
        )),
        ("planted", _planted_plant(0, 4, 2, 2), ExperimentConfig(
            "lagrange", 1e-5, k0=[0.0] * 4, target=mirror, part="re", solver=short,
        )),
    ]
    for name, plant, cfg in runs:
        row = run_single(name, plant, cfg)
        assert not row.status.startswith("error"), (name, row.status)


def test_even_degree_file_plant_gets_lagrange_rows(tmp_path, monkeypatch, capsys):
    # a 4-state plant: only the target's real part supplies 4 nodes
    plant = _planted_plant(17, 4, 1, 2)
    save_instance(SystemInstance("AC17", plant.A, plant.B, plant.C), tmp_path / "AC17.json")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    rows = run_experiment([row for row in table1_suite() if row[0] == "AC17"])
    assert [r.basis for r in rows] == ["power", "lagrange"]
    assert not rows[1].status.startswith("error:"), rows[1].status
    main(["solve", "--fixture", "AC17", "--basis", "lagrange", "--format", "csv"])
    row = capsys.readouterr().out.splitlines()[1]
    assert not row.split(",")[9].startswith("error:"), row


def test_suite_config_is_the_table1_row_and_loads_no_plant(tmp_path, monkeypatch):
    plant = _planted_plant(7, 3, 1, 2)
    save_instance(SystemInstance("AC7", plant.A, plant.B, plant.C), tmp_path / "AC7.json")
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    rows = table1_suite()
    assert len(rows) == 17

    def refuse(path):
        raise AssertionError(f"loaded {path}")

    monkeypatch.setattr("hermitesof.benchmarks.load_instance", refuse)
    with pytest.raises(AssertionError, match="AC7.json"):
        table1_suite()
    for name, _, cfg in rows:
        assert suite_config(name, cfg.basis) == cfg, (name, cfg.basis)
    assert suite_config("PAS", "lagrange") is None
    assert suite_config("NOPE", "power") is None
    # only the AC4 and NN6 rows set SolveConfig fields
    assert [name for name, _, cfg in rows if cfg.solver is not None] == ["AC4", "AC4", "NN6"]


def test_suites_build_fresh_configs_on_every_call():
    a, b = suite_config("AC4", "lagrange"), suite_config("AC4", "lagrange")
    assert a.k0 is not b.k0 and a.solver is not b.solver
    first, second = table1_suite(), table1_suite()
    for (_, _, c1), (_, _, c2) in zip(first, second):
        assert c1.k0 is not c2.k0
        assert c1.solver is None or c1.solver is not c2.solver
    # nor do two rows of one call share a SolveConfig
    ac4_power, ac4_lagrange = [cfg for name, _, cfg in first if name == "AC4"]
    assert ac4_power.solver is not ac4_lagrange.solver
    a.k0.append(1.0)
    a.solver.u0 = 1.0
    assert suite_config("AC4", "lagrange") == b


def test_unknown_suite_is_an_input_error():
    with pytest.raises(InputError, match="unknown suite 'table3'"):
        suite("table3")


def test_a_lagrange_config_without_a_target_solves_with_the_mirror_target():
    plant = get_plant("NN1")
    row = run_single("NN1", plant, ExperimentConfig("lagrange", 1e-4, k0=[0.0, 30.0]))
    assert not row.status.startswith("error:"), row.status
    mirror = ExperimentConfig("lagrange", 1e-4, k0=[0.0, 30.0], target=TargetSpec())
    assert row == run_single("NN1", plant, mirror)
