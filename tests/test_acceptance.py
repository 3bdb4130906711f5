"""End-to-end acceptance checks against the published reference values.

Each test covers one acceptance criterion; shared solver runs are cached at
module scope so the expensive end-to-end experiments execute only as often
as the determinism and trend checks require.
"""

import statistics

import numpy as np
import pytest

from hermitesof.benchmarks import (
    ExperimentConfig,
    get_plant,
    rows_to_csv,
    run_experiment,
    run_single,
    suite_config,
    table1_suite,
    NN6_ACHIEVABLE_GAIN,
    NN6_ACHIEVABLE_NODES,
)
from hermitesof.hermite import (
    hermite_lagrange,
    hermite_power,
    cond_frobenius,
    power_scale,
    scaled_hermite,
    scaling_from_numeric,
    NodeSet,
)
from hermitesof.polynomials import char_poly, optimal_rho, poly_from_roots, split_re_im
from hermitesof.solver import SofProgram, SolveConfig, augmented_objective, constraint_eval
from hermitesof.stability import nodes_from_target, roots
from hermitesof.systems import SystemInstance

from conftest import congruence_check, random_numeric_poly, random_stable_poly, relerr
from test_hermite import AC4_HP, NN1_HS11, NN5_HP, NN6_EX5_HS11, NN6_HP33
from test_solver import _random_form


AC4_OL = get_plant("AC4_openloop").q.at_gains([])
NN5_OL = get_plant("NN5_openloop").q.at_gains([])
NN6 = get_plant("NN6").q


@pytest.fixture(scope="module")
def suite_runs():
    """Two full benchmark-suite passes (embedded rows solve, file rows skip)."""
    return run_experiment(table1_suite()), run_experiment(table1_suite())


def _row(rows, system, basis):
    for r in rows:
        if r.system == system and r.basis == basis:
            return r
    raise AssertionError(f"missing row {system}/{basis}")


def test_criterion_1_power_basis_fixtures():
    H = hermite_power(AC4_OL).eval_at()
    for i in range(4):
        for j in range(4):
            if AC4_HP[i, j] == 0.0:
                assert abs(H[i, j]) <= 1e-6
            else:
                assert relerr(H[i, j], AC4_HP[i, j]) <= 1e-6

    H6 = hermite_power(NN6)
    assert H6.entry(9, 9).terms == {(0, 0, 0, 0): 23.300000}
    got = dict(H6.entry(3, 3).terms)
    assert set(got) == set(NN6_HP33)
    for mono, ref in NN6_HP33.items():
        assert relerr(got[mono], ref) <= 1e-6, mono


def test_criterion_2_conditioning():
    HP = hermite_power(AC4_OL).eval_at()
    assert relerr(cond_frobenius(HP), 1158.2) <= 1e-3
    rho = optimal_rho(AC4_OL)
    assert relerr(cond_frobenius(power_scale(HP, rho)), 32.096) <= 1e-3

    nodes = nodes_from_target(NN5_OL, part="im")
    HL = hermite_lagrange(hermite_power(NN5_OL), nodes).eval_at()
    assert relerr(cond_frobenius(HL), 2.0983e7) <= 1e-3
    S = scaling_from_numeric(HL, nodes)
    HS = S[:, None] * HL * S[None, :]
    assert abs(cond_frobenius(HS) - 7.0) <= 1e-6


def test_criterion_3_lagrange_fixtures():
    # block-diagonal reference values, compared as a multiset of 1x1 blocks
    nodes = nodes_from_target(NN5_OL, part="im")
    HL = hermite_lagrange(hermite_power(NN5_OL), nodes).eval_at()
    ref = sorted([-2826.9473, 4.1032866e10, 4.4286011e9, 4.1032866e10, 4.4286011e9])
    got = sorted(HL[i, i] for i in range(5))
    for g, r in zip(got, ref):
        assert relerr(g, r) <= 1e-6
    assert relerr(HL[5, 6], 22222.878) <= 1e-6

    nn1 = get_plant("NN1")
    HS = scaled_hermite(char_poly(nn1), poly_from_roots([-1.0, -2.0, -3.0]))
    got11 = dict(HS.entry(1, 1).terms)
    assert set(got11) == set(NN1_HS11)
    for mono, val in NN1_HS11.items():
        assert relerr(got11[mono], val) <= 1e-8, mono

    target = NN6.at_gains(NN6_ACHIEVABLE_GAIN)
    nd = nodes_from_target(target, part="im")
    key = lambda z: (round(abs(complex(z)), 6), complex(z).imag)
    for g, r in zip(sorted(nd.values, key=key), sorted(NN6_ACHIEVABLE_NODES, key=key)):
        assert abs(g - r) <= 1e-3 * max(1.0, abs(r))
    HS6 = scaled_hermite(NN6, target)
    got = dict(HS6.entry(1, 1).terms)
    assert set(got) == set(NN6_EX5_HS11)
    for mono, val in NN6_EX5_HS11.items():
        assert relerr(got[mono], val) <= 1e-5, mono


def test_criterion_4_structural_properties(rng):
    # positive definiteness of the Hermite matrix <=> Hurwitz root test
    checked = 0
    for _ in range(200):
        deg = int(rng.integers(2, 9))
        q = random_stable_poly(rng, deg) if rng.random() < 0.5 else random_numeric_poly(rng, deg)
        margin = float(np.max(roots(q).real))
        if abs(margin) < 1e-6:
            continue
        H = hermite_power(q).eval_at()
        assert (np.linalg.eigvalsh(H).min() > 0) == (margin < 0)
        checked += 1
    assert checked >= 150

    # Vandermonde congruence between the two bases
    for _ in range(100):
        n = int(rng.integers(2, 9))
        q = random_numeric_poly(rng, n)
        nodes = NodeSet.from_values(rng.uniform(-2.0, 2.0, n))
        HP = hermite_power(q).eval_at()
        assert congruence_check(q, nodes) <= 1e-8 * max(1.0, np.linalg.norm(HP, "fro"))

    # off-block entries vanish when nodes are roots of one split part
    for _ in range(100):
        deg = int(rng.integers(3, 8))
        q = random_stable_poly(rng, deg)
        nodes = nodes_from_target(q, part="im" if deg % 2 else "re")
        H = hermite_lagrange(hermite_power(q), nodes).eval_at()
        scale = np.linalg.norm(H, "fro")
        mask = np.ones_like(H, dtype=bool)
        for start, size in nodes.blocks():
            mask[start : start + size, start : start + size] = False
        assert np.max(np.abs(H[mask]), initial=0.0) <= 1e-9 * scale

    # repeated nodes are the first-order limit of nearby distinct nodes
    eps = 1e-5
    for _ in range(20):
        q = random_stable_poly(rng, 3)
        x = float(rng.uniform(0.3, 1.5))
        third = float(rng.uniform(2.0, 3.0))
        Hd = hermite_lagrange(hermite_power(q), NodeSet.from_values([x, x, third])).eval_at()
        Hp = hermite_lagrange(hermite_power(q), NodeSet.from_values([x, x + eps, third])).eval_at()
        M = np.eye(3)
        M[0, 1] = 1.0
        M[1, 1] = eps
        assert np.max(np.abs(M.T @ Hd @ M - Hp)) <= 1e-3 * np.abs(Hp).max()

    # split/reassemble round trip
    for _ in range(100):
        q = random_numeric_poly(rng, int(rng.integers(1, 10)))
        a, b = split_re_im(q)
        for u in rng.standard_normal(10):
            lhs = np.polyval(q[::-1], 1j * u)
            rhs = np.polyval(b[::-1], u) + 1j * np.polyval(a[::-1], u)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_criterion_5_gradient_checks(rng):
    h = 1e-6
    for _ in range(50):
        n = int(rng.integers(2, 7))
        nvars = int(rng.integers(1, 5))
        prog = SofProgram(_random_form(rng, n, nvars), mu=0.3, m=1, p=nvars)
        k = 0.1 * rng.standard_normal(nvars)
        lam = float(np.linalg.eigvalsh(prog.h_eval(k)).min()) - 1.0
        x = np.concatenate([k, [lam]])
        _, grads = constraint_eval(prog, x)
        U = np.eye(n) / n
        p = 0.05
        _, agrad = augmented_objective(prog, x, U, p)
        for i in range(nvars + 1):
            e = np.zeros_like(x)
            e[i] = h
            Gp, _ = constraint_eval(prog, x + e)
            Gm, _ = constraint_eval(prog, x - e)
            fd = (Gp - Gm) / (2 * h)
            assert np.max(np.abs(grads[i] - fd)) <= 1e-5 * max(1.0, np.abs(fd).max())
            vp, _ = augmented_objective(prog, x + e, U, p)
            vm, _ = augmented_objective(prog, x - e, U, p)
            sfd = (vp - vm) / (2 * h)
            assert abs(agrad[i] - sfd) <= 1e-5 * max(1.0, abs(sfd))


def test_criterion_6_solver_end_to_end(suite_runs):
    rows, _ = suite_runs
    for system, basis in (("NN1", "power"), ("AC4", "lagrange"), ("NN6", "lagrange")):
        row = _row(rows, system, basis)
        assert row.status == "converged", (system, basis, row.status)
        assert row.lam > 0, (system, basis, row.lam)
        assert row.stable, (system, basis)
        assert row.inner > 0 and row.outer > 0  # counters are reported


def test_the_gain_box_flag_marks_the_rows_pinned_at_the_box(suite_runs):
    rows, _ = suite_runs
    # NN1's k2 ends at the box k_bound = 1e4 in both bases; the AC4 and NN6
    # gains lie far inside theirs
    solved = [r for r in rows if not r.status.startswith("skipped")]
    assert len(solved) == 5
    assert {(r.system, r.basis) for r in solved if r.box_active} == {
        ("NN1", "power"), ("NN1", "lagrange")}


def test_criterion_7_basis_benefit_trend():
    nn6_solver = SolveConfig(
        p0=0.01, u0=1.0 / 9, sigma=1.0, tol_inner=1e-8, k_bound=1e8, max_outer=150
    )
    configs = {
        ("AC4", "power"): (
            get_plant("AC4"),
            ExperimentConfig("power", 1e-5, k0=[0.0, 0.0], solver=SolveConfig(u0=1.0 / 9)),
        ),
        ("AC4", "lagrange"): (
            get_plant("AC4"),
            ExperimentConfig(
                "lagrange", 1e-5, k0=[0.0, 0.0],
                target=suite_config("AC4", "lagrange").target, part="re",
                solver=SolveConfig(u0=1.0 / 9),
            ),
        ),
        ("NN6", "power"): (
            get_plant("NN6"),
            ExperimentConfig("power", 1e-5, k0=[0.0] * 4, solver=nn6_solver),
        ),
        ("NN6", "lagrange"): (
            get_plant("NN6"),
            ExperimentConfig(
                "lagrange", 1e-5, k0=[0.0] * 4,
                target=suite_config("NN6", "lagrange").target, solver=nn6_solver,
            ),
        ),
    }
    medians = {}
    statuses = {}
    for key, (plant, cfg) in configs.items():
        runs = [run_single(key[0], plant, cfg) for _ in range(5)]
        medians[key] = statistics.median(r.inner for r in runs)
        statuses[key] = runs[0].status
        assert len({(r.inner, r.status) for r in runs}) == 1  # deterministic

    print("inner-iteration medians:", medians, "statuses:", statuses)
    for system in ("AC4", "NN6"):
        power_ok = statuses[(system, "power")] == "converged"
        if power_ok:
            assert medians[(system, "lagrange")] <= medians[(system, "power")], (
                system, medians,
            )
        # a failed power-basis run counts in favor of the scaled basis


def test_criterion_8_deterministic_reports(suite_runs):
    first, second = suite_runs
    assert rows_to_csv(first) == rows_to_csv(second)
