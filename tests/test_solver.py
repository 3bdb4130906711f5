"""Penalty solver: derivatives, end-to-end behavior, and status reporting."""

import numpy as np
import pytest

from hermitesof.benchmarks import registry
from hermitesof.errors import BarrierDomainError, InputError
from hermitesof.hermite import HermiteForm, hermite_power, scaled_hermite
from hermitesof.polynomials import MultiPoly, char_poly
from hermitesof.solver import (
    SofProgram,
    SolveConfig,
    augmented_objective,
    constraint_eval,
    solve_sof,
    verify_solution,
)
from hermitesof.stability import build_target

from conftest import relerr


REG = registry()
NN1 = REG["systems"]["NN1"]
AC4 = REG["polys"]["AC4"].q


def _const_form(M):
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    entries = [
        [MultiPoly.constant(M[i, j], 0) for j in range(n)] for i in range(n)
    ]
    return HermiteForm.from_entries("power", entries, 0)


def _random_form(rng, n, nvars):
    """Random symmetric matrix with quadratic polynomial entries."""
    def rand_poly():
        terms = {(0,) * nvars: float(rng.standard_normal())}
        for v in range(nvars):
            mono = tuple(1 if i == v else 0 for i in range(nvars))
            terms[mono] = float(rng.standard_normal())
        for v in range(nvars):
            for w in range(v, nvars):
                mono = tuple(
                    (1 if i == v else 0) + (1 if i == w else 0)
                    for i in range(nvars)
                )
                terms[mono] = float(rng.standard_normal())
        return MultiPoly(nvars, terms)

    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = rand_poly()
            entries[i][j] = p
            entries[j][i] = p
    return HermiteForm.from_entries("power", entries, nvars)


def _ac4_scaled_program():
    target = build_target([], REG["targets"]["AC4_shifted"])
    H = scaled_hermite(AC4, target, part="re")
    return SofProgram(H, mu=1e-5, m=1, p=2)


# -- derivatives ------------------------------------------------------------


def test_constraint_eval_lambda_partial(rng):
    prog = SofProgram(_random_form(rng, 3, 2), mu=0.0, m=1, p=2)
    _, grads = constraint_eval(prog, np.array([0.3, -0.7, 0.1]))
    assert np.array_equal(grads[-1], -np.eye(3))


def test_constraint_eval_nn1_entry_partial():
    prog = SofProgram(hermite_power(char_poly(NN1)), mu=0.0, m=1, p=2)
    _, grads = constraint_eval(prog, np.zeros(3))
    assert grads[1][0, 0] == pytest.approx(-13.0)


def test_constraint_eval_rejects_bad_length(rng):
    prog = SofProgram(_random_form(rng, 2, 2), mu=0.0, m=1, p=2)
    with pytest.raises(InputError):
        constraint_eval(prog, np.zeros(2))


def test_constraint_eval_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(2, 5))
        nvars = int(rng.integers(1, 4))
        prog = SofProgram(_random_form(rng, n, nvars), mu=0.0, m=1, p=nvars)
        x = rng.standard_normal(nvars + 1)
        _, grads = constraint_eval(prog, x)
        for i in range(nvars + 1):
            e = np.zeros_like(x)
            e[i] = h
            Gp, _ = constraint_eval(prog, x + e)
            Gm, _ = constraint_eval(prog, x - e)
            fd = (Gp - Gm) / (2 * h)
            scale = max(1.0, np.abs(fd).max())
            assert np.max(np.abs(grads[i] - fd)) <= 1e-5 * scale


def test_augmented_objective_constant_feasible(rng):
    # H == 2I: the constraint is inactive in k, so the k-gradient vanishes
    prog = SofProgram(_const_form(2.0 * np.eye(3)), mu=0.0, m=1, p=0)
    U = np.eye(3) / 3.0
    x = np.array([0.5])  # lambda only; G = 2I - 0.5 I is PD
    val, grad = augmented_objective(prog, x, U, 0.001)
    assert grad.size == 1
    assert val < 0  # dominated by -lambda


def test_augmented_objective_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(10):
        n = 4
        nvars = int(rng.integers(1, 4))
        prog = SofProgram(_random_form(rng, n, nvars), mu=0.3, m=1, p=nvars)
        k = 0.1 * rng.standard_normal(nvars)
        G0 = prog.h_eval(k)
        lam = float(np.linalg.eigvalsh(G0).min()) - 1.0
        x = np.concatenate([k, [lam]])
        U = np.eye(n) / n
        p = 0.05
        _, grad = augmented_objective(prog, x, U, p)
        for i in range(nvars + 1):
            e = np.zeros_like(x)
            e[i] = h
            vp, _ = augmented_objective(prog, x + e, U, p)
            vm, _ = augmented_objective(prog, x - e, U, p)
            fd = (vp - vm) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_augmented_objective_domain_error():
    prog = SofProgram(_const_form(-10.0 * np.eye(2)), mu=0.0, m=1, p=0)
    with pytest.raises(BarrierDomainError):
        augmented_objective(prog, np.array([0.0]), np.eye(2), 0.001)


# -- end-to-end --------------------------------------------------------------


def test_solve_identity_program():
    prog = SofProgram(_const_form(np.eye(3)), mu=0.0, m=1, p=0)
    report = solve_sof(prog, SolveConfig(k0=[]))
    assert report.status == "converged"
    assert abs(report.lam - 1.0) <= 1e-6


def test_counters_and_feasibility_invariants():
    trace = []
    cfg = SolveConfig(k0=[0.0, 0.0], u0=1.0 / 9, trace=trace)
    report = solve_sof(_ac4_scaled_program(), cfg)
    assert report.status == "converged"
    assert report.lam > 0
    assert report.inner_iters >= report.outer_iters
    assert report.linesearch_steps >= report.inner_iters
    # converged means the final iterate satisfies the matrix inequality
    assert report.min_eig >= -1e-6
    # once an outer iterate is feasible, later iterates stay near-feasible
    # (exact monotonicity of min-eig(G) does not hold for this method;
    # multiplier updates cause sub-milli oscillations)
    feas = [t[1] for t in trace]
    objs = [abs(t[2]) for t in trace]
    started = False
    for me, f in zip(feas, objs):
        if started:
            assert me >= -5e-3 * (1.0 + f)
        elif me >= -1e-9:
            started = True
    assert started


def test_solve_infeasible_program():
    # H = [[-1 - k^2]] can never reach positive definiteness
    entries = [[MultiPoly(1, {(0,): -1.0, (2,): -1.0})]]
    H = HermiteForm.from_entries("power", entries, 1)
    report = solve_sof(SofProgram(H, mu=0.0, m=1, p=1), SolveConfig(k0=[0.5]))
    assert report.status == "infeasible-stall"
    assert report.lam <= 1e-9


def test_verify_solution_open_loop_ac4():
    poles, stable, margin = verify_solution(AC4, np.array([[0.0, 0.0]]))
    assert not stable
    assert relerr(margin, 2.5792) <= 1e-3
    assert len(poles) == 4


def test_verify_solution_after_solve():
    report = solve_sof(
        _ac4_scaled_program(), SolveConfig(k0=[0.0, 0.0], u0=1.0 / 9)
    )
    poles, stable, margin = verify_solution(AC4, report.K)
    assert stable
    assert margin < 0
    assert np.max(poles.real) < 0
