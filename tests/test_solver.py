"""Penalty solver: derivatives, end-to-end behavior, and status reporting."""

import copy
import dataclasses

import numpy as np
import pytest

from hermitesof import solver
from hermitesof.benchmarks import registry, run_single, table1_suite
from hermitesof.errors import BarrierDomainError, InputError
from hermitesof.hermite import hermite_power, scaled_hermite
from hermitesof.polynomials import char_poly
from hermitesof.solver import (
    SofProgram,
    SolveConfig,
    _newton_inner,
    _objective,
    _phi,
    augmented_objective,
    constraint_eval,
    solve_sof,
    verify_solution,
)
from hermitesof.stability import TargetSpec, build_target, roots
from hermitesof.systems import SystemInstance

from conftest import pack_entries, relerr
from test_hermite import _planted_plant


REG = registry()
NN1 = REG["systems"]["NN1"]
AC4 = REG["polys"]["AC4"].q


def _const_form(M):
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    entries = [[{(): M[i, j]} for j in range(n)] for i in range(n)]
    return pack_entries("power", entries, 0)


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
        return terms

    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = rand_poly()
            entries[i][j] = p
            entries[j][i] = p
    return pack_entries("power", entries, nvars)


def _ac4_scaled_program():
    target = build_target([], REG["targets"]["AC4_shifted"])
    H = scaled_hermite(AC4, target, part="re")
    return SofProgram(H, mu=1e-5, m=1, p=2)


def _k_squared_program():
    # H = [[-1 - k^2]] can never reach positive definiteness
    entries = [[{(0,): -1.0, (2,): -1.0}]]
    return SofProgram(pack_entries("power", entries, 1), mu=0.0, m=1, p=1)


# -- input checks -------------------------------------------------------------


def _refuse_evaluation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the objective was evaluated")

    monkeypatch.setattr(solver, "augmented_objective", refuse)


def test_solve_rejects_a_start_outside_the_gain_box(monkeypatch):
    prog = SofProgram(hermite_power(char_poly(NN1)), mu=1e-3, m=1, p=2)
    _refuse_evaluation(monkeypatch)
    with pytest.raises(InputError, match="k0 entry 20000 .* 10000"):
        solve_sof(prog, SolveConfig(k0=[0.0, 2e4]))


def test_solve_rejects_a_start_outside_the_barrier_domain(monkeypatch):
    prog = SofProgram(hermite_power(char_poly(NN1)), mu=1e-3, m=1, p=2)
    bound = float(np.linalg.eigvalsh(prog.h_eval([0.0, 30.0])).min()) + SolveConfig().p0
    _refuse_evaluation(monkeypatch)
    with pytest.raises(InputError, match=f"lam0 1000000 .* = {bound:.8g}"):
        solve_sof(prog, SolveConfig(k0=[0.0, 30.0], lam0=1e6))


def test_program_rejects_a_negative_mu():
    with pytest.raises(InputError, match="mu -1 "):
        SofProgram(hermite_power(char_poly(NN1)), mu=-1.0, m=1, p=2)


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


def _reference_constraint_eval(prog, x):
    """G and dG/dx by one contraction per block, each over its own monomials."""
    E, C = prog.H.E, prog.H.C.real
    k, lam = x[:-1], x[-1]
    n = prog.H.n
    G = np.tensordot(np.prod(k**E, axis=1), C, axes=1) - lam * np.eye(n)
    grads = []
    for l in range(prog.mp):
        rows = E[:, l] > 0
        El = E[rows]
        El[:, l] -= 1
        Cl = C[rows] * E[rows, l, None, None]
        grads.append(np.tensordot(np.prod(k**El, axis=1), Cl, axes=1))
    return G, grads + [-np.eye(n)]


def _reference_augmented_objective(prog, x, U, p, k_bound, u_box):
    """augmented_objective with one congruence and one sum per partial."""
    G, dG = _reference_constraint_eval(prog, x)
    w, Q = np.linalg.eigh(-G)
    phi = _phi(w, p)
    Ut = Q.T @ U @ Q
    f, g = _objective(prog, x)
    val = f + float(np.sum(np.diag(Ut) * phi))
    dw = w[:, None] - w[None, :]
    close = np.abs(dw) <= 1e-12 * (1.0 + np.abs(w[:, None]) + np.abs(w[None, :]))
    with np.errstate(divide="ignore", invalid="ignore"):
        Gamma = (phi[:, None] - phi[None, :]) / dw
    mid = 0.5 * (w[:, None] + w[None, :])
    Gamma[close] = (1.0 / (1.0 - mid / p))[close]
    M = Ut * Gamma
    grad = g.copy()
    for i, dGi in enumerate(dG):
        Zi = Q.T @ (-dGi) @ Q
        grad[i] += float(np.sum(M * Zi))
    k = x[:-1]
    z_lo, z_hi = -k_bound - k, k - k_bound
    val += float(u_box[0] @ _phi(z_lo, p) + u_box[1] @ _phi(z_hi, p))
    grad[:-1] += u_box[1] / (1.0 - z_hi / p) - u_box[0] / (1.0 - z_lo / p)
    return val, grad


def test_shared_monomial_pass_is_bitwise_equal_to_per_block_path(rng):
    mirror = TargetSpec(mode="mirror-shift", shift=-0.5)
    plant = _planted_plant(2, 4, 2, 2)
    q_plant = char_poly(plant)
    k1_only = {(0, 0): 1.0, (2, 0): 1.0}
    entries = [[k1_only, {(1, 0): 1.0}],
               [{(1, 0): 1.0}, {(0, 0): 2.0, (1, 0): -1.0}]]
    programs = [
        SofProgram(hermite_power(char_poly(NN1)), mu=1e-4, m=1, p=2),
        _ac4_scaled_program(),
        SofProgram(
            scaled_hermite(REG["polys"]["NN6"].q,
                           build_target([], REG["targets"]["NN6_sigma1"]), part="im"),
            mu=1e-5, m=2, p=2,
        ),
        SofProgram(
            scaled_hermite(q_plant, build_target(roots(q_plant.at_gains(np.zeros(4))), mirror),
                           part="re"),
            mu=1e-5, m=2, p=2,
        ),
        _k_squared_program(),
        # k2 does not occur: its derivative block is empty
        SofProgram(pack_entries("power", entries, 2), mu=0.1, m=1, p=2),
    ]
    p = 0.05
    for prog in programs:
        n, mp = prog.H.n, prog.mp
        for t in range(20):
            k = rng.standard_normal(mp)
            # alternate a deep interior point and one near the barrier edge
            lam = float(np.linalg.eigvalsh(prog.h_eval(k)).min()) + (0.5 * p if t % 2 else -1.0)
            x = np.append(k, lam)
            G, grads = constraint_eval(prog, x)
            G_ref, grads_ref = _reference_constraint_eval(prog, x)
            assert np.array_equal(G, G_ref)
            assert len(grads) == len(grads_ref) == mp + 1
            for dG, dG_ref in zip(grads, grads_ref):
                assert np.array_equal(dG, dG_ref)
            A = rng.standard_normal((n, n))
            U = (A @ A.T + np.eye(n)) / n
            u_box = rng.uniform(0.5, 2.0, (2, mp))
            val, grad = augmented_objective(prog, x, U, p, k_bound=1e4, u_box=u_box)
            val_ref, grad_ref = _reference_augmented_objective(prog, x, U, p, 1e4, u_box)
            assert np.array_equal(val, val_ref)
            assert np.array_equal(grad, grad_ref)


# -- end-to-end --------------------------------------------------------------


def test_solve_identity_program():
    prog = SofProgram(_const_form(np.eye(3)), mu=0.0, m=1, p=0)
    report = solve_sof(prog, SolveConfig(k0=[]))
    assert report.status == "converged"
    assert abs(report.lam - 1.0) <= 1e-6


def test_counters_and_feasibility_invariants():
    cfg = SolveConfig(k0=[0.0, 0.0], u0=1.0 / 9)
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
    feas = [t[1] for t in report.history]
    objs = [abs(t[2]) for t in report.history]
    started = False
    for me, f in zip(feas, objs):
        if started:
            assert me >= -5e-3 * (1.0 + f)
        elif me >= -1e-9:
            started = True
    assert started


@pytest.mark.parametrize(
    "program, cfg",
    [
        # stops on the infeasibility stall before the outer cap
        (_k_squared_program, SolveConfig(k0=[0.5])),
        # stops at the outer cap
        (_ac4_scaled_program, SolveConfig(k0=[0.0, 0.0], u0=1.0 / 9, max_outer=3)),
    ],
)
def test_history_records_each_outer_iteration_and_leaves_the_config_alone(program, cfg):
    before = copy.deepcopy(cfg)
    first = solve_sof(program(), cfg)
    second = solve_sof(program(), cfg)
    assert cfg == before
    assert len(first.history) == first.outer_iters >= 2
    assert all(len(record) == 3 for record in first.history)
    assert first.history[-1][0] == first.lam
    for field in dataclasses.fields(first):
        a, b = getattr(first, field.name), getattr(second, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


# planted 4-state, 2-input, 1-output plant (the fifth draw of a seeded suite):
# from k0 = 0 the scaled Lagrange program ends at a stationary point with
# lambda ~ 1e-8 above zero but min eig H(k) < 0, inside the feasibility
# tolerance, at a gain that does not stabilize the plant
PLANTED_4X2X1 = SystemInstance(
    name="planted-4x2x1-1",
    A=[
        [0.06505379475845294, -1.1563295544136127, -0.4145084515845915, -0.07139987030714547],
        [-1.5390968301862866, 0.5764330680683103, -0.7346042083175972, -0.1966426333248914],
        [-0.2266632583605948, 1.0243944382916932, -2.635212968537274, 0.19786590090594042],
        [-0.9548525963209292, 0.23762835042866665, -0.03312884204061706, -2.4229371628547267],
    ],
    B=[
        [1.2504548087938758, 0.29242238367403595],
        [-0.09592687431120771, 2.3993557298494004],
        [0.16556716435746782, 1.0085141647918283],
        [0.36360289520299977, 0.7590718337919495],
    ],
    C=[[1.222792927830172, -1.5871781338588333, 1.1769659843345415, -0.414457943887934]],
)


def test_converged_means_strictly_feasible():
    q = char_poly(PLANTED_4X2X1)
    target = build_target(roots(q.at_gains([0.0, 0.0])), TargetSpec(shift=-0.5))
    prog = SofProgram(scaled_hermite(q, target, part="re"), mu=1e-5, m=2, p=1)
    report = solve_sof(prog, SolveConfig(k0=[0.0, 0.0]))
    _, stable, _ = verify_solution(q, report.K)
    min_eig_h = float(np.linalg.eigvalsh(prog.h_eval(report.k)).min())
    assert not stable and min_eig_h < 0
    assert report.status == "infeasible-stall"


def test_solve_infeasible_program():
    report = solve_sof(_k_squared_program(), SolveConfig(k0=[0.5]))
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


def test_newton_phase_reuses_the_given_evaluation():
    calls = []

    def fun_grad(x):
        calls.append(x)
        return 0.0, np.zeros_like(x)

    x0 = np.array([0.3, -0.2])
    x, f, g, iters, trials, failed = _newton_inner(
        fun_grad, x0, 1.5, np.array([1e-9, 0.0]), 1e-6, 40
    )
    assert calls == []
    assert np.array_equal(x, x0) and f == 1.5 and (iters, trials, failed) == (0, 0, False)


def test_solve_never_repeats_an_evaluation_within_an_outer_iteration(monkeypatch):
    calls = []
    evaluate = solver.augmented_objective

    def recorded(prog, x, U, p, **kwargs):
        calls.append((np.asarray(x).tobytes(), U.tobytes(), p))
        return evaluate(prog, x, U, p, **kwargs)

    monkeypatch.setattr(solver, "augmented_objective", recorded)
    report = solve_sof(_k_squared_program(), SolveConfig(k0=[0.5]))
    # U and p are fixed within an outer iteration and change between them
    iterations = []
    for x, U, p in calls:
        if not iterations or iterations[-1][0] != (U, p):
            iterations.append(((U, p), []))
        iterations[-1][1].append(x)
    assert len(iterations) == report.outer_iters >= 2
    for _, xs in iterations:
        assert len(set(xs)) == len(xs)


def test_max_inner_caps_each_outer_iteration():
    cfg = SolveConfig(k0=[0.0, 0.0], u0=1.0 / 9, max_inner=3, max_outer=4)
    report = solve_sof(_ac4_scaled_program(), cfg)
    assert report.outer_iters == 4
    assert report.inner_iters <= cfg.max_inner * report.outer_iters


def test_inner_loop_stops_on_its_tolerance_before_the_cap():
    (name, plant, cfg), = [
        row for row in table1_suite() if row[0] == "NN1" and row[2].basis == "lagrange"
    ]
    row = run_single(name, plant, dataclasses.replace(cfg, solver=SolveConfig(max_inner=100)))
    assert row.status == "converged"
    assert row.inner < 100 * row.outer
