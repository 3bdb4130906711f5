"""Penalty solver: derivatives, end-to-end behavior, and status reporting."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermitesof import solver
from hermitesof.benchmarks import _sym_poly, hermite_form, registry, run_single, table1_suite
from hermitesof.errors import BarrierDomainError, InputError
from hermitesof.hermite import hermite_power, scaled_hermite
from hermitesof.polynomials import char_poly
from hermitesof.solver import (
    SofProgram,
    SolveConfig,
    _newton_inner,
    _objective,
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
    return refuse


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


@pytest.mark.parametrize("name, value", [
    ("k_bound", np.inf), ("k_bound", 0.0), ("k_bound", -1.0), ("k_bound", np.nan),
    ("u0", np.inf), ("u0", 0.0), ("u0", -1.0), ("u0", np.nan),
    ("sigma", 5.0), ("sigma", 0.0), ("sigma", -0.3), ("sigma", np.nan),
])
def test_solve_rejects_a_setting_outside_its_range(monkeypatch, name, value):
    (system, plant, cfg), = [
        row for row in table1_suite() if row[0] == "NN1" and row[2].basis == "power"
    ]
    prog, scfg = _suite_program("NN1", "power")
    scfg = dataclasses.replace(scfg, **{name: value})
    monkeypatch.setattr(SofProgram, "h_eval", _refuse_evaluation(monkeypatch))
    with pytest.raises(InputError, match=f"^{name} {value:.8g} must"):
        solve_sof(prog, scfg)
    row = run_single(system, plant, dataclasses.replace(cfg, solver=scfg))
    assert row.status.startswith(f"error: {name} {value:.8g} must")


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


def _phi(z, p):
    """Shifted log penalty, elementwise; domain z < p."""
    return -p * np.log1p(-z / p)


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


def _reference_rejects(prog, x, p, k_bound):
    """augmented_objective's domain rule on the reference G: the gain box,
    then max eig(-G), each against p*(1 - 1e-12)."""
    k = x[:-1]
    limit = p * (1.0 - 1e-12)
    if max((-k_bound - k).max(), (k - k_bound).max()) >= limit:
        return True
    G, _ = _reference_constraint_eval(prog, x)
    return np.linalg.eigh(-G)[0].max() >= limit


def _rejects_along(prog, base, d, p):
    return lambda s: _reference_rejects(prog, base + s * d, p, 1e4)


def _bisect(rejects, inside, outside):
    """Points at and within about 1e-12 relative of the edge between the
    scalars inside and outside, on both sides of it."""
    assert not rejects(inside) and rejects(outside)
    while abs(outside - inside) > 1e-13 * max(1.0, abs(outside)):
        mid = 0.5 * (inside + outside)
        inside, outside = (inside, mid) if rejects(mid) else (mid, outside)
    return [s * (1.0 + r) for s in (inside, outside) for r in (-1e-12, -4e-16, 0.0, 4e-16, 1e-12)]


def _assert_matches_reference(prog, x, U, p, u_box):
    """True where augmented_objective rejects x; it must reject exactly where
    the reference rule does and elsewhere return the reference's bits."""
    rejected = _reference_rejects(prog, x, p, 1e4)
    try:
        val, grad = augmented_objective(prog, x, U, p, k_bound=1e4, u_box=u_box)
    except BarrierDomainError:
        assert rejected
        return True
    assert not rejected
    val_ref, grad_ref = _reference_augmented_objective(prog, x, U, p, 1e4, u_box)
    assert np.array_equal(val, val_ref)
    assert np.array_equal(grad, grad_ref)
    return False


def _split_pair_program(gap):
    """H(k) = (1 + k1) I + diag(0, gap) + k2 [[0, 1], [1, 0]]: at k2 = 0 an
    eigenvalue pair gap apart, whose k2-derivative mixes the pair."""
    one, k1, k2 = (0, 0), (1, 0), (0, 1)
    entries = [[{one: 1.0, k1: 1.0}, {k2: 1.0}],
               [{k2: 1.0}, {one: 1.0 + gap, k1: 1.0}]]
    return SofProgram(pack_entries("power", entries, 2), mu=0.1, m=1, p=2)


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
    # eigenvalue pairs coalesced, near the coalescing tolerance
    # 1e-12*(1 + |w_i| + |w_j|) on either side, and clear of it
    split = [_split_pair_program(gap)
             for gap in (0.0, 1e-13, 1e-12, 2.5e-12, 5e-12, 1e-11, 3e-11)]
    programs += split
    p = 0.05
    for prog in programs:
        n, mp = prog.H.n, prog.mp
        for t in range(20):
            k = rng.standard_normal(mp)
            if any(prog is s for s in split):
                k[1] = 0.0  # keeps the pair gap apart
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
            assert not _assert_matches_reference(prog, x, U, p, u_box)

            if t >= 6:
                continue
            # from the first points: points bisected onto the barrier edge,
            # along lambda and along a random direction, and onto the
            # gain-box edge of one gain
            e_lam = np.zeros(mp + 1)
            e_lam[-1] = 1.0
            d = rng.standard_normal(mp + 1)
            d[-1] = abs(d[-1]) + 1.0  # lambda grows: the edge lies ahead
            s_far = 1.0
            while not _rejects_along(prog, x, d, p)(s_far):
                s_far *= 2.0
            walks = [(x, e_lam, 2.0), (x, d, s_far)]
            i = rng.integers(mp)
            k_box = k.copy()
            k_box[i] = rng.choice([-1.0, 1.0]) * 1e4
            H_box = prog.h_eval(k_box)
            # lambda far enough below the barrier edge for the whole walk
            lam_box = np.linalg.eigvalsh(H_box).min() - 1.0 - 1e-6 * np.abs(H_box).sum()
            e_k = np.zeros(mp + 1)
            e_k[i] = np.sign(k_box[i])
            walks.append((np.append(k_box, lam_box) - 0.5 * e_k, e_k, 1.0))
            for base, direction, s_out in walks:
                steps = _bisect(_rejects_along(prog, base, direction, p), 0.0, s_out)
                outcomes = {_assert_matches_reference(prog, base + s * direction, U, p, u_box)
                            for s in steps}
                assert outcomes == {False, True}


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


# -- domain screen -------------------------------------------------------------

MIRROR = TargetSpec(mode="mirror-shift", shift=-0.5)


def _suite_program(name, basis):
    """The program and solver settings of a Table-1 row, as run_single builds
    them."""
    (plant, cfg), = [(pl, c) for n, pl, c in table1_suite() if n == name and c.basis == basis]
    q, m, p = _sym_poly(plant)
    prog = SofProgram(hermite_form(q, basis, cfg.target), mu=cfg.mu, m=m, p=p)
    return prog, dataclasses.replace(cfg.solver or SolveConfig(), k0=cfg.k0, lam0=cfg.lam0)


def _planted_program(seed, n, m, p):
    """A planted plant in the scaled Lagrange basis, solved from k0 = 0."""
    plant = _planted_plant(seed, n, m, p)
    H = hermite_form(char_poly(plant), "lagrange", MIRROR)
    return SofProgram(H, mu=1e-5, m=m, p=p), SolveConfig(k0=np.zeros(m * p))


SCREENED = [
    _suite_program("NN1", "power"),
    _suite_program("NN1", "lagrange"),
    _suite_program("AC4", "power"),
    _suite_program("AC4", "lagrange"),
    _suite_program("NN6", "lagrange"),
    _planted_program(2, 4, 2, 2),  # H of degree 4 in k
]


@pytest.mark.parametrize("which", range(len(SCREENED)))
def test_h_eval_is_the_forms_evaluator_and_the_first_block_of_eval_stack(which):
    # the default lam0 comes from h_eval(k0), so one ulp between the three
    # would move every solve
    prog, cfg = SCREENED[which]
    rng = np.random.default_rng([13, which])
    kb = cfg.k_bound
    gains = [np.zeros(prog.mp) if cfg.k0 is None else np.asarray(cfg.k0, dtype=float)]
    gains += [scale * rng.standard_normal(prog.mp) for scale in (0.1, 1.0, 30.0) for _ in range(5)]
    for _ in range(5):  # on the gain-box edge: one entry, then all
        k = rng.standard_normal(prog.mp)
        k[rng.integers(prog.mp)] = rng.choice([-kb, kb])
        gains += [k, rng.choice([-kb, kb], prog.mp)]
    for k in gains:
        H = prog.h_eval(k)
        assert H.shape == (prog.H.n, prog.H.n)
        assert H.tobytes() == prog.H.eval_at(k).tobytes() == prog.eval_stack(k)[0].tobytes()


def _rejected(prog, y, p, k_bound):
    try:
        augmented_objective(prog, y, np.eye(prog.H.n), p, k_bound=k_bound)
    except BarrierDomainError:
        return True
    return False


@settings(max_examples=120, deadline=None)
@given(
    which=st.integers(0, len(SCREENED) - 1),
    seed=st.integers(0, 2**32 - 1),
    log_p=st.floats(-9.0, 0.0),
    gain_scale=st.sampled_from([0.1, 1.0, 30.0, "box"]),
    lam_only=st.booleans(),
)
def test_screen_flags_only_points_augmented_objective_rejects(
    which, seed, log_p, gain_scale, lam_only
):
    prog, cfg = SCREENED[which]
    rng = np.random.default_rng(seed)
    p, kb = 10.0**log_p, cfg.k_bound
    if gain_scale == "box":  # one gain just inside the gain box
        k = rng.standard_normal(prog.mp)
        k[rng.integers(prog.mp)] = rng.choice([-1.0, 1.0]) * kb * (1.0 - rng.uniform(0, 1e-6))
    else:
        k = gain_scale * rng.standard_normal(prog.mp)
    H = prog.h_eval(k)
    # below the edge by a share of p and by the rounding of eigh on H
    lam = np.linalg.eigvalsh(H).min() - p * rng.uniform(0.01, 2.0) - 1e-12 * np.abs(H).sum()
    x = np.append(k, lam)
    assert not _rejected(prog, x, p, kb)  # a strictly feasible base point
    d = np.zeros(x.size)
    if lam_only:
        d[-1] = 1.0
    else:
        d[:] = rng.standard_normal(x.size)
        d *= (1.0 + np.abs(x)) / np.linalg.norm(d)
    steps = list(10.0 ** rng.uniform(-9.0, 1.0) * 0.5 ** np.arange(30))
    # bisection for the edge of the domain along d, then points within 1e-9
    # relative of it on both sides
    inside, outside = 0.0, 1e-9
    while outside < 1e12 and not _rejected(prog, x + outside * d, p, kb):
        inside, outside = outside, 4.0 * outside
    if outside < 1e12:
        while outside - inside > 1e-10 * outside:
            mid = 0.5 * (inside + outside)
            if _rejected(prog, x + mid * d, p, kb):
                outside = mid
            else:
                inside = mid
        steps += [t * (1.0 + r) for t in (inside, outside) for r in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)]
    Y = x + np.array(steps)[:, None] * d
    far = x.copy()
    far[-1] = np.linalg.eigvalsh(H).max() + 2.0 * p + 1.0
    screen = solver._DomainScreen(prog, kb).at(x, p)
    flags = screen(np.vstack([Y, far]))
    assert flags[-1]  # the screen is not trivially silent
    for y in Y[flags[:-1]]:
        assert _rejected(prog, y, p, kb)


def test_in_domain_walks_rows_in_order_and_screens_once_after_the_first_rejection():
    outside = {1.0, 2.0, 4.0, 6.0}
    evaluated, asked = [], []

    def fun_grad(y):
        evaluated.append(float(y[0]))
        if y[0] in outside:
            raise BarrierDomainError("outside")
        return -y[0], 2.0 * y

    def screen(rows):
        asked.append((list(evaluated), rows[:, 0].tolist()))
        return np.isin(rows[:, 0], [2.0, 6.0])  # flags only rows outside

    Y = np.arange(8.0)[:, None]
    walked = [(j, f, g.tolist()) for j, f, g in solver._in_domain(fun_grad, Y, screen)]
    assert walked == [(j, -float(j), [2.0 * j]) for j in (0, 3, 5, 7)]
    # asked once, right after the first rejection, about the later rows only
    assert asked == [([0.0, 1.0], [2.0, 3.0, 4.0, 5.0, 6.0, 7.0])]
    assert evaluated == [0.0, 1.0, 3.0, 4.0, 5.0, 7.0]  # flagged rows never
    # the walk stops where its consumer does
    evaluated.clear()
    assert next(solver._in_domain(fun_grad, Y, screen))[0] == 0
    assert evaluated == [0.0]
    # no rejection, or only on the last row: the screen is not asked
    asked.clear()
    for rows in ([[0.0], [3.0]], [[0.0], [1.0]]):
        list(solver._in_domain(fun_grad, np.array(rows), screen))
    assert asked == []


def _reference_fd_hessian(fun_grad, x, g, screen=None):
    """_fd_hessian as a walk over all 40 probes of each coordinate, built up
    front (+h, -h per level, h from h0 = 1e-6*(1 + |x_i|) by products of
    1/8): evaluated in order, and after the first rejected probe the screen
    is asked once about the later ones."""
    n = x.size
    H = np.zeros((n, n))
    h = np.full((n, 20), 0.125)
    h[:, 0] = 1e-6 * (1.0 + np.abs(x))
    offsets = np.cumprod(h, axis=1).repeat(2, axis=1)
    offsets[:, 1::2] *= -1.0
    Y = np.empty((n, 40, n))
    Y[:] = x
    for i in range(n):
        Y[i, :, i] += offsets[i]
        skip, ask = [False] * 40, screen
        for j, y in enumerate(Y[i]):
            if skip[j]:
                continue
            try:
                _, gp = fun_grad(y)
            except BarrierDomainError:
                if ask is not None and j + 1 < 40:
                    skip[j + 1 :] = ask(Y[i, j + 1 :]).tolist()
                    ask = None
                continue
            H[:, i] = (gp - g) / offsets[i, j]
            break
    return 0.5 * (H + H.T)


def _fd_walk(fd_hessian, x, g, probe, rejected, flagged, screened):
    """fd_hessian on a stub objective that rejects the probes (i, j) in
    `rejected`, with a stub screen that flags those in `flagged`; returns
    the matrix bytes, the probes evaluated and the probes the screen was
    asked about, in order."""
    A = np.arange(x.size**2, dtype=float).reshape(x.size, x.size) / 7.0
    evaluated, asked = [], []

    def fun_grad(y):
        assert y.tobytes() in probe, "not one of the 40 probes of a coordinate"
        evaluated.append(probe[y.tobytes()])
        if probe[y.tobytes()] in rejected:
            raise BarrierDomainError("outside")
        return 0.0, A @ y + np.sin(3.0 * y)

    def screen(rows):
        asked.append([probe[y.tobytes()] for y in rows])
        return np.array([probe[y.tobytes()] in flagged for y in rows])

    H = fd_hessian(fun_grad, x, g, screen if screened else None)
    return H.tobytes(), evaluated, asked


def test_fd_hessian_walks_the_probes_of_the_40_probe_walk(rng):
    for case in range(30):
        n = int(rng.integers(1, 5))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        g = rng.standard_normal(n)
        # probe (i, j) of coordinate i, keyed by its bytes
        h0 = 1e-6 * (1.0 + np.abs(x))
        probe = {}
        for i in range(n):
            for j in range(40):
                y = x.copy()
                y[i] += (-1.0) ** j * h0[i] * 0.125 ** (j // 2)
                probe[y.tobytes()] = (i, j)
        # each coordinate's first probe inside the domain: the first, a
        # later one, or none; more rejections after it, and a screen that
        # flags some of the rejected probes
        first_in = rng.choice([0, 1, 2, 7, 40], n)
        rejected = {(i, j) for i in range(n) for j in range(40)
                    if j < first_in[i] or rng.random() < 0.3}
        flagged = {ij for ij in rejected if rng.random() < 0.5}
        for screened in (False, True):
            walked = _fd_walk(solver._fd_hessian, x, g, probe, rejected, flagged, screened)
            reference = _fd_walk(_reference_fd_hessian, x, g, probe, rejected, flagged, screened)
            assert walked == reference


def test_line_search_steps_are_the_products_of_the_backtracking_factor():
    steps = np.full(solver.MAX_LINESEARCH, solver.BACKTRACK)
    steps[0] = 1.0
    assert solver._STEPS.tobytes() == np.cumprod(steps).tobytes()


class _NoScreen:
    """A domain screen that flags nothing."""

    def __init__(self, *args):
        pass

    def at(self, *args):
        return self

    def __call__(self, Y):
        return np.zeros(len(Y), dtype=bool)


def _solve_recording(monkeypatch, prog, cfg):
    """The pickled report and one (point, rejected) pair per evaluation, the
    point keyed with the multiplier and penalty it was evaluated under."""
    calls = []
    evaluate = solver.augmented_objective

    def recorded(prog, x, U, p, **kwargs):
        key = (np.asarray(x).tobytes(), U.tobytes(), p)
        try:
            out = evaluate(prog, x, U, p, **kwargs)
        except BarrierDomainError:
            calls.append((key, True))
            raise
        calls.append((key, False))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(solver, "augmented_objective", recorded)
        report = solve_sof(prog, cfg)
    return pickle.dumps(report), calls


@pytest.mark.parametrize("args", [
    ("NN1", "power"),
    ("NN1", "lagrange"),
    ("NN6", "lagrange"),
    (1, 4, 2, 1),
    (2, 4, 2, 2),
], ids=["NN1-power", "NN1-lagrange", "NN6-lagrange", "planted-4x2x1", "planted-4x2x2"])
def test_screen_keeps_every_report_and_saves_evaluations(monkeypatch, args):
    make = _suite_program if isinstance(args[0], str) else _planted_program
    prog, cfg = make(*args)
    screened, calls = _solve_recording(monkeypatch, prog, cfg)
    monkeypatch.setattr(solver, "_DomainScreen", _NoScreen)
    unscreened, calls_unscreened = _solve_recording(monkeypatch, prog, cfg)
    assert screened == unscreened
    assert len(calls) < len(calls_unscreened)
    # the screen only skips points the unscreened solve evaluates and rejects
    rejected = dict(calls_unscreened)
    points = {key for key, _ in calls}
    assert points <= rejected.keys()
    assert all(rejected[key] for key in rejected.keys() - points)


# -- divergence exit -----------------------------------------------------------


def test_a_diverged_multiplier_ends_the_solve_at_its_first_crossing():
    # AC4 in the power basis: tr U passes U_DIVERGED while the iterate stalls
    prog, cfg = _suite_program("AC4", "power")
    report = solve_sof(prog, cfg)
    assert report.status == "diverged"
    assert report.outer_iters < cfg.max_outer
    assert len(report.history) == report.outer_iters
    # one outer iteration fewer ends at the cap, on the same trajectory
    capped = solve_sof(prog, dataclasses.replace(cfg, max_outer=report.outer_iters - 1))
    assert capped.status == "max-iters"
    assert capped.history == report.history[: capped.outer_iters]
