"""Penalty solver: derivatives, end-to-end behavior, and status reporting."""

import copy
import dataclasses
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermitesof import solver
from hermitesof.benchmarks import (
    NN6_ACHIEVABLE_GAIN, get_plant, hermite_form, run_single, suite_config, table1_suite,
)
from hermitesof.errors import BarrierDomainError, InputError
from hermitesof.hermite import HermiteForm, hermite_power, scaled_hermite
from hermitesof.polynomials import char_poly
from hermitesof.solver import (
    SofProgram,
    SolveConfig,
    _newton_inner,
    augmented_objective,
    constraint_eval,
    solve_sof,
    verify_solution,
)
from hermitesof.stability import TargetSpec, build_target, roots
from hermitesof.systems import SystemInstance

from conftest import pack_entries, relerr
from test_hermite import _planted_plant


NN1 = get_plant("NN1")
AC4 = get_plant("AC4").q


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
    target = build_target([], suite_config("AC4", "lagrange").target)
    H = scaled_hermite(AC4, target, part="re")
    return SofProgram(H, mu=1e-5, m=1, p=2)


def _k_squared_program():
    # H = [[-1 - k^2]] can never reach positive definiteness
    entries = [[{(0,): -1.0, (2,): -1.0}]]
    return SofProgram(pack_entries("power", entries, 1), mu=0.0, m=1, p=1)


# -- input checks -------------------------------------------------------------


def _refuse_evaluation(monkeypatch, name="augmented_objective", owner=solver):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(owner, name, refuse)
    return refuse


def test_solve_rejects_a_start_outside_the_gain_box():
    prog = SofProgram(hermite_power(char_poly(NN1)), mu=1e-3, m=1, p=2)
    with pytest.raises(InputError, match="k0 entry 20000 .* 10000"):
        solve_sof(prog, SolveConfig(k0=[0.0, 2e4]))


def test_solve_rejects_a_start_outside_the_barrier_domain():
    prog = SofProgram(hermite_power(char_poly(NN1)), mu=1e-3, m=1, p=2)
    # the largest eigenvalue the objective's domain test read, and its limit
    top = np.linalg.eigh(-(prog.h_eval([0.0, 30.0]) - 1e6 * np.eye(prog.H.n)))[0].max()
    limit = SolveConfig().p0 * (1.0 - 1e-12)
    assert top >= limit
    shown = (f"lam0 1000000 (given) lies outside the barrier domain at p0:"
             f" max eig(lam0*I - H(k0)) = {top:.17g} >= p0*(1 - 1e-12) = {limit:.17g}")
    with pytest.raises(InputError, match="^" + re.escape(shown) + "$"):
        solve_sof(prog, SolveConfig(k0=[0.0, 30.0], lam0=1e6))


def test_solve_accepts_a_start_past_the_gain_box_that_its_barrier_admits():
    prog, cfg = _suite_program("NN1", "lagrange")
    kb, p0 = cfg.k_bound, cfg.p0
    report = solve_sof(prog, dataclasses.replace(cfg, k0=[0.0, kb + p0 / 2]))
    assert report.outer_iters >= 1


def test_solve_refuses_a_start_past_the_barrier_of_the_gain_box():
    prog, cfg = _suite_program("NN1", "lagrange")
    kb, p0 = cfg.k_bound, cfg.p0
    k = kb + 2 * p0
    shown = (f"k0 entry {k:.17g} lies outside the gain box |k| <= {kb:.8g}: its barrier"
             f" at p0 admits |k| < k_bound + p0 = {kb + p0:.17g}")
    with pytest.raises(InputError, match="^" + re.escape(shown) + "$"):
        solve_sof(prog, dataclasses.replace(cfg, k0=[0.0, k]))


def test_a_returned_gain_is_a_valid_warm_start():
    # the gain box's barrier admits |k| < k_bound + p, so a solve may return
    # a gain just past the box, as NN1's first warm start does at numpy's
    # AVX-512 dispatch; a solve from that gain starts like any other
    prog, cfg = _suite_program("NN1", "lagrange")
    k = solve_sof(prog, cfg).k
    for _ in range(2):
        k = solve_sof(prog, dataclasses.replace(cfg, k0=k)).k
    assert np.isfinite(k).all()


@pytest.mark.parametrize("field, value", [
    ("k0", np.nan), ("k0", np.inf), ("k0", -np.inf),
    ("lam0", np.nan), ("lam0", np.inf), ("lam0", -np.inf),
])
def test_solve_refuses_a_non_finite_start_before_evaluating_it(monkeypatch, field, value):
    # NaN passes every domain test of the objective
    prog, cfg = _suite_program("NN1", "lagrange")
    start = {"k0": [0.0, value]} if field == "k0" else {"lam0": value}
    _refuse_evaluation(monkeypatch)
    with pytest.raises(InputError, match=f"^{field} .*must be finite$"):
        solve_sof(prog, dataclasses.replace(cfg, **start))


def test_solve_refuses_a_start_whose_h_overflows_before_evaluating_it(monkeypatch):
    # the default lam0 = min eig H(k0) - 1 needs a finite H(k0)
    prog, cfg = _suite_program("NN1", "lagrange")
    _refuse_evaluation(monkeypatch)
    with pytest.raises(InputError, match=r"^H\(k0\) is not finite"):
        solve_sof(prog, dataclasses.replace(cfg, k0=[0.0, 1e200]))


class _Started(Exception):
    """Raised in place of the first inner solve: the start was accepted."""


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("edge", ["gain box", "lam0"])
def test_solve_refuses_exactly_the_starts_its_first_evaluation_rejects(monkeypatch, edge, seed):
    prog, cfg = _suite_program("NN1", "lagrange")
    kb, p0, n, mp = cfg.k_bound, cfg.p0, prog.H.n, prog.mp
    rng = np.random.default_rng([32, seed])

    def started(*args):
        raise _Started

    monkeypatch.setattr(solver, "_newton_inner", started)
    # seeded offsets within 2*p0 of the edge, and the edge itself give or
    # take an ulp or a rounding of the domain limit p*(1 - 1e-12)
    deltas = np.append(rng.uniform(-2 * p0, 2 * p0, 24),
                       p0 * (1.0 + np.array([-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9])))
    refused = []
    for delta in deltas:
        k0 = rng.uniform(-1.0, 1.0, mp) * 10.0 ** rng.uniform(0, 4, mp)
        if edge == "gain box":
            k0[rng.integers(mp)] = rng.choice([-1.0, 1.0]) * (kb + delta)
        eig_min = float(np.linalg.eigvalsh(prog.h_eval(k0)).min())
        lam0 = eig_min - 1.0 if edge == "gain box" else eig_min + p0 + delta
        try:
            augmented_objective(prog, np.append(k0, lam0), np.eye(n) / n, p0, k_bound=kb)
            rejected = False
        except BarrierDomainError:
            rejected = True
        with pytest.raises((InputError, _Started)) as outcome:
            solve_sof(prog, dataclasses.replace(cfg, k0=k0, lam0=lam0))
        assert (outcome.type is InputError) == rejected, (k0.tolist(), lam0)
        if rejected:
            assert re.match(("k0 entry " if edge == "gain box" else "lam0 "), str(outcome.value))
        refused.append(rejected)
    assert any(refused) and not all(refused)


@pytest.mark.parametrize("name, value", [
    ("k_bound", np.inf), ("k_bound", 0.0), ("k_bound", -1.0), ("k_bound", np.nan),
    ("u0", np.inf), ("u0", 0.0), ("u0", -1.0), ("u0", np.nan),
    ("sigma", 5.0), ("sigma", 0.0), ("sigma", -0.3), ("sigma", np.nan),
    pytest.param("k0", np.zeros((1, 2)), id="k0-2d"),
    ("max_outer", -3), ("max_outer", 2.5),
])
def test_solve_rejects_a_setting_outside_its_range(monkeypatch, name, value):
    (system, plant, cfg), = [
        row for row in table1_suite() if row[0] == "NN1" and row[2].basis == "power"
    ]
    prog, scfg = _suite_program("NN1", "power")
    scfg = dataclasses.replace(scfg, **{name: value})
    shown = f"of shape {value.shape}" if name == "k0" else f"{value:.8g}"
    monkeypatch.setattr(SofProgram, "h_eval", _refuse_evaluation(monkeypatch))
    with pytest.raises(InputError, match="^" + re.escape(f"{name} {shown} must")):
        solve_sof(prog, scfg)
    row = run_single(system, plant, dataclasses.replace(cfg, k0=scfg.k0, solver=scfg))
    assert row.status.startswith(f"error: {name} {shown} must")


def test_program_rejects_a_form_over_real_and_imaginary_nodes():
    # q(NN6_ACHIEVABLE_GAIN) has a root at 2.71: its seven real nodes and
    # the pair +-2.7034j certify nothing
    q = get_plant("NN6").q
    H = scaled_hermite(q, q.at_gains(NN6_ACHIEVABLE_GAIN))
    assert {"real", "imag"} <= set(H.nodes.kinds)
    with pytest.raises(InputError, match=r"^nodes 0\+0j, .*2\.7033648j mix real and imaginary"):
        SofProgram(H, mu=1e-5, m=2, p=2)


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


@pytest.mark.parametrize("name, value", [
    ("p", np.nan), ("p", 0.0), ("p", -1.0), ("p", np.inf),
    ("k_bound", np.nan), ("k_bound", 0.0), ("k_bound", -1.0), ("k_bound", np.inf),
])
def test_augmented_objective_rejects_a_penalty_or_box_outside_its_range(name, value):
    # NN1's power program at k = (0, 30), inside the barrier domain: a bad
    # penalty or box raises before numpy computes with it, so never warns
    prog = SofProgram(hermite_power(char_poly(NN1)), mu=1e-3, m=1, p=2)
    x = [0.0, 30.0, float(np.linalg.eigvalsh(prog.h_eval([0.0, 30.0])).min()) - 1.0]
    U = np.eye(prog.H.n) / prog.H.n
    kwargs = {"p": 1e-3, "k_bound": 1e4}
    assert np.isfinite(augmented_objective(prog, x, U, **kwargs)[0])
    kwargs[name] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phase in (None, "value", "gradient"):
            with pytest.raises(InputError, match="^" + re.escape(f"{name} {value:.8g} must")):
                augmented_objective(prog, x, U, phase=phase, **kwargs)


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


def _objective(prog, x):
    """f = mu*||k|| - lambda and its gradient (mu*k/||k||, -1)."""
    k, lam = x[:-1], x[-1]
    nk = float(np.linalg.norm(k))
    f = prog.mu * nk - lam
    g = np.zeros(x.size)
    if nk > 0:
        g[:-1] = prog.mu * k / nk
    g[-1] = -1.0
    return f, g


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
            scaled_hermite(
                get_plant("NN6").q,
                build_target([], suite_config("NN6", "lagrange").target), part="im",
            ),
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
    # the report reads the last outer record
    assert first.history[-1] == (first.lam, first.min_eig, first.objective)
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


def test_verify_solution_keeps_a_root_whose_polish_overflows():
    # q(s) at K = 1e160 has a root near -1e160, where q and q' overflow;
    # the other two poles are 3.75 and 0.25
    poles, stable, margin = verify_solution(NN1.q, [[1e160, 1e160]])
    assert np.isfinite(poles).all() and not stable
    for want in (3.75, 0.25):
        assert np.min(np.abs(poles - want)) <= 1e-8 * want
    assert relerr(margin, 3.75) <= 1e-8


def test_verify_solution_refuses_gains_that_overflow_q():
    # q(K) at 1e308 overflows: the gains are refused by name; the caller
    # decides whether numpy warns on the way (the CLI does not)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError, match=r"^gains K = 1e\+308,-1e\+308 give a non-finite"):
            verify_solution(NN1.q, [[1e308, -1e308]])


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
        fun_grad, x0, 1.5, np.array([1e-9, 0.0]), 1e-6,
        lambda x: lambda Y: np.zeros(len(Y), bool),
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


def test_a_solve_evaluates_the_partials_of_h_only_inside_the_objective(monkeypatch):
    # the outer records and the report read H(k) alone; constraint_eval,
    # h_row and partial_rows, which build every dH/dk_l, serve
    # augmented_objective.  h_row runs inside each call.  partial_rows runs
    # once for each point whose gradient the solve uses: inside the call
    # for each outer start and each probe inside the domain, and in the
    # gradient phase run after the call returns for each accepted
    # line-search step.  A rejected point, and a step that fails Armijo's
    # test, build no partial.
    prog, cfg = _suite_program("NN1", "power")
    expected = pickle.dumps(solve_sof(prog, cfg))
    evaluate, stack = solver.augmented_objective, SofProgram.h_row
    partials, armijo = SofProgram.partial_rows, solver._armijo
    calls, searches, inside = [], [], []

    def objective(prog, x, U, p, **kwargs):
        call = {"x": np.asarray(x).tobytes(), "phase": kwargs.get("phase"),
                "returned": False, "partials": 0}
        calls.append(call)
        inside.append(("call", call))
        try:
            out = evaluate(prog, x, U, p, **kwargs)
        finally:
            inside.pop()
        call["returned"] = True
        if call["phase"] != "value":
            return out

        def gradient():
            inside.append(("gradient", call))
            try:
                return out[1]()
            finally:
                inside.pop()

        return out[0], gradient

    def line_search(fun_grad, x, f, d, slope, screen):
        first = len(calls)
        out = armijo(fun_grad, x, f, d, slope, screen)
        accepted = None if out[0] is None else (x + out[0] * d).tobytes()
        searches.append((first, len(calls), accepted))
        return out

    def h_row(self, k):
        assert inside and inside[-1][0] == "call", "h_row was called outside augmented_objective"
        return stack(self, k)

    def partial_rows(self, v, S):
        assert inside, "partial_rows was called outside augmented_objective"
        inside[-1][1]["partials"] += 1
        return partials(self, v, S)

    _refuse_evaluation(monkeypatch, "constraint_eval")
    monkeypatch.setattr(solver, "augmented_objective", objective)
    monkeypatch.setattr(solver, "_armijo", line_search)
    monkeypatch.setattr(SofProgram, "h_row", h_row)
    monkeypatch.setattr(SofProgram, "partial_rows", partial_rows)
    report = solve_sof(prog, cfg)
    assert pickle.dumps(report) == expected
    # the line searches evaluate values only, and build the partials of the
    # step they accept, the last one they evaluate
    in_search = set()
    for first, end, accepted in searches:
        steps = calls[first:end]
        assert steps and all(c["phase"] == "value" for c in steps)
        used = [c for c in steps if c["partials"]]
        if accepted is None:
            assert used == []
        else:
            assert used == [steps[-1]] and steps[-1]["partials"] == 1
            assert steps[-1]["x"] == accepted and steps[-1]["returned"]
        in_search.update(range(first, end))
    # the outer starts and the probes build the partials of every point
    # they evaluate inside the domain, once
    others = [c for i, c in enumerate(calls) if i not in in_search]
    assert [c["phase"] for c in others].count(None) == report.outer_iters
    assert all(c["phase"] in (None, "gradient") for c in others)
    assert all(c["partials"] == c["returned"] for c in others)
    # the solve has rejected points, and steps that fail Armijo's test
    assert not all(c["returned"] for c in calls)
    assert any(c["returned"] and not c["partials"] for c in calls)


def test_max_inner_caps_each_outer_iteration(monkeypatch):
    monkeypatch.setattr(solver, "MAX_INNER", 3)
    cfg = SolveConfig(k0=[0.0, 0.0], u0=1.0 / 9, max_outer=4)
    report = solve_sof(_ac4_scaled_program(), cfg)
    assert report.outer_iters == 4
    assert report.inner_iters <= solver.MAX_INNER * report.outer_iters


def test_inner_loop_stops_on_its_tolerance_before_the_cap(monkeypatch):
    (name, plant, cfg), = [
        row for row in table1_suite() if row[0] == "NN1" and row[2].basis == "lagrange"
    ]
    met = []

    def inner(fun_grad, x0, f, g, tol, screen_at):
        out = _newton_inner(fun_grad, x0, f, g, tol, screen_at)
        _, f, g, *_ = out
        met.append(np.linalg.norm(g) <= tol * (1.0 + abs(f)))
        return out

    monkeypatch.setattr(solver, "_newton_inner", inner)
    row = run_single(name, plant, dataclasses.replace(cfg, solver=SolveConfig()))
    assert row.status == "converged"
    assert row.inner < 100 * row.outer
    # an inner solve that stops on an unchanged point also ends below the
    # cap: at least one has to meet the tolerance itself
    assert len(met) == row.outer and any(met)


def _reference_newton_inner(fun_grad, x0, f, g, tol, max_iter, screen_at=None):
    """_newton_inner without its stop on an unchanged point: it runs on
    until the tolerance, a failed line search or the cap."""
    x = np.asarray(x0, dtype=float)
    iters = trials = 0
    failed = False
    for _ in range(max_iter):
        if np.linalg.norm(g) <= tol * (1.0 + abs(f)):
            break
        screen = screen_at(x) if screen_at is not None else None
        H = solver._fd_hessian(fun_grad, x, g, screen)
        w, Q = np.linalg.eigh(H)
        wmod = np.maximum(np.abs(w), 1e-8 * max(1.0, float(np.abs(w).max())))
        d = -(Q @ ((Q.T @ g) / wmod))
        slope = float(g @ d)
        if slope >= 0:
            d = -g
            slope = float(g @ d)
        step, f_new, g_new, tries = solver._armijo(fun_grad, x, f, d, slope, screen)
        trials += tries
        iters += 1
        if f_new is None:
            failed = True
            break
        x = x + step * d
        f, g = f_new, g_new
    return x, f, g, iters, trials, failed


# -- domain screen -------------------------------------------------------------

MIRROR = TargetSpec(mode="mirror-shift", shift=-0.5)


def _suite_program(name, basis):
    """The program and solver settings of a Table-1 row, as run_single builds
    them."""
    (plant, cfg), = [(pl, c) for n, pl, c in table1_suite() if n == name and c.basis == basis]
    q, m, p = plant.q, plant.m, plant.p
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
    # entries of either sign with |k_i| from 1e-3 to 1e4
    gains += [rng.choice([-1.0, 1.0], prog.mp) * 10.0 ** rng.uniform(-3.0, 4.0, prog.mp)
              for _ in range(20)]
    for k in gains:
        H = prog.h_eval(k)
        assert H.shape == (prog.H.n, prog.H.n)
        assert H.tobytes() == prog.H.eval_at(k).tobytes() == prog.h_row(k)[0][0].tobytes()


@pytest.mark.parametrize("which", [0, 1, 3, 4, 5],
                         ids=["NN1-power", "NN1-lagrange", "AC4-lagrange", "NN6-lagrange",
                              "planted-4x2x2"])
def test_a_solve_evaluates_h_only_through_its_program(monkeypatch, which):
    # the form's evaluator serves display, cond and scaling; a solve reads
    # H(k) from the program's compiled table alone
    prog, cfg = SCREENED[which]
    expected = pickle.dumps(solve_sof(prog, cfg))
    _refuse_evaluation(monkeypatch, "eval_at", HermiteForm)
    assert pickle.dumps(solve_sof(prog, cfg)) == expected


@pytest.mark.parametrize("terms, pinned", [
    ({(0,): 1.0, (1,): 1.0}, True),
    ({(0,): 1.0, (1,): -1.0}, True),
    ({(0,): 1.0, (1,): 1.0, (2,): -1.0}, False),
], ids=["k-up", "k-down", "interior"])
def test_box_active_flags_a_gain_that_the_gain_box_stopped(terms, pinned):
    # H = [[1 +- k]]: lambda <= 1 +- k grows without bound, so only the box
    # stops k; H = [[1 + k - k^2]] has its optimum at k = 0.45, inside it
    prog = SofProgram(pack_entries("power", [[terms]], 1), mu=0.1, m=1, p=1)
    report = solve_sof(prog, SolveConfig(k_bound=10.0))
    assert report.status == "converged"
    assert report.box_active is pinned
    assert bool(abs(report.k[0]) > 9.0) is pinned


def _rejected(prog, y, p, k_bound):
    try:
        augmented_objective(prog, y, np.eye(prog.H.n), p, k_bound=k_bound)
    except BarrierDomainError:
        return True
    return False


def _coalescing_program():
    """H(k) = R diag(2 + k_1, 2 + k_2, 5) R' for a fixed rotation R: at
    k_1 = k_2 two eigenvalues agree up to rounding."""
    R = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) ** 2)[0]
    parts = {(0, 0): R @ np.diag([2.0, 2.0, 5.0]) @ R.T,
             (1, 0): np.outer(R[:, 0], R[:, 0]), (0, 1): np.outer(R[:, 1], R[:, 1])}
    entries = [[{e: M[i, j] for e, M in parts.items()} for j in range(3)] for i in range(3)]
    return SofProgram(pack_entries("power", entries, 2), mu=1e-3, m=1, p=2)


def _entry_points(prog, x, U, p, **kwargs):
    """The plain call, the value phase with its gradient callable, and the
    gradient phase of augmented_objective at x: each as (value bytes,
    gradient bytes), or as the message of its BarrierDomainError."""
    out = []
    for phase in (None, "value", "gradient"):
        try:
            val, grad = augmented_objective(prog, x, U, p, phase=phase, **kwargs)
        except BarrierDomainError as exc:
            out.append(str(exc))
            continue
        grad = grad() if phase == "value" else grad
        out.append((None if val is None else np.float64(val).tobytes(), grad.tobytes()))
    return out


@pytest.mark.parametrize("which", range(len(SCREENED) + 2))
def test_the_value_and_gradient_phases_are_the_plain_call_bit_for_bit(monkeypatch, which, rng):
    # the five Table-1 programs, planted 4x2x2, a program without gains and
    # one whose spectrum coalesces: inside the barrier domain, outside it
    # and past the gain box, without a box, with one and with multipliers
    if which < len(SCREENED):
        prog = SCREENED[which][0]
    elif which == len(SCREENED):
        A = rng.standard_normal((3, 3))
        prog = SofProgram(_const_form(A @ A.T + np.eye(3)), mu=0.0, m=1, p=0)
    else:
        prog = _coalescing_program()
    n, mp, kb = prog.H.n, prog.mp, 1e4
    B = rng.standard_normal((n, n))
    U = B @ B.T + np.eye(n)
    U /= np.trace(U)
    boxes = [{}, {"k_bound": kb}, {"k_bound": kb, "u_box": rng.uniform(0.1, 10.0, (2, mp))}]
    seen = {"inside": 0, "barrier": 0, "gain box": 0, "coalesced": 0}
    for scale in (0.1, 1.0, 30.0):
        for _ in range(3):
            p = 10.0 ** rng.uniform(-6.0, -1.0)
            k = scale * rng.standard_normal(mp)
            if which == len(SCREENED) + 1:
                k[1] = k[0]
            H = prog.h_eval(k)
            eig = np.linalg.eigvalsh(H)
            lams = [eig.min() - p * rng.uniform(0.01, 2.0) - 1e-12 * np.abs(H).sum(),
                    eig.min() + p * rng.uniform(1.5, 3.0), eig.max() + 2.0 * p + 1.0]
            past = k.copy()
            if mp:
                past[rng.integers(mp)] = rng.choice([-1.0, 1.0]) * kb * (1.0 + rng.uniform(0, 1e-3))
            for gains, lam in [(k, lam) for lam in lams] + [(past, lams[0])]:
                x = np.append(gains, lam)
                for box in boxes:
                    plain, value, gradient = _entry_points(prog, x, U, p, **box)
                    assert value == plain
                    if isinstance(plain, str):
                        assert gradient == plain
                        seen["gain box" if "gain box" in plain else "barrier"] += 1
                        continue
                    assert gradient == (None, plain[1])
                    seen["inside"] += 1
                    inside = (x, p, box)
                    w = np.linalg.eigvalsh(-(H - lam * np.eye(n)))
                    W = max(-w[0], w[-1])
                    seen["coalesced"] += np.diff(w).min(initial=np.inf) <= 4e-12 * (1.0 + W)
    assert seen["inside"] and seen["barrier"]
    assert bool(seen["gain box"]) == (mp > 0)
    assert bool(seen["coalesced"]) == (which == len(SCREENED) + 1)
    x, p, box = inside
    # the phase is checked before any work: H(k) is never built
    _refuse_evaluation(monkeypatch, "h_row", SofProgram)
    with pytest.raises(InputError, match="^phase 'both' must"):
        augmented_objective(prog, x, U, p, phase="both", **box)


@settings(max_examples=120, deadline=None)
@given(
    which=st.integers(0, len(SCREENED) - 1),
    seed=st.integers(0, 2**32 - 1),
    log_p=st.floats(-9.0, 0.0),
    gain_scale=st.sampled_from([0.1, 1.0, 30.0, "box"]),
    lam_only=st.booleans(),
    edge_log_p=st.floats(-12.0, -6.0),
    edge_gap=st.floats(0.01, 4.0),
)
def test_screen_flags_only_points_augmented_objective_rejects(
    which, seed, log_p, gain_scale, lam_only, edge_log_p, edge_gap
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
    screen = prog.screen(x, p, kb)
    flags = screen(np.vstack([Y, far]))
    assert flags[-1]  # the screen is not trivially silent
    for y in Y[flags[:-1]]:
        assert _rejected(prog, y, p, kb)
    # the probes _fd_hessian screens before it evaluates any, from a base
    # point edge_gap * h0 = edge_gap * 1e-6 * (1 + |lambda|) below the edge
    # of a domain of tiny width p
    p = 10.0**edge_log_p
    lam = np.linalg.eigvalsh(H).min() - 1e-12 * np.abs(H).sum()
    x = np.append(k, lam - edge_gap * 1e-6 * (1.0 + abs(lam)))
    assert not _rejected(prog, x, p, kb)
    screen = prog.screen(x, p, kb)
    screened = []

    def recorded(probes):
        screened.append((probes.copy(), screen(probes)))
        return screened[-1][1]

    def unevaluated(y):
        raise BarrierDomainError("outside")

    solver._fd_hessian(unevaluated, x, np.zeros(x.size), recorded)
    (probes, flags), = screened
    assert len(probes) == 40 * x.size
    for y in probes[flags]:
        assert _rejected(prog, y, p, kb)


def test_a_program_without_gains_takes_the_box_code_with_an_empty_box(rng):
    # mp = 0: the gain box has no entries, so it changes no value, gradient
    # or flag, on either side of the barrier's domain limit
    A = rng.standard_normal((3, 3))
    prog = SofProgram(_const_form(A @ A.T + np.eye(3)), mu=0.0, m=1, p=0)
    U, p = np.eye(3) / 3.0, 1e-3
    edge = float(np.linalg.eigvalsh(prog.h_eval([])).min())
    screen = prog.screen(np.array([edge - 1.0]), p, 1e4)
    shares = [-10.0, -1.0, 0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 1e3]
    Y = np.array([[edge + t * p] for t in shares])
    flags = screen(Y)
    assert flags[-1]  # the screen is not trivially silent
    for y, flagged in zip(Y, flags):
        if _rejected(prog, y, p, 1e4):
            with pytest.raises(BarrierDomainError):
                augmented_objective(prog, y, U, p)
            continue
        assert not flagged
        val, grad = augmented_objective(prog, y, U, p, k_bound=1e4, u_box=np.ones((2, 0)))
        ref_val, ref_grad = augmented_objective(prog, y, U, p)
        assert (val, grad.tobytes()) == (ref_val, ref_grad.tobytes())
    assert not all(flags) and any(_rejected(prog, y, p, 1e4) for y in Y)


@pytest.mark.parametrize("which", range(len(SCREENED)))
def test_a_screen_keeps_its_base_point(which):
    # flags built at x1 give their first verdicts after flags are built at
    # another base point, penalty and lambda: each depends on its own alone
    prog, cfg = SCREENED[which]
    rng = np.random.default_rng([17, which])
    kb = cfg.k_bound
    k1, k2 = rng.standard_normal(prog.mp), 3.0 * rng.standard_normal(prog.mp)
    edge = np.linalg.eigvalsh(prog.h_eval(k1)).min()
    # lambda past the edge at k1 by 1e-4 up to 1e3, at k1 and at k2
    past = edge + np.logspace(-4.0, 3.0, 15)
    Y = np.vstack([np.column_stack([np.tile(k, (15, 1)), past]) for k in (k1, k2)])
    first = prog.screen(np.append(k1, edge - 1.0), 1e-3, kb)
    verdicts = first(Y)
    second = prog.screen(np.append(k2, edge - 50.0), 10.0, kb)
    assert (second(Y) != verdicts).any()  # the two screens differ on Y
    assert first(Y).tolist() == verdicts.tolist()


def test_trial_sequences_are_screened_once_before_their_first_evaluation():
    # a line search walks the steps its flags leave, in order, takes the
    # value of each and builds the gradient of the step it accepts only
    step_of = {s: j for j, s in enumerate(solver._STEPS.tolist())}
    evaluated, built, asked = [], [], []

    def fun_grad(y, phase=None):
        assert phase == "value"
        j = step_of[float(y[0])]
        evaluated.append(j)
        if j in outside:
            raise BarrierDomainError("outside")
        return (-1.0 if j >= passes else 0.0), lambda: built.append(j) or np.ones(1)

    def screen(rows):
        asked.append((list(evaluated), [step_of[float(y[0])] for y in rows]))
        return np.array([step_of[float(y[0])] in flags for y in rows])

    def search(screened):
        evaluated.clear()
        built.clear()
        asked.clear()
        return solver._armijo(fun_grad, np.zeros(1), 0.0, np.ones(1), -1.0,
                              screen if screened else lambda Y: np.zeros(len(Y), bool))

    # steps 1, 2, 4 and 6 are outside, the screen flags 2 and 6 (only
    # steps outside), and the Armijo test passes from step 7 on
    outside, flags, passes = {1, 2, 4, 6}, {2, 6}, 7
    out = search(True)
    assert out[0] == solver._STEPS[7] and out[1] == -1.0 and out[3] == 8
    assert out[2].tolist() == [1.0] and built == [7]
    assert evaluated == [0, 1, 3, 4, 5, 7]  # flagged steps never
    # the walk stops where the Armijo test passes
    passes = 0
    assert search(True)[3] == 1
    assert evaluated == [0] and built == [0]
    passes = 7
    assert search(False)[3] == 8
    assert evaluated == list(range(8)) and built == [7]  # no flags: every step

    # the line search asks the screen once, before its first evaluation,
    # about every step; steps 0, 1, 3, 4 and 8 are outside, the screen
    # proves 1 and 4, and the Armijo test passes from step 6 on
    outside, flags, passes = {0, 1, 3, 4, 8}, {1, 4}, 6
    every_step = list(range(solver.MAX_LINESEARCH))
    for screened, walk in ((True, [0, 2, 3, 5, 6]), (False, [0, 1, 2, 3, 4, 5, 6])):
        out = search(screened)
        assert out[0] == solver._STEPS[passes] and out[1] == -1.0 and out[3] == passes + 1
        assert evaluated == walk and built == [passes]
        assert asked == ([([], every_step)] if screened else [])
    # no step passes: the skipped steps count as trials too
    passes = solver.MAX_LINESEARCH
    out = search(True)
    assert out == (None, None, None, solver.MAX_LINESEARCH)
    assert evaluated == [j for j in every_step if j not in (1, 4)] and built == []
    assert asked == [([], every_step)]


def _reference_fd_hessian(fun_grad, x, g, screen=None):
    """_fd_hessian as a walk over all 40 probes of each coordinate, built up
    front (+h, -h per level, h from h0 = 1e-6*(1 + |x_i|) by products of
    1/8): the screen is asked once about every probe, coordinate by
    coordinate, before any is evaluated, and then each coordinate's
    unflagged probes are evaluated in order up to the first inside the
    domain."""
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
    skip = np.zeros((n, 40), dtype=bool)
    if screen is not None:
        skip = np.asarray(screen(Y.reshape(n * 40, n))).reshape(n, 40)
    for i in range(n):
        for j in range(40):
            if skip[i, j]:
                continue
            try:
                _, gp = fun_grad(Y[i, j])
            except BarrierDomainError:
                continue
            H[:, i] = (gp - g) / offsets[i, j]
            break
    return 0.5 * (H + H.T)


def _fd_walk(fd_hessian, x, g, probe, rejected, flagged, screened):
    """fd_hessian on a stub objective that rejects the probes (i, j) in
    `rejected`, with a stub screen that flags those in `flagged`; returns
    the matrix bytes, the probes evaluated and, per screen call, the count
    of probes evaluated before it and the probes it was asked about, in
    order."""
    A = np.arange(x.size**2, dtype=float).reshape(x.size, x.size) / 7.0
    evaluated, asked = [], []

    def fun_grad(y):
        assert y.tobytes() in probe, "not one of the 40 probes of a coordinate"
        evaluated.append(probe[y.tobytes()])
        if probe[y.tobytes()] in rejected:
            raise BarrierDomainError("outside")
        return 0.0, A @ y + np.sin(3.0 * y)

    def screen(rows):
        asked.append((len(evaluated), [probe[y.tobytes()] for y in rows]))
        return np.array([probe[y.tobytes()] in flagged for y in rows])

    H = fd_hessian(fun_grad, x, g, screen if screened else lambda Y: np.zeros(len(Y), bool))
    return H.tobytes(), evaluated, asked


def test_fd_hessian_walks_the_probes_of_the_40_probe_walk(rng):
    for case in range(30):
        n = int(rng.integers(1, 5))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        g = rng.standard_normal(n)
        # probe (i, j) of coordinate i, keyed by its bytes
        h0 = 1e-6 * (1.0 + np.abs(x))
        probe, keys = {}, []
        for i in range(n):
            for j in range(40):
                y = x.copy()
                y[i] += (-1.0) ** j * h0[i] * 0.125 ** (j // 2)
                probe[y.tobytes()] = (i, j)
                keys.append(y.tobytes())
        # a probe below an ulp of x_i is x itself: the last (i, j) names it
        every_probe = [probe[key] for key in keys]
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
            # one screen call about every probe before any evaluation; the
            # unflagged probes of each coordinate evaluated in order up to
            # its first inside the domain, the flagged ones never
            skipped = flagged if screened else set()
            walk = []
            for i in range(n):
                for ij in every_probe[40 * i : 40 * (i + 1)]:
                    if ij not in skipped:
                        walk.append(ij)
                        if ij not in rejected:
                            break
            assert walked[1] == walk
            assert walked[2] == ([(0, every_probe)] if screened else [])


def test_line_search_steps_are_the_products_of_the_backtracking_factor():
    steps = np.full(solver.MAX_LINESEARCH, solver.BACKTRACK)
    steps[0] = 1.0
    assert solver._STEPS.tobytes() == np.cumprod(steps).tobytes()


def _no_screen(x, p, k_bound):
    """A domain screen that flags nothing."""
    return lambda Y: np.zeros(len(Y), dtype=bool)


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
    ("AC4", "power"),
    ("NN6", "lagrange"),
    (1, 4, 2, 1),
    (2, 4, 2, 2),
], ids=["NN1-power", "NN1-lagrange", "AC4-power", "NN6-lagrange", "planted-4x2x1",
        "planted-4x2x2"])
def test_screen_keeps_every_report_and_saves_evaluations(monkeypatch, args):
    make = _suite_program if isinstance(args[0], str) else _planted_program
    prog, cfg = make(*args)
    asked = []

    screen = prog.screen

    def counted(x, p, k_bound):
        flags = screen(x, p, k_bound)
        return lambda Y: asked.append(len(Y)) or flags(Y)

    monkeypatch.setattr(prog, "screen", counted)
    screened, calls = _solve_recording(monkeypatch, prog, cfg)
    # each inner iteration asks about all of its probes, then about all of
    # its line-search steps
    inner = pickle.loads(screened).inner_iters
    assert asked == [40 * (prog.mp + 1), solver.MAX_LINESEARCH] * inner
    monkeypatch.setattr(prog, "screen", _no_screen)
    unscreened, calls_unscreened = _solve_recording(monkeypatch, prog, cfg)
    assert screened == unscreened
    assert len(calls) < len(calls_unscreened)
    if args in (("NN1", "power"), ("NN1", "lagrange"), ("AC4", "power")):
        # the rows whose rejections were mostly first probes and first
        # steps: the screen skips at least 95 % of them
        left = sum(rejected for _, rejected in calls)
        assert left <= 0.05 * sum(rejected for _, rejected in calls_unscreened)
    # the screen only skips points the unscreened solve evaluates and rejects
    rejected = dict(calls_unscreened)
    points = {key for key, _ in calls}
    assert points <= rejected.keys()
    assert all(rejected[key] for key in rejected.keys() - points)


# -- inner stop on an unchanged point --------------------------------------------


@pytest.mark.parametrize("args", [
    ("NN1", "power"),
    ("NN1", "lagrange"),
    (1, 4, 2, 1),
    (2, 4, 2, 2),
], ids=["NN1-power", "NN1-lagrange", "planted-4x2x1", "planted-4x2x2"])
def test_an_inner_solve_stops_only_where_every_later_iteration_repeats(monkeypatch, args):
    make = _suite_program if isinstance(args[0], str) else _planted_program
    prog, cfg = make(*args)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_newton_inner", lambda fun_grad, x0, f, g, tol, screen_at:
                   _reference_newton_inner(fun_grad, x0, f, g, tol, solver.MAX_INNER, screen_at))
        reference = solve_sof(prog, cfg)
    repeats = []

    def inner(fun_grad, x0, f, g, tol, screen_at):
        out = _newton_inner(fun_grad, x0, f, g, tol, screen_at)
        x, f, g, iters, _, failed = out
        if not failed and iters < solver.MAX_INNER and np.linalg.norm(g) > tol * (1.0 + abs(f)):
            # stopped on an unchanged point: one more iteration of the
            # reference, under the same U and p, lands on it again
            x1, f1, g1, *_ = _reference_newton_inner(fun_grad, x, f, g, tol, 1, screen_at)
            repeats.append((x1.tobytes(), f1, g1.tobytes()) == (x.tobytes(), f, g.tobytes()))
        return out

    monkeypatch.setattr(solver, "_newton_inner", inner)
    report = solve_sof(prog, cfg)
    counts = ("inner_iters", "linesearch_steps")
    for name in (f.name for f in dataclasses.fields(report)):
        ours, theirs = getattr(report, name), getattr(reference, name)
        if name in counts:
            assert ours <= theirs
        else:
            assert pickle.dumps(ours) == pickle.dumps(theirs), name
    assert all(repeats)
    # the counts fall exactly when some inner solve stopped this way
    assert bool(repeats) == (report.inner_iters < reference.inner_iters)
    if args == ("NN1", "power"):
        assert repeats


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
