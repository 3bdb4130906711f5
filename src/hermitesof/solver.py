"""Local penalty / augmented-Lagrangian solver for the SOF matrix inequality.

Decision vector x = (k, lambda); objective mu*||k|| - lambda subject to
H(k) - lambda*I >= 0.  The constraint is handled through a shifted spectral
log barrier phi(t) = -p*log(1 - t/p) with multiplier and penalty updates in
an outer loop and, inside, damped Newton steps on a finite-differenced
Hessian with Armijo backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierDomainError, InputError
from .hermite import HermiteForm
from .polynomials import CharPoly, char_poly, vec_gain
from .stability import roots as poly_roots
from .systems import SystemInstance


@dataclass
class SofProgram:
    """min mu*||k|| - lambda  s.t.  H(k) - lambda*I >= 0."""

    H: HermiteForm
    mu: float = 0.0
    m: int = 1  # gain matrix shape for reporting; mp = m * p
    p: int | None = None

    def __post_init__(self):
        if not self.mu >= 0:
            raise InputError(f"mu {self.mu:.8g} must be non-negative")
        self.mp = self.H.nvars
        if self.p is None:
            if self.mp % self.m != 0:
                raise InputError("gain shape does not divide the variable count")
            self.p = self.mp // self.m
        if self.m * self.p != self.mp:
            raise InputError("m*p must equal the gain-variable count")
        E, C = self.H.E, self.H.C
        n = self.H.n
        # H, then dH/dk_l: the monomials with k_l in them, that exponent
        # lowered by one and the coefficient multiplied by it
        blocks = [(E, C)]
        for l in range(self.mp):
            rows = E[:, l] > 0
            El = E[rows]
            El[:, l] -= 1
            blocks.append((El, C[rows] * E[rows, l, None, None]))
        # the blocks share most monomials: each call evaluates every
        # distinct one once and gathers the values per block
        index: dict[tuple, int] = {}
        self._terms = []
        for Eb, Cb in blocks:
            idx = [index.setdefault(e, len(index)) for e in map(tuple, Eb.tolist())]
            C2 = np.ascontiguousarray(Cb.reshape(len(Cb), n * n))
            self._terms.append((np.array(idx, dtype=np.intp), C2))
        self._E = np.array(list(index), dtype=E.dtype).reshape(len(index), self.mp)
        self._eye = np.eye(n)
        # H and each dG/dx_i flattened, the last row dG/dlambda = -I
        self._stack = np.zeros((self.mp + 2, n * n))
        self._stack[-1] = -self._eye.ravel()

    def h_eval(self, k) -> np.ndarray:
        return self.eval_stack(k)[0].reshape(self._eye.shape)

    def eval_stack(self, k) -> np.ndarray:
        """H(k) and every dH/dk_l flattened, then -I: (mp+2, n*n)."""
        v = (np.asarray(k, dtype=float) ** self._E).prod(axis=1)
        out = self._stack.copy()
        for row, (idx, C2) in zip(out, self._terms):
            np.dot(v[idx], C2, out=row)
        return out


# the convergence, line-search and penalty constants of the method
TOL_FEAS = 1e-6  # largest constraint violation max eig(-G) at a converged point
TOL_STAT = 1e-3  # outer stationarity test ||grad|| <= TOL_STAT * (1 + |f|)
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_LINESEARCH = 60
P_MIN = 1e-12  # floor of the penalty parameter
STALL_WINDOW = 10  # outer iterations with lambda pinned <= 0 before giving up


@dataclass
class SolveConfig:
    k0: np.ndarray | list | None = None
    lam0: float | None = None  # default: min-eig(H(k0)) - 1
    p0: float = 0.001
    sigma: float = 0.3
    tol_outer: float = 1e-7
    tol_inner: float = 1e-6
    max_outer: int = 50
    max_inner: int = 100
    # gains are boxed to |k_i| <= k_bound so programs whose margin grows
    # without bound (e.g. a diagonal entry linear in a gain) still admit a
    # KKT point; the box is handled with the same shifted penalty
    k_bound: float = 1e4
    u0: float | None = None  # initial multiplier U = u0*I; default 1/n


@dataclass
class SolveReport:
    K: np.ndarray
    lam: float
    outer_iters: int
    inner_iters: int
    linesearch_steps: int
    status: str
    min_eig: float = float("nan")
    objective: float = float("nan")
    k: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # one (lam, min eig of G = H(k) - lam*I, f) triple per outer iteration
    history: list = field(default_factory=list)


def constraint_eval(prog: SofProgram, x) -> tuple[np.ndarray, np.ndarray]:
    """G(x) = H(k) - lambda*I and its exact partial derivatives, stacked
    (mp+1, n, n) with dG/dlambda = -I last."""
    x = np.asarray(x, dtype=float)
    if x.size != prog.mp + 1:
        raise InputError(f"decision vector length {x.size}, expected {prog.mp + 1}")
    k, lam = x[:-1], x[-1]
    n = prog.H.n
    S = prog.eval_stack(k).reshape(prog.mp + 2, n, n)
    return S[0] - lam * prog._eye, S[1:]


def _objective(prog: SofProgram, x) -> tuple[float, np.ndarray]:
    k, lam = x[:-1], x[-1]
    nk = float(np.linalg.norm(k))
    f = prog.mu * nk - lam
    g = np.zeros(x.size)
    if nk > 0:
        g[:-1] = prog.mu * k / nk
    g[-1] = -1.0
    return f, g


def _phi(z, p):
    """Shifted log penalty, elementwise; domain z < p."""
    return -p * np.log1p(-z / p)


def _phi_prime(z, p):
    """phi'(z) = 1 / (1 - z/p), clipped to [1e-12, 1e12] for the
    multiplier updates."""
    return np.clip(1.0 / np.clip(1.0 - z / p, 1e-12, None), 1e-12, 1e12)


def augmented_objective(
    prog: SofProgram,
    x,
    U: np.ndarray,
    p: float,
    k_bound: float | None = None,
    u_box: np.ndarray | None = None,
):
    """Value and gradient of f(x) + <U, Phi_p(-G(x))> with the shifted log
    barrier applied spectrally (Daleckii-Krein rule for the gradient).

    When k_bound is given, the scalar constraints |k_i| <= k_bound enter
    through the same penalty with multipliers u_box[(lo, hi) x mp]; a point
    outside the box is rejected before H(k) is evaluated."""
    boxed = k_bound is not None and prog.mp > 0
    if boxed:
        k = np.asarray(x, dtype=float)[:-1]
        z_lo = -k_bound - k  # -k_i <= k_bound
        z_hi = k - k_bound  # k_i <= k_bound
        if max(z_lo.max(), z_hi.max()) >= p * (1.0 - 1e-12):
            raise BarrierDomainError("iterate left the gain box domain")
    G, dG = constraint_eval(prog, x)
    Z = -G
    w, Q = np.linalg.eigh(Z)
    if w.max() >= p * (1.0 - 1e-12):
        raise BarrierDomainError("iterate left the barrier domain")
    phi = _phi(w, p)

    Ut = Q.T @ U @ Q
    f, g = _objective(prog, x)
    val = f + float((Ut.diagonal() * phi).sum())

    # divided-difference matrix of phi on the spectrum
    dw = w[:, None] - w[None, :]
    aw = np.abs(w)
    close = np.abs(dw) <= 1e-12 * (1.0 + aw[:, None] + aw[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        Gamma = (phi[:, None] - phi[None, :]) / dw
    mid = 0.5 * (w[:, None] + w[None, :])
    Gamma[close] = (1.0 / (1.0 - mid / p))[close]

    M = Ut * Gamma
    grad = g + np.sum(M * (Q.T @ (-dG) @ Q), axis=(1, 2))

    if boxed:
        if u_box is None:
            u_box = np.ones((2, prog.mp))
        val += float(u_box[0] @ _phi(z_lo, p) + u_box[1] @ _phi(z_hi, p))
        grad[:-1] += u_box[1] / (1.0 - z_hi / p) - u_box[0] / (1.0 - z_lo / p)
    return val, grad


def _armijo(fun_grad, x, f, d, slope):
    """Backtracking line search along d from x, where f = fun_grad(x)[0]
    and slope is the directional derivative; points outside the barrier
    domain count as trials and are backtracked from.

    Returns (step, f, g, trials) at the accepted point, with f and g None
    when no step passes the Armijo test within MAX_LINESEARCH trials.
    """
    step = 1.0
    for trials in range(1, MAX_LINESEARCH + 1):
        try:
            f_try, g_try = fun_grad(x + step * d)
        except BarrierDomainError:
            step *= BACKTRACK
            continue
        if f_try <= f + ARMIJO_C * step * slope:
            return step, f_try, g_try, trials
        step *= BACKTRACK
    return step, None, None, MAX_LINESEARCH


def _fd_hessian(fun_grad, x, g):
    """Symmetrized finite-difference Hessian from the analytic gradient."""
    n = x.size
    H = np.zeros((n, n))
    h0 = 1e-6 * (1.0 + np.abs(x))
    for i in range(n):
        h = h0[i]
        for _ in range(20):  # shrink into the feasible strip if needed
            for sign in (1.0, -1.0):
                xp = x.copy()
                xp[i] += sign * h
                try:
                    _, gp = fun_grad(xp)
                except BarrierDomainError:
                    continue
                H[:, i] = sign * (gp - g) / h
                break
            else:
                h *= 0.125
                continue
            break
    return 0.5 * (H + H.T)


def _newton_inner(fun_grad, x0, f, g, tol, max_iter):
    """Damped Newton minimization from x0 with f, g = fun_grad(x0) given; the
    Hessian is finite-differenced from the analytic gradient and modified
    to be positive definite.  Stops when ||g|| <= tol*(1 + |f|).

    Returns (x, f, g, iters, linesearch_trials, failed).
    """
    x = np.asarray(x0, dtype=float)
    iters = trials = 0
    failed = False
    for _ in range(max_iter):
        if np.linalg.norm(g) <= tol * (1.0 + abs(f)):
            break
        H = _fd_hessian(fun_grad, x, g)
        w, Q = np.linalg.eigh(H)
        wmod = np.maximum(np.abs(w), 1e-8 * max(1.0, float(np.abs(w).max())))
        d = -(Q @ ((Q.T @ g) / wmod))
        slope = float(g @ d)
        if slope >= 0:
            d = -g
            slope = float(g @ d)
        step, f_new, g_new, tries = _armijo(fun_grad, x, f, d, slope)
        trials += tries
        iters += 1
        if f_new is None:
            failed = True
            break
        x = x + step * d
        f, g = f_new, g_new
    return x, f, g, iters, trials, failed


def solve_sof(prog: SofProgram, cfg: SolveConfig | None = None) -> SolveReport:
    """Outer penalty loop with spectral multiplier updates."""
    cfg = cfg or SolveConfig()
    mp = prog.mp
    n = prog.H.n
    k0 = np.zeros(mp) if cfg.k0 is None else np.asarray(cfg.k0, dtype=float)
    if k0.size != mp:
        raise InputError(f"k0 length {k0.size}, expected {mp}")
    # the start must lie in the domain of the barriers, or the first
    # evaluation fails inside the solver
    out = np.flatnonzero(~(np.abs(k0) <= cfg.k_bound))
    if out.size:
        raise InputError(
            f"k0 entry {k0[out[0]]:.8g} lies outside the gain box |k| <= {cfg.k_bound:.8g}"
        )
    eig_min = float(np.linalg.eigvalsh(prog.h_eval(k0)).min())
    lam0 = cfg.lam0 if cfg.lam0 is not None else eig_min - 1.0
    lam_max = eig_min + cfg.p0 * (1.0 - 1e-12)
    if not lam0 < lam_max:
        raise InputError(
            f"lam0 {lam0:.8g} must be below min eig H(k0) + p0 = {lam_max:.8g}"
        )
    x = np.concatenate([k0, [lam0]])

    # default trace 1, the KKT normalization for objective -lambda
    U = (cfg.u0 if cfg.u0 is not None else 1.0 / n) * np.eye(n)
    u_box = np.ones((2, mp))
    p = cfg.p0
    outer = inner_total = ls_total = 0
    prev_f = np.inf
    prev_viol = np.inf
    fails = 0
    stall = 0
    status = "max-iters"
    history = []

    for outer in range(1, cfg.max_outer + 1):
        fun = lambda xx: augmented_objective(
            prog, xx, U, p, k_bound=cfg.k_bound, u_box=u_box
        )
        f, g = fun(x)
        x, _, g, iters, trials, failed = _newton_inner(
            fun, x, f, g, cfg.tol_inner, cfg.max_inner
        )
        inner_total += iters
        ls_total += trials

        G, _ = constraint_eval(prog, x)
        w, Q = np.linalg.eigh(-G)
        viol = max(0.0, float(w.max()))
        f, _ = _objective(prog, x)
        lam = x[-1]
        history.append((float(lam), float(-w.max()), float(f)))

        # spectral multiplier update: congruence with phi'(Z)^(1/2)
        W = Q @ np.diag(np.sqrt(_phi_prime(w, p))) @ Q.T
        U = W @ U @ W
        U = 0.5 * (U + U.T)
        if mp > 0:
            k = x[:-1]
            z = np.vstack([-cfg.k_bound - k, k - cfg.k_bound])
            u_box = u_box * _phi_prime(z, p)

        gnorm = float(np.linalg.norm(g))
        if (
            gnorm <= TOL_STAT * (1.0 + abs(f))
            and abs(f - prev_f) <= cfg.tol_outer * (1.0 + abs(f))
            and viol <= TOL_FEAS
        ):
            # a stationary point without strict feasibility, min eig H(k) =
            # lam - max eig(-G) <= 0, is not a stabilizing gain: the
            # violation tolerance lets lam exceed min eig H(k) by TOL_FEAS
            status = "converged" if lam - w.max() > 1e-9 else "infeasible-stall"
            break

        if failed:
            fails += 1
            if fails >= 2:
                status = "linesearch-failure"
                break
        else:
            fails = 0

        # strict feasibility stall: lambda pinned at / below zero
        if lam <= 1e-9 and abs(f - prev_f) <= cfg.tol_outer * (1.0 + abs(f)):
            stall += 1
            if stall >= STALL_WINDOW:
                status = "infeasible-stall"
                break
        else:
            stall = 0

        # shrink the penalty when the constraint violation stops improving,
        # keeping it above the current violation to preserve the domain
        box_viol = float(z.max()) if mp > 0 else 0.0
        if viol > TOL_FEAS and viol > 0.1 * prev_viol:
            p = max(cfg.sigma * p, 1.2 * viol, 1.2 * box_viol, P_MIN)
        prev_f = f
        prev_viol = viol if viol > 0 else prev_viol

    k = x[:-1]
    lam = float(x[-1])
    G, _ = constraint_eval(prog, x)
    min_eig = float(np.linalg.eigvalsh(G).min())
    f, _ = _objective(prog, x)
    K = np.asarray(k).reshape((prog.m, prog.p), order="F")
    return SolveReport(
        K=K,
        lam=lam,
        outer_iters=outer,
        inner_iters=inner_total,
        linesearch_steps=ls_total,
        status=status,
        min_eig=min_eig,
        objective=f,
        k=np.asarray(k),
        history=history,
    )


def verify_solution(plant, K) -> tuple[np.ndarray, bool, float]:
    """Closed-loop poles at gain K plus a strict-stability flag and margin.

    `plant` is a SystemInstance or its characteristic polynomial q(k).
    """
    if isinstance(plant, SystemInstance):
        q = char_poly(plant)
    elif isinstance(plant, CharPoly):
        q = plant
    else:
        raise InputError("plant must be a SystemInstance or CharPoly")
    k = vec_gain(K)
    qn = q.at_gains(k)
    rts = poly_roots(qn)
    margin = float(np.max(rts.real))
    return rts, margin < 0.0, margin
