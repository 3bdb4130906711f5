"""Local penalty / augmented-Lagrangian solver for the SOF matrix inequality.

Decision vector x = (k, lambda); objective mu*||k|| - lambda subject to
H(k) - lambda*I >= 0.  The constraint is handled through a shifted spectral
log barrier phi(t) = -p*log(1 - t/p) with multiplier and penalty updates in
an outer loop and BFGS with Armijo backtracking inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierDomainError, InputError
from .hermite import HermiteForm
from .polynomials import PolyInS, char_poly, vec_gain
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
        self.mp = self.H.nvars
        if self.p is None:
            if self.mp % self.m != 0:
                raise InputError("gain shape does not divide the variable count")
            self.p = self.mp // self.m
        if self.m * self.p != self.mp:
            raise InputError("m*p must equal the gain-variable count")
        E, C = self.H.E, self.H.C.real
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


@dataclass
class SolveConfig:
    k0: np.ndarray | list | None = None
    lam0: float | None = None  # default: min-eig(H(k0)) - 1
    p0: float = 0.001
    sigma: float = 0.3
    tol_outer: float = 1e-7
    tol_inner: float = 1e-6
    tol_feas: float = 1e-6
    tol_stat: float = 1e-3
    max_outer: int = 50
    max_inner: int = 200
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    max_linesearch: int = 60
    p_min: float = 1e-12
    stall_window: int = 10
    # gains are boxed to |k_i| <= k_bound so programs whose margin grows
    # without bound (e.g. a diagonal entry linear in a gain) still admit a
    # KKT point; the box is handled with the same shifted penalty
    k_bound: float = 1e4
    u0: float | None = None  # initial multiplier U = u0*I; default 1/n
    trace: list | None = None  # per-outer (lam, min_eig, f) records, if a list


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
    through the same penalty with multipliers u_box[(lo, hi) x mp]."""
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

    if k_bound is not None and prog.mp > 0:
        k = np.asarray(x, dtype=float)[:-1]
        z_lo = -k_bound - k  # -k_i <= k_bound
        z_hi = k - k_bound  # k_i <= k_bound
        if max(z_lo.max(), z_hi.max()) >= p * (1.0 - 1e-12):
            raise BarrierDomainError("iterate left the gain box domain")
        if u_box is None:
            u_box = np.ones((2, prog.mp))
        val += float(u_box[0] @ _phi(z_lo, p) + u_box[1] @ _phi(z_hi, p))
        grad[:-1] += u_box[1] / (1.0 - z_hi / p) - u_box[0] / (1.0 - z_lo / p)
    return val, grad


def _bfgs_inner(fun_grad, x0, tol, max_iter, cfg: SolveConfig):
    """Quasi-Newton minimization with Armijo backtracking.

    Returns (x, f, g, iters, linesearch_trials, failed).
    """
    x = np.asarray(x0, dtype=float)
    f, g = fun_grad(x)
    nvar = x.size
    Hinv = np.eye(nvar)
    iters = 0
    trials = 0
    failed = False
    for _ in range(max_iter):
        if np.linalg.norm(g) <= tol:
            break
        d = -Hinv @ g
        slope = float(g @ d)
        if slope >= 0:  # safeguard against a corrupted metric
            Hinv = np.eye(nvar)
            d = -g
            slope = float(g @ d)
        step = 1.0
        accepted = False
        f_new = f
        g_new = g
        for _ in range(cfg.max_linesearch):
            trials += 1
            x_try = x + step * d
            try:
                f_try, g_try = fun_grad(x_try)
            except BarrierDomainError:
                step *= cfg.backtrack
                continue
            if f_try <= f + cfg.armijo_c * step * slope:
                accepted = True
                f_new, g_new = f_try, g_try
                break
            step *= cfg.backtrack
        iters += 1
        if not accepted:
            failed = True
            break
        s = step * d
        y = g_new - g
        x = x + s
        f, g = f_new, g_new
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            if iters == 1:
                Hinv = (sy / float(y @ y)) * np.eye(nvar)
            rho = 1.0 / sy
            V = np.eye(nvar) - rho * np.outer(s, y)
            Hinv = V @ Hinv @ V.T + rho * np.outer(s, s)
    return x, f, g, max(iters, 1), max(trials, 1), failed


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


def _newton_inner(fun_grad, x0, f, g, tol, max_iter, cfg: SolveConfig):
    """Damped Newton refinement from x0 with f, g = fun_grad(x0) given; the
    Hessian is finite-differenced from the analytic gradient and modified
    to be positive definite."""
    x = np.asarray(x0, dtype=float)
    iters = trials = 0
    failed = False
    for _ in range(max_iter):
        if np.linalg.norm(g) <= tol:
            break
        H = _fd_hessian(fun_grad, x, g)
        w, Q = np.linalg.eigh(H)
        wmod = np.maximum(np.abs(w), 1e-8 * max(1.0, float(np.abs(w).max())))
        d = -(Q @ ((Q.T @ g) / wmod))
        slope = float(g @ d)
        if slope >= 0:
            d = -g
            slope = float(g @ d)
        step = 1.0
        accepted = False
        for _ in range(cfg.max_linesearch):
            trials += 1
            try:
                ft, gt = fun_grad(x + step * d)
            except BarrierDomainError:
                step *= cfg.backtrack
                continue
            if ft <= f + cfg.armijo_c * step * slope:
                accepted = True
                break
            step *= cfg.backtrack
        iters += 1
        if not accepted:
            failed = True
            break
        x = x + step * d
        f, g = ft, gt
    return x, f, g, iters, trials, failed


def solve_sof(prog: SofProgram, cfg: SolveConfig | None = None) -> SolveReport:
    """Outer penalty loop with spectral multiplier updates."""
    cfg = cfg or SolveConfig()
    mp = prog.mp
    n = prog.H.n
    k0 = np.zeros(mp) if cfg.k0 is None else np.asarray(cfg.k0, dtype=float)
    if k0.size != mp:
        raise InputError(f"k0 length {k0.size}, expected {mp}")
    H0 = prog.h_eval(k0)
    lam0 = cfg.lam0 if cfg.lam0 is not None else float(np.linalg.eigvalsh(H0).min()) - 1.0
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
    newton_cap = min(40, cfg.max_inner)
    bfgs_cap = max(1, min(cfg.max_inner - newton_cap, 60))

    for outer in range(1, cfg.max_outer + 1):
        fun = lambda xx: augmented_objective(
            prog, xx, U, p, k_bound=cfg.k_bound, u_box=u_box
        )
        x, f, g, it1, tr1, failed1 = _bfgs_inner(fun, x, cfg.tol_inner, bfgs_cap, cfg)
        x, _, g, it2, tr2, failed2 = _newton_inner(
            fun, x, f, g, cfg.tol_inner, newton_cap, cfg
        )
        inner_total += it1 + it2
        ls_total += tr1 + tr2
        failed = failed1 and (failed2 or it2 == 0)

        G, _ = constraint_eval(prog, x)
        w, Q = np.linalg.eigh(-G)
        viol = max(0.0, float(w.max()))
        f, _ = _objective(prog, x)
        lam = x[-1]
        if cfg.trace is not None:
            cfg.trace.append((float(lam), float(-w.max()), float(f)))

        # spectral multiplier update: congruence with phi'(Z)^(1/2)
        phip = np.clip(1.0 / np.clip(1.0 - w / p, 1e-12, None), 1e-12, 1e12)
        W = Q @ np.diag(np.sqrt(phip)) @ Q.T
        U = W @ U @ W
        U = 0.5 * (U + U.T)
        if mp > 0:
            k = x[:-1]
            z = np.vstack([-cfg.k_bound - k, k - cfg.k_bound])
            u_box = u_box * np.clip(1.0 / np.clip(1.0 - z / p, 1e-12, None), 1e-12, 1e12)

        gnorm = float(np.linalg.norm(g))
        if (
            gnorm <= cfg.tol_stat * (1.0 + abs(f))
            and abs(f - prev_f) <= cfg.tol_outer * (1.0 + abs(f))
            and viol <= cfg.tol_feas
        ):
            # a stationary point with lambda pinned at zero is a local
            # solution without strict feasibility, not a stabilizing gain
            status = "converged" if lam > 1e-9 else "infeasible-stall"
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
            if stall >= cfg.stall_window:
                status = "infeasible-stall"
                break
        else:
            stall = 0

        # shrink the penalty when the constraint violation stops improving,
        # keeping it above the current violation to preserve the domain
        box_viol = float(z.max()) if mp > 0 else 0.0
        if viol > cfg.tol_feas and viol > 0.1 * prev_viol:
            p = max(cfg.sigma * p, 1.2 * viol, 1.2 * box_viol, cfg.p_min)
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
    )


def verify_solution(plant, K) -> tuple[np.ndarray, bool, float]:
    """Closed-loop poles at gain K plus a strict-stability flag and margin.

    `plant` is a SystemInstance or a symbolic characteristic polynomial.
    """
    if isinstance(plant, SystemInstance):
        q = char_poly(plant)
    elif isinstance(plant, PolyInS):
        q = plant
    else:
        raise InputError("plant must be a SystemInstance or PolyInS")
    k = vec_gain(K)
    qn = q.at_gains(k)
    rts = poly_roots(qn)
    margin = float(np.max(rts.real))
    return rts, margin < 0.0, margin
