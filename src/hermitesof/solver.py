"""Local penalty / augmented-Lagrangian solver for the SOF matrix inequality.

Decision vector x = (k, lambda); objective mu*||k|| - lambda subject to
H(k) - lambda*I >= 0.  The constraint is handled through a shifted spectral
log barrier phi(t) = -p*log(1 - t/p) with multiplier and penalty updates in
an outer loop and, inside, damped Newton steps on a finite-differenced
Hessian with Armijo backtracking.  By default U starts at tr U = 1, the KKT
normalization (dL/dlambda = -1 + tr U), and a solve whose tr U passes
U_DIVERGED after an outer update and convergence test ends as diverged.

One evaluation of the augmented objective is one pass, in this order: the
gain-box test, H(k) with every dH/dk_l (SofProgram.eval_stack), eigh, the
barrier-domain test, the value, the gradient.  Its results are bit-for-bit
those of composing constraint_eval, _objective and phi (as -p*log1p(-t/p)).

Trial points outside the barrier domain are rejected.  The 40
finite-difference probes of one coordinate and the backtracking steps of
one line search are each a fixed sequence, and one walker, _in_domain,
evaluates each in order.  After a sequence's first rejected point, a
domain screen proves the later points of the sequence outside the domain
in one batch from a Rayleigh-quotient bound, and they are skipped without
an evaluation.  The first accepted point, and so every iterate, is the
same as without the screen.  A skipped line-search step still counts as a
trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierDomainError, InputError
from .hermite import HermiteForm
from .polynomials import CharPoly, vec_gain
from .stability import roots as poly_roots


@dataclass
class SofProgram:
    """min mu*||k|| - lambda  s.t.  H(k) - lambda*I >= 0."""

    H: HermiteForm
    mu: float
    m: int  # gain matrix shape for reporting; mp = m * p
    p: int

    def __post_init__(self):
        if not 0 <= self.mu < np.inf:
            raise InputError(f"mu {self.mu:.8g} must be non-negative and finite")
        self.mp = self.H.nvars
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
        # float exponents: k ** E casts integer ones to float on every call
        self._E = np.array(list(index), dtype=float).reshape(len(index), self.mp)
        self._eye = np.eye(n)
        # H and each dG/dx_i flattened, the last row dG/dlambda = -I
        self._stack = np.zeros((self.mp + 2, n * n))
        self._stack[-1] = -self._eye.ravel()

    def h_eval(self, k) -> np.ndarray:
        """H(k) alone, by the form's own evaluator HermiteForm.eval_at."""
        return self.H.eval_at(k)

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
U_DIVERGED = 1e6  # tr U past this ends a solve as diverged; a KKT point has tr U = 1
# the line-search steps 1, BACKTRACK, BACKTRACK**2, ...
_STEPS = BACKTRACK ** np.arange(MAX_LINESEARCH)
# the finite-difference probe offsets in units of h0: +1, -1, +1/8, -1/8, ...
# over 20 levels; powers of two, so h0 * _FD_LEVELS is exact
_FD_LEVELS = np.repeat(0.125 ** np.arange(20), 2) * np.tile([1.0, -1.0], 20)
_STEPS.flags.writeable = _FD_LEVELS.flags.writeable = False


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


def _phi_prime(z, p):
    """phi'(z) = 1 / (1 - z/p), clipped to [1e-12, 1e12] for the
    multiplier updates."""
    return np.clip(1.0 / np.clip(1.0 - z / p, 1e-12, None), 1e-12, 1e12)


_BOX_SIGNS = np.array([[-1.0], [1.0]])  # z = (-k - k_bound, k - k_bound)
_BOX_SIGNS.flags.writeable = False


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
    outside the box is rejected before H(k) is evaluated.

    One pass: box test, H(k) and its partials (SofProgram.eval_stack),
    eigh, barrier-domain test, value, gradient.  Every value, gradient and
    domain decision is bit-for-bit that of composing constraint_eval,
    _objective and phi evaluated as -p*log1p(-t/p), without their calls."""
    x = np.ascontiguousarray(x, dtype=float)
    mp, n = prog.mp, prog.H.n
    if x.size != mp + 1:
        raise InputError(f"decision vector length {x.size}, expected {mp + 1}")
    k, lam = x[:-1], x[-1]
    limit = p * (1.0 - 1e-12)
    boxed = k_bound is not None and mp > 0
    if boxed:
        # -k_i <= k_bound, k_i <= k_bound
        z = _BOX_SIGNS * k - k_bound
        if z.max() >= limit:
            raise BarrierDomainError("iterate left the gain box domain")
    S = prog.eval_stack(k).reshape(mp + 2, n, n)
    w, Q = np.linalg.eigh(-(S[0] - lam * prog._eye))
    if w.max() >= limit:
        raise BarrierDomainError("iterate left the barrier domain")
    wp = w / -p  # is -w / p exactly
    phi = -p * np.log1p(wp)

    Ut = Q.T @ U @ Q
    # f = mu*||k|| - lambda, with np.linalg.norm's sqrt(k . k)
    nk = math.sqrt(k.dot(k))
    val = prog.mu * nk - lam + float((Ut.diagonal() * phi).sum())

    # divided-difference matrix of phi on the spectrum; a pair within
    # 1e-12*(1 + |w_i| + |w_j|), the diagonal always, takes phi' at the
    # midpoint.  w ascends, so w_j - w_i >= w_{i+1} - w_i for i < j, and a
    # smallest neighbour gap above 4e-12*(1 + max|w|) leaves only the
    # diagonal, whose midpoint is w_i itself while |w| < 1e300.
    W = max(-w[0], w[-1])
    if (w[1:] - w[:-1]).min(initial=np.inf) > 4e-12 * (1.0 + W) and W < 1e300:
        # + I: no 0/0 on the diagonal, which is overwritten
        Gamma = (phi[:, None] - phi[None, :]) / (w[:, None] - w[None, :] + prog._eye)
        Gamma.flat[:: n + 1] = 1.0 / (1.0 + wp)
    else:
        dw = w[:, None] - w[None, :]
        aw = np.abs(w)
        close = np.abs(dw) <= 1e-12 * (1.0 + aw[:, None] + aw[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            Gamma = (phi[:, None] - phi[None, :]) / dw
        mid = 0.5 * (w[:, None] + w[None, :])
        Gamma[close] = (1.0 / (1.0 - mid / p))[close]

    M = Ut * Gamma
    grad = (M * (Q.T @ (-S[1:]) @ Q)).reshape(mp + 1, n * n).sum(axis=1)
    # + the gradient of f, (mu*k/||k||, -1), as _objective builds it
    grad[:-1] += prog.mu * k / nk if nk > 0 else 0.0
    grad[-1] += -1.0

    if boxed:
        if u_box is None:
            u_box = np.ones((2, mp))
        zp = z / -p
        phi_box = -p * np.log1p(zp)
        val += float(u_box[0] @ phi_box[0] + u_box[1] @ phi_box[1])
        r = u_box / (1.0 + zp)
        grad[:-1] += r[1] - r[0]
    return val, grad


class _DomainScreen:
    """Proves trial points y = (k, lambda) outside the domain of
    augmented_objective(prog, y, U, p, k_bound), without evaluating them.

    With q_a the eigenvectors of H at the base point x and v(y) the monomial
    values at k, H(k) = sum_t v_t C_t and Z(y) = lambda*I - H(k) give
    q_a' Z(y) q_a = lambda - v(y) . D[:, a], D[t, a] = q_a' C_t q_a, so
    lambda - min_a v(y) . D[:, a] is a lower bound on max eig Z(y).  A point
    is flagged when the bound exceeds augmented_objective's domain limit
    p*(1 - 1e-12) by a rounding allowance, or when it fails the gain-box
    test.

    One screen serves a solve; `at` points it at the base point of an inner
    iteration, and the bound is built on the first call after that.
    _in_domain asks it once per trial sequence, about the points after the
    sequence's first rejected one."""

    # The allowance is SCREEN_ROUNDING * (n + T) * eps * (|lambda| +
    # sum_t |v_t| ||C_t||_1), a bound on ||Z(y)||_2.  It covers the error of
    # the evaluated Z (T-term sums), of eigh (backward error of order n*eps
    # in ||Z||) and of the bound itself (n-term sums in D, T-term sums in
    # v . D, the monomial products), with room to spare.
    SCREEN_ROUNDING = 64

    def __init__(self, prog: SofProgram, k_bound: float | None):
        E, C = prog.H.E, prog.H.C
        n, T = prog.H.n, len(C)
        self.k_bound = k_bound if prog.mp > 0 else None
        self._h_eval, self._C = prog.h_eval, C
        # v = prod_l P[l, E[t, l]] over a table P of each gain's powers,
        # gathered through flat indices into it
        self._deg = int(E.max(initial=0)) + 1
        self._cols = E + self._deg * np.arange(prog.mp)
        self._tau = self.SCREEN_ROUNDING * (n + T) * np.finfo(float).eps
        self._slack = self._tau * np.abs(C).sum(axis=1).max(axis=1)

    def at(self, x, p: float) -> _DomainScreen:
        self._x, self._limit, self._D = x, p * (1.0 - 1e-12), None
        return self

    def _monomials(self, K) -> np.ndarray:
        P = np.empty(K.shape + (self._deg,))
        P[:, :, 0] = 1.0
        for e in range(1, self._deg):
            np.multiply(P[:, :, e - 1], K, out=P[:, :, e])
        return P.reshape(len(K), -1)[:, self._cols].prod(axis=2)

    def __call__(self, Y) -> np.ndarray:
        """One flag per row of Y: True where augmented_objective would raise
        BarrierDomainError."""
        if self._D is None:
            _, Q = np.linalg.eigh(self._h_eval(self._x[:-1]))
            self._D = np.einsum("ia,tia->ta", Q, self._C @ Q)
        K, lam = Y[:, :-1], Y[:, -1]
        v = self._monomials(K)
        bound = lam - (v @ self._D).min(axis=1)
        over = bound - self._tau * np.abs(lam) - np.abs(v) @ self._slack
        if self.k_bound is not None:
            # augmented_objective's box test: max(-k_bound - k_i, k_i -
            # k_bound) is |k_i| - k_bound, rounded the same way
            over = np.maximum(over, np.abs(K).max(axis=1) - self.k_bound)
        return over >= self._limit


def _in_domain(fun_grad, Y, screen=None):
    """Evaluate the rows of Y in order and yield (j, f, g) for each row inside
    the barrier domain.  After the first row outside it, `screen` (see
    _DomainScreen) is asked about all later rows in one batch, and the rows
    it flags are skipped unevaluated."""
    skip = [False] * len(Y)
    for j, y in enumerate(Y):
        if skip[j]:
            continue
        try:
            f, g = fun_grad(y)
        except BarrierDomainError:
            if screen is not None and j + 1 < len(Y):
                skip[j + 1 :] = screen(Y[j + 1 :]).tolist()
                screen = None
            continue
        yield j, f, g


def _armijo(fun_grad, x, f, d, slope, screen=None):
    """Backtracking line search along d from x, where f = fun_grad(x)[0]
    and slope is the directional derivative; points outside the barrier
    domain, evaluated or skipped by `screen` (see _in_domain), count as
    trials and are backtracked from.

    Returns (step, f, g, trials) at the accepted point, with f and g None
    when no step passes the Armijo test within MAX_LINESEARCH trials.
    """
    for j, f_try, g_try in _in_domain(fun_grad, x + _STEPS[:, None] * d, screen):
        if f_try <= f + ARMIJO_C * _STEPS[j] * slope:
            return float(_STEPS[j]), f_try, g_try, j + 1
    return None, None, None, MAX_LINESEARCH


def _fd_hessian(fun_grad, x, g, screen=None):
    """Symmetrized finite-difference Hessian from the analytic gradient.

    Each coordinate's probes x + h0*_FD_LEVELS*e_i (+h, then -h, with h
    shrinking by 1/8 over 20 levels into the feasible strip) are one trial
    sequence, walked by _in_domain with `screen`; the first probe inside
    the barrier domain gives the column, and none leaves it zero."""
    n = x.size
    H = np.zeros((n, n))
    h0 = 1e-6 * (1.0 + np.abs(x))
    for i in range(n):
        h = h0[i] * _FD_LEVELS
        Y = np.tile(x, (len(h), 1))
        Y[:, i] += h
        for j, _, gp in _in_domain(fun_grad, Y, screen):
            H[:, i] = (gp - g) / h[j]
            break
    return 0.5 * (H + H.T)


def _newton_inner(fun_grad, x0, f, g, tol, max_iter, screen_at=None):
    """Damped Newton minimization from x0 with f, g = fun_grad(x0) given; the
    Hessian is finite-differenced from the analytic gradient and modified
    to be positive definite.  Stops when ||g|| <= tol*(1 + |f|).  With
    `screen_at`, each iteration's finite differences and line search skip
    the trial points that screen_at(x) flags outside the barrier domain.

    Returns (x, f, g, iters, linesearch_trials, failed).
    """
    x = np.asarray(x0, dtype=float)
    iters = trials = 0
    failed = False
    for _ in range(max_iter):
        if np.linalg.norm(g) <= tol * (1.0 + abs(f)):
            break
        screen = screen_at(x) if screen_at is not None else None
        H = _fd_hessian(fun_grad, x, g, screen)
        w, Q = np.linalg.eigh(H)
        wmod = np.maximum(np.abs(w), 1e-8 * max(1.0, float(np.abs(w).max())))
        d = -(Q @ ((Q.T @ g) / wmod))
        slope = float(g @ d)
        if slope >= 0:
            d = -g
            slope = float(g @ d)
        step, f_new, g_new, tries = _armijo(fun_grad, x, f, d, slope, screen)
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
    if not 0 < cfg.k_bound < np.inf:
        raise InputError(f"k_bound {cfg.k_bound:.8g} must be positive and finite")
    # the start must lie in the domain of the barriers, or the first
    # evaluation fails inside the solver
    out = np.flatnonzero(~(np.abs(k0) <= cfg.k_bound))
    if out.size:
        raise InputError(
            f"k0 entry {k0[out[0]]:.8g} lies outside the gain box |k| <= {cfg.k_bound:.8g}"
        )
    if not 0 < cfg.p0 < np.inf:
        raise InputError(f"p0 {cfg.p0:.8g} must be positive and finite")
    if cfg.u0 is not None and not 0 < cfg.u0 < np.inf:
        raise InputError(f"u0 {cfg.u0:.8g} must be positive and finite")
    if not 0 < cfg.sigma <= 1:
        raise InputError(f"sigma {cfg.sigma:.8g} must lie in (0, 1]")
    for name in ("tol_inner", "tol_outer"):
        tol = getattr(cfg, name)
        if not 0 <= tol < np.inf:
            raise InputError(f"{name} {tol:.8g} must be non-negative and finite")
    eig_min = float(np.linalg.eigvalsh(prog.h_eval(k0)).min())
    lam0 = cfg.lam0 if cfg.lam0 is not None else eig_min - 1.0
    lam_max = eig_min + cfg.p0 * (1.0 - 1e-12)
    if not -np.inf < lam0 < lam_max:
        raise InputError(
            f"lam0 {lam0:.8g} must be finite and below min eig H(k0) + p0 = {lam_max:.8g}"
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
    screen = _DomainScreen(prog, cfg.k_bound)

    for outer in range(1, cfg.max_outer + 1):
        fun = lambda xx: augmented_objective(
            prog, xx, U, p, k_bound=cfg.k_bound, u_box=u_box
        )
        screen_at = lambda xx: screen.at(xx, p)
        f, g = fun(x)
        x, _, g, iters, trials, failed = _newton_inner(
            fun, x, f, g, cfg.tol_inner, cfg.max_inner, screen_at
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
            z = _BOX_SIGNS * k - cfg.k_bound
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

        if np.trace(U) > U_DIVERGED:
            status = "diverged"
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
    G, _ = constraint_eval(prog, x)
    min_eig = float(np.linalg.eigvalsh(G).min())
    f, _ = _objective(prog, x)
    return SolveReport(
        K=k.reshape((prog.m, prog.p), order="F"),
        lam=float(x[-1]),
        outer_iters=outer,
        inner_iters=inner_total,
        linesearch_steps=ls_total,
        status=status,
        min_eig=min_eig,
        objective=f,
        k=k,
        history=history,
    )


def verify_solution(q: CharPoly, K) -> tuple[np.ndarray, bool, float]:
    """Closed-loop poles of q(k) at gain K plus a strict-stability flag and
    margin."""
    rts = poly_roots(q.at_gains(vec_gain(K)))
    margin = float(np.max(rts.real))
    return rts, margin < 0.0, margin
