"""Local penalty / augmented-Lagrangian solver for the SOF matrix inequality.

Decision vector x = (k, lambda); objective mu*||k|| - lambda subject to
H(k) - lambda*I >= 0.  The constraint is handled through a shifted spectral
log barrier phi(t) = -p*log(1 - t/p) with multiplier and penalty updates in
an outer loop and, inside, damped Newton steps on a finite-differenced
Hessian with Armijo backtracking.  An inner solve stops when ||grad|| <=
tol_inner*(1 + |f|), after MAX_INNER steps, or after a step that leaves x,
f and the gradient unchanged bit for bit: U and p are fixed inside it, so
every later step would repeat that one.  By default U starts at tr U = 1,
the KKT normalization (dL/dlambda = -1 + tr U), and a solve whose tr U
passes U_DIVERGED after an outer update and convergence test ends as
diverged.

augmented_objective alone decides which points lie in the barrier domain,
the start among them: a finite (k0, lam0) is refused as input exactly when
its first evaluation, the one that begins the solve, rejects it.  That
evaluation has a value phase and a gradient phase: a line-search trial
takes the value phase, and only the step Armijo's test accepts runs the
gradient phase; a finite-difference probe skips the value; the start of
each inner solve takes both.  Each outer iteration records (lambda, min eig
of G = H(k) - lambda*I, f) from H(k) alone (SofProgram.h_eval), and the
report reads the last record.

Before an inner iteration evaluates its probes or its line-search steps,
SofProgram.screen proves some of them outside the domain in one batch, and
those are skipped unevaluated.  It flags only points the objective
rejects, so every iterate is the same as without it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BarrierDomainError, DegenerateInputError, InputError
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
        # a Hurwitz target's nodes are all real or all imaginary
        # (Hermite-Biehler); over a mix, H(k) > 0 certifies no stability
        nodes = self.H.nodes
        if nodes is not None and {"real", "imag"} <= set(nodes.kinds):
            listed = ", ".join(f"{u:.8g}" for u in nodes.values)
            raise InputError(f"nodes {listed} mix real and imaginary values")
        E, C = self.H.E, self.H.C
        n = self.H.n
        # H, then dH/dk_l: the monomials with k_l in them, that exponent
        # lowered by one and the coefficient multiplied by it.  The blocks
        # are stacked in one table, each a slice of its monomials, and
        # v_t = prod_l P[l, E[t, l]], P[l, e] = k_l ** e by pow as in eval_at
        Es, self._terms = [E], [(slice(0, len(E)), C.reshape(-1, n * n))]
        for l in range(self.mp):
            rows = E[:, l] > 0
            Es.append(E[rows] - np.eye(1, self.mp, l, dtype=E.dtype))
            end = self._terms[-1][0].stop
            C2 = (C[rows] * E[rows, l, None, None]).reshape(-1, n * n)
            self._terms.append((slice(end, end + len(C2)), C2))
        self._deg = int(E.max(initial=0)) + 1
        self._expo = np.arange(self._deg, dtype=float)
        self._cols = np.concatenate(Es).T + self._deg * np.arange(self.mp)[:, None]
        self._eye = np.eye(n)
        # H and each dG/dx_i flattened, the last row dG/dlambda = -I
        self._stack = np.zeros((self.mp + 2, n * n))
        self._stack[-1] = -self._eye.ravel()

    def _values(self, k, cols) -> np.ndarray:
        """The values at k of the monomials in the columns cols of the table."""
        P = np.asarray(k, dtype=float)[:, None] ** self._expo
        return np.multiply.reduce(P.ravel()[cols])

    def h_eval(self, k) -> np.ndarray:
        """H(k) alone, from the first block of the table."""
        idx, C2 = self._terms[0]
        return np.dot(self._values(k, self._cols[:, idx]), C2).reshape(self.H.n, self.H.n)

    def h_row(self, k) -> tuple[np.ndarray, np.ndarray]:
        """A fresh stack with H(k) flattened in its first row and -I in its
        last, and the monomial values v that partial_rows reads."""
        v = self._values(k, self._cols)
        S = self._stack.copy()
        idx, C2 = self._terms[0]
        np.dot(v[idx], C2, out=S[0])
        return S, v

    def partial_rows(self, v, S) -> None:
        """Every dH/dk_l flattened into row 1 + l of the stack S, from the
        monomial values v of h_row."""
        for row, (idx, C2) in zip(S[1:], self._terms[1:]):
            np.dot(v[idx], C2, out=row)

    @cached_property
    def _allowance(self) -> tuple[float, np.ndarray]:
        """tau and tau * ||C_t||_1 per monomial t of H, for screen."""
        tau = SCREEN_ROUNDING * (self.H.n + len(self.H.C)) * np.finfo(float).eps
        return tau, tau * np.abs(self.H.C).sum(axis=1).max(axis=1)

    def screen(self, x, p: float, k_bound: float):
        """flags(Y), one flag per row y = (k, lambda) of Y: True where
        augmented_objective(self, y, U, p, k_bound) would raise
        BarrierDomainError, proved without evaluating it.  With q_a the
        eigenvectors of H at the base point x and v(y) the monomial values
        at k, H(k) = sum_t v_t C_t and Z(y) = lambda*I - H(k) give
        q_a' Z(y) q_a = lambda - v(y) . D[:, a], D[t, a] = q_a' C_t q_a, so
        lambda - min_a v(y) . D[:, a] is a lower bound on max eig Z(y).  A
        point is flagged when the bound exceeds the domain limit
        p*(1 - 1e-12) by the rounding allowance, or when it fails the
        gain-box test.  The flags depend on x, p and k_bound alone;
        _fd_hessian and _armijo each ask them once per inner iteration,
        about all of their trial points, before they evaluate any."""
        tau, slack = self._allowance
        _, Q = np.linalg.eigh(self.h_eval(x[:-1]))
        D = np.einsum("ia,tia->ta", Q, self.H.C @ Q)
        # v = prod_l P[l, E[t, l]] through the indices of H's block
        deg, cols = self._deg, self._cols[:, self._terms[0][0]]

        def flags(Y) -> np.ndarray:
            # numpy reduces a short last axis several times slower than a
            # first one, so the gains, products and minima are reduced
            # transposed; the values, and the layout of v that the products
            # with it see, are those of the row-major reductions
            Kt, lam = np.ascontiguousarray(Y[:, :-1].T), Y[:, -1]
            P = np.empty((len(Kt), deg, Kt.shape[1]))
            P[:, 0] = 1.0
            for e in range(1, deg):
                np.multiply(P[:, e - 1], Kt, out=P[:, e])
            # v[r, t] for the gains in column r of Kt
            v = np.multiply.reduce(P.reshape(-1, Kt.shape[1])[cols], axis=0).T
            bound = lam - np.minimum.reduce(np.ascontiguousarray((v @ D).T), axis=0)
            over = bound - tau * np.abs(lam) - np.abs(v) @ slack
            # augmented_objective's box test: max(-k_bound - k_i, k_i - k_bound)
            # is |k_i| - k_bound, rounded the same way
            box = np.maximum.reduce(np.abs(Kt), axis=0, initial=-math.inf) - k_bound
            return np.maximum(over, box) >= p * (1.0 - 1e-12)

        return flags


# the convergence, line-search and penalty constants of the method
TOL_FEAS = 1e-6  # largest constraint violation max eig(-G) at a converged point
TOL_STAT = 1e-3  # outer stationarity test ||grad|| <= TOL_STAT * (1 + |f|)
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_LINESEARCH = 60
MAX_INNER = 100  # Newton steps of one inner solve
P_MIN = 1e-12  # floor of the penalty parameter
STALL_WINDOW = 10  # outer iterations with lambda pinned <= 0 before giving up
U_DIVERGED = 1e6  # tr U past this ends a solve as diverged; a KKT point has tr U = 1
# The screen's allowance is SCREEN_ROUNDING * (n + T) * eps * (|lambda| +
# sum_t |v_t| ||C_t||_1), a bound on ||Z(y)||_2.  It covers the error of the
# evaluated Z (T-term sums), of eigh (backward error of order n*eps in ||Z||)
# and of the bound itself (n-term sums in D, T-term sums in v . D, the
# monomial products), with room to spare.
SCREEN_ROUNDING = 64
# the line-search steps 1, BACKTRACK, BACKTRACK**2, ...
_STEPS = BACKTRACK ** np.arange(MAX_LINESEARCH)
# the finite-difference probe offsets in units of h0: +1, -1, +1/8, -1/8, ...
# over 20 levels; powers of two, so h0 * _FD_LEVELS is exact
_FD_LEVELS = np.repeat(0.125 ** np.arange(20), 2) * np.tile([1.0, -1.0], 20)
_BOX_SIGNS = np.array([[-1.0], [1.0]])  # z = (-k - k_bound, k - k_bound)
_STEPS.flags.writeable = _FD_LEVELS.flags.writeable = _BOX_SIGNS.flags.writeable = False


@dataclass
class SolveConfig:
    k0: np.ndarray | list | None = None
    lam0: float | None = None  # default: min-eig(H(k0)) - 1
    p0: float = 0.001
    sigma: float = 0.3
    tol_outer: float = 1e-7
    tol_inner: float = 1e-6
    max_outer: int = 50
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
    min_eig: float
    objective: float
    k: np.ndarray
    # one (lam, min eig of G = H(k) - lam*I, f) triple per outer iteration
    history: list
    # some |k_i| >= k_bound - p at the final p: the gain box, not the
    # program, may have stopped k
    box_active: bool


def constraint_eval(prog: SofProgram, x) -> tuple[np.ndarray, np.ndarray]:
    """G(x) = H(k) - lambda*I and its exact partial derivatives, stacked
    (mp+1, n, n) with dG/dlambda = -I last."""
    x = np.asarray(x, dtype=float)
    if x.size != prog.mp + 1:
        raise InputError(f"decision vector length {x.size}, expected {prog.mp + 1}")
    k, lam = x[:-1], x[-1]
    n = prog.H.n
    S, v = prog.h_row(k)
    prog.partial_rows(v, S)
    S = S.reshape(prog.mp + 2, n, n)
    return S[0] - lam * prog._eye, S[1:]


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
    *,
    phase: str | None = None,
):
    """Value and gradient of f(x) + <U, Phi_p(-G(x))> with the shifted log
    barrier applied spectrally (Daleckii-Krein rule for the gradient).

    When k_bound is given, the scalar constraints |k_i| <= k_bound enter
    through the same penalty with multipliers u_box[(lo, hi) x mp]; a point
    outside the box is rejected before H(k) is evaluated.

    Two phases.  The value phase: box test, H(k) (SofProgram.h_row), eigh,
    barrier-domain test, Q'UQ, phi, value; a rejected point ends here.  The
    gradient phase: the partials of H (SofProgram.partial_rows), the
    divided differences of phi, the congruences Q'(dG)Q, gradient.  The
    default returns (value, gradient); phase="value" returns (value,
    gradient) with gradient a callable that runs the gradient phase, on x
    and u_box as they are then; phase="gradient" returns (None, gradient).
    Every value, gradient and domain decision is bit-for-bit that of
    composing constraint_eval, the objective mu*||k|| - lambda with its
    gradient (mu*k/||k||, -1) and phi evaluated as -p*log1p(-t/p), without
    their calls."""
    if phase not in (None, "value", "gradient"):
        raise InputError(f"phase {phase!r} must be None, 'value' or 'gradient'")
    x = np.ascontiguousarray(x, dtype=float)
    mp, n = prog.mp, prog.H.n
    if x.size != mp + 1:
        raise InputError(f"decision vector length {x.size}, expected {mp + 1}")
    if not 0.0 < p < math.inf:
        raise InputError(f"p {p:.8g} must be positive and finite")
    k, lam = x[:-1], x[-1]
    limit = p * (1.0 - 1e-12)
    if k_bound is not None:
        if not 0.0 < k_bound < math.inf:
            raise InputError(f"k_bound {k_bound:.8g} must be positive and finite")
        # -k_i <= k_bound, k_i <= k_bound; a program without gains has none
        z = _BOX_SIGNS * k - k_bound
        if np.maximum.reduce(z, axis=None, initial=-math.inf) >= limit:
            raise BarrierDomainError("iterate left the gain box domain")
    S, v = prog.h_row(k)
    # -(H - lam*I), not lam*I - H: that turns -0.0 entries into +0.0
    w, Q = np.linalg.eigh(-(S[0].reshape(n, n) - lam * prog._eye))
    top = np.maximum.reduce(w)
    if top >= limit:
        raise BarrierDomainError("iterate left the barrier domain", top=float(top))
    wp = w / -p  # is -w / p exactly
    phi = -p * np.log1p(wp)
    Ut = Q.T @ U @ Q
    # f = mu*||k|| - lambda, with np.linalg.norm's sqrt(k . k)
    nk = math.sqrt(k.dot(k))
    if k_bound is not None:
        if u_box is None:
            u_box = np.ones((2, mp))
        zp = z / -p

    def gradient():
        prog.partial_rows(v, S)
        # divided-difference matrix of phi on the spectrum; a pair within
        # 1e-12*(1 + |w_i| + |w_j|), the diagonal always, takes phi' at the
        # midpoint.  w ascends, so w_j - w_i >= w_{i+1} - w_i for i < j, and
        # a smallest neighbour gap above 4e-12*(1 + max|w|) leaves only the
        # diagonal, whose midpoint is w_i itself while |w| < 1e300.
        W = max(-w[0], w[-1])
        gap = np.minimum.reduce(w[1:] - w[:-1], initial=math.inf)
        if gap > 4e-12 * (1.0 + W) and W < 1e300:
            # + I: no 0/0 on the diagonal, which is overwritten
            Gamma = np.subtract.outer(phi, phi) / (np.subtract.outer(w, w) + prog._eye)
            Gamma.flat[:: n + 1] = 1.0 / (1.0 + wp)
        else:
            dw = np.subtract.outer(w, w)
            aw = np.abs(w)
            close = np.abs(dw) <= 1e-12 * (1.0 + aw[:, None] + aw[None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                Gamma = np.subtract.outer(phi, phi) / dw
            mid = 0.5 * (w[:, None] + w[None, :])
            Gamma[close] = (1.0 / (1.0 - mid / p))[close]

        M = Ut * Gamma
        dG = S.reshape(mp + 2, n, n)[1:]
        grad = np.add.reduce((M * (Q.T @ (-dG) @ Q)).reshape(mp + 1, n * n), axis=1)
        # + the gradient of f, (mu*k/||k||, -1)
        grad[:-1] += prog.mu * k / nk if nk > 0 else 0.0
        grad[-1] += -1.0
        if k_bound is not None:
            r = u_box / (1.0 + zp)
            grad[:-1] += r[1] - r[0]
        return grad

    if phase == "gradient":
        return None, gradient()
    val = prog.mu * nk - lam + float(np.add.reduce(Ut.diagonal() * phi))
    if k_bound is not None:
        phi_box = -p * np.log1p(zp)
        val += float(u_box[0] @ phi_box[0] + u_box[1] @ phi_box[1])
    if phase == "value":
        return val, gradient
    return val, gradient()


def _armijo(fun_grad, x, f, d, slope, screen):
    """Backtracking line search along d from x, where f = fun_grad(x)[0]
    and slope is the directional derivative.  `screen` (flags of
    SofProgram.screen) is asked about all MAX_LINESEARCH steps before the
    first is evaluated, and the steps it flags are skipped; a step outside
    the barrier domain, evaluated or skipped, counts as a trial and is
    backtracked from.  Each evaluated step takes the value phase,
    fun_grad(y, phase="value"), and only the accepted step runs its
    gradient phase.

    Returns (step, f, g, trials) at the accepted point, with f and g None
    when no step passes the Armijo test within MAX_LINESEARCH trials.
    """
    Y = x + _STEPS[:, None] * d
    for j, flagged in enumerate(screen(Y).tolist()):
        if flagged:
            continue
        try:
            f_try, gradient = fun_grad(Y[j], phase="value")
        except BarrierDomainError:
            continue
        if f_try <= f + ARMIJO_C * _STEPS[j] * slope:
            return float(_STEPS[j]), f_try, gradient(), j + 1
    return None, None, None, MAX_LINESEARCH


def _fd_hessian(fun_grad, x, g, screen):
    """Symmetrized finite-difference Hessian from the analytic gradient.

    Each coordinate's probes x + h0*_FD_LEVELS*e_i (+h, then -h, with h
    shrinking by 1/8 over 20 levels into the feasible strip) are one trial
    sequence.  `screen` is asked once about the probes of every coordinate
    before any is evaluated; each coordinate's unflagged probes are
    evaluated in order, the first inside the barrier domain gives the
    column, and none leaves it zero."""
    n = x.size
    H = np.zeros((n, n))
    h = (1e-6 * (1.0 + np.abs(x)))[:, None] * _FD_LEVELS
    Y = np.empty((n, len(_FD_LEVELS), n))
    Y[:] = x
    diag = np.arange(n)
    Y[diag, :, diag] += h
    skip = screen(Y.reshape(-1, n)).reshape(n, -1).tolist()
    for i in range(n):
        for j, flagged in enumerate(skip[i]):
            if flagged:
                continue
            try:
                _, gp = fun_grad(Y[i, j])
            except BarrierDomainError:
                continue
            H[:, i] = (gp - g) / h[i, j]
            break
    return 0.5 * (H + H.T)


def _newton_inner(fun_grad, x0, f, g, tol, screen_at):
    """Damped Newton minimization from x0 with f, g = fun_grad(x0) given; the
    Hessian is finite-differenced from the analytic gradient and modified
    to be positive definite.  Stops when ||g|| <= tol*(1 + |f|), after
    MAX_INNER iterations, or after an accepted step that leaves (x, f, g)
    bit for bit as they were (a step that rounds away): fun_grad and
    screen_at do not change within the call, so every later iteration
    would repeat that one, and the cap would return the same point.  Each
    iteration's finite differences and line search skip the trial points
    that screen_at(x) flags outside the barrier domain; the probes take
    only the gradient phase, fun_grad(y, phase="gradient").

    Returns (x, f, g, iters, linesearch_trials, failed).
    """
    x = np.asarray(x0, dtype=float)
    iters = trials = 0
    failed = False
    probe = lambda y: fun_grad(y, phase="gradient")
    for _ in range(MAX_INNER):
        if math.sqrt(g.dot(g)) <= tol * (1.0 + abs(float(f))):
            break
        screen = screen_at(x)
        H = _fd_hessian(probe, x, g, screen)
        w, Q = np.linalg.eigh(H)
        aw = np.abs(w)
        wmod = np.maximum(aw, 1e-8 * max(1.0, float(np.maximum.reduce(aw))))
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
        x_new = x + step * d
        # bytes, so that -0.0 becoming 0.0 counts as a move
        if (x_new.tobytes(), f_new, g_new.tobytes()) == (x.tobytes(), f, g.tobytes()):
            break
        x, f, g = x_new, f_new, g_new
    return x, f, g, iters, trials, failed


def solve_sof(prog: SofProgram, cfg: SolveConfig | None = None) -> SolveReport:
    """Outer penalty loop with spectral multiplier updates."""
    cfg = cfg or SolveConfig()
    mp, n = prog.mp, prog.H.n
    k0 = np.zeros(mp) if cfg.k0 is None else np.asarray(cfg.k0, dtype=float)
    if k0.ndim != 1:
        raise InputError(f"k0 of shape {k0.shape} must be a vector of {mp} gains")
    if k0.size != mp:
        raise InputError(f"k0 length {k0.size}, expected {mp}")
    if not 0 < cfg.k_bound < np.inf:
        raise InputError(f"k_bound {cfg.k_bound:.8g} must be positive and finite")
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
    if not (isinstance(cfg.max_outer, numbers.Integral) and cfg.max_outer >= 1):
        raise InputError(f"max_outer {cfg.max_outer} must be an integer >= 1")
    # NaN passes the objective's domain tests: the start is checked finite
    if not np.isfinite(k0).all():
        raise InputError(f"k0 {k0} must be finite")
    lam0 = cfg.lam0
    if lam0 is None:
        with np.errstate(over="ignore", invalid="ignore"):
            H0 = prog.h_eval(k0)
        if not np.isfinite(H0).all():
            raise InputError("H(k0) is not finite, so lam0 = min eig H(k0) - 1 is undefined")
        lam0 = float(np.linalg.eigvalsh(H0).min()) - 1.0
    if not -np.inf < lam0 < np.inf:
        raise InputError(f"lam0 {lam0:.8g} must be finite")
    x = np.concatenate([k0, [lam0]])

    # default trace 1, the KKT normalization for objective -lambda
    U = (cfg.u0 if cfg.u0 is not None else 1.0 / n) * np.eye(n)
    u_box = np.ones((2, mp))
    p = cfg.p0
    outer = inner_total = ls_total = 0
    prev_f = prev_viol = np.inf
    fails = stall = 0
    status = "max-iters"
    history = []
    # both read U, p and u_box as they are at the call
    fun = lambda xx, phase=None: augmented_objective(
        prog, xx, U, p, k_bound=cfg.k_bound, u_box=u_box, phase=phase
    )
    screen_at = lambda xx: prog.screen(xx, p, cfg.k_bound)

    # the start's evaluation is its only judge: a start outside the barrier
    # domain at p0, or one where the value or gradient is not finite, is
    # input the solve refuses
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, g = fun(x)
    except BarrierDomainError as exc:
        if "gain box" in str(exc):
            raise InputError(
                f"k0 entry {k0[np.argmax(np.abs(k0))]:.17g} lies outside the gain box"
                f" |k| <= {cfg.k_bound:.8g}: its barrier at p0 admits"
                f" |k| < k_bound + p0 = {cfg.k_bound + cfg.p0:.17g}"
            ) from None
        given = "the default min eig H(k0) - 1" if cfg.lam0 is None else "given"
        raise InputError(
            f"lam0 {lam0:.17g} ({given}) lies outside the barrier domain at p0:"
            f" max eig(lam0*I - H(k0)) = {exc.top:.17g}"
            f" >= p0*(1 - 1e-12) = {cfg.p0 * (1.0 - 1e-12):.17g}"
        ) from None
    if not (math.isfinite(f) and np.isfinite(g).all()):
        raise InputError(
            f"the objective or its gradient is not finite at the start: lam0 {lam0:.8g},"
            f" mu {prog.mu:.8g}, p0 {cfg.p0:.8g}"
        )

    for outer in range(1, cfg.max_outer + 1):
        if outer > 1:
            f, g = fun(x)
        x, _, g, iters, trials, failed = _newton_inner(fun, x, f, g, cfg.tol_inner, screen_at)
        inner_total += iters
        ls_total += trials

        k, lam = x[:-1], x[-1]
        w, Q = np.linalg.eigh(-(prog.h_eval(k) - lam * prog._eye))
        viol = max(0.0, float(w.max()))
        # f = mu*||k|| - lambda, as augmented_objective computes it; a Python
        # float, so the stop tests below overflow to inf without a warning
        f = float(prog.mu * math.sqrt(k.dot(k)) - lam)
        history.append((float(lam), float(-w.max()), f))

        # spectral multiplier update: congruence with phi'(Z)^(1/2)
        W = Q @ np.diag(np.sqrt(_phi_prime(w, p))) @ Q.T
        U = W @ U @ W
        U = 0.5 * (U + U.T)
        z = _BOX_SIGNS * k - cfg.k_bound
        u_box = u_box * _phi_prime(z, p)

        if (
            math.sqrt(g.dot(g)) <= TOL_STAT * (1.0 + abs(f))
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
        if viol > TOL_FEAS and viol > 0.1 * prev_viol:
            p = max(cfg.sigma * p, 1.2 * viol, 1.2 * float(z.max(initial=-np.inf)), P_MIN)
        prev_f = f
        prev_viol = viol if viol > 0 else prev_viol

    # x has not moved since the last record
    lam, min_eig, f = history[-1]
    return SolveReport(
        K=k.reshape((prog.m, prog.p), order="F"),
        lam=lam,
        outer_iters=outer,
        inner_iters=inner_total,
        linesearch_steps=ls_total,
        status=status,
        min_eig=min_eig,
        objective=f,
        k=k,
        history=history,
        box_active=bool((np.abs(k) >= cfg.k_bound - p).any()),
    )


def verify_solution(q: CharPoly, K) -> tuple[np.ndarray, bool, float]:
    """Closed-loop poles of q(k) at gain K plus a strict-stability flag and
    margin."""
    k = vec_gain(K)
    # huge gains overflow q(K): poly_roots refuses the non-finite
    # coefficients, and the refusal names the gains
    try:
        rts = poly_roots(q.at_gains(k))
    except DegenerateInputError as exc:
        if "non-finite" not in str(exc):
            raise
        listed = ",".join(f"{v:.8g}" for v in k)
        raise InputError(f"gains K = {listed} give a non-finite coefficient of q") from None
    margin = float(np.max(rts.real))
    return rts, margin < 0.0, margin
