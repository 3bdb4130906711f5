"""Hermite stability matrices in power and Lagrange bases, with scaling.

The power-basis Hermite matrix of q(s) is the Bezoutian of the imaginary
and real parts of q(j*u).  Changing to a Lagrange basis over interpolation
nodes u_1..u_n amounts to a congruence with a (confluent) Vandermonde
matrix; picking the nodes as roots of one of the two parts makes the result
block diagonal and trivially scalable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from . import stability
from .errors import DegenerateInputError, InputError, UnsupportedNodeError
from .polynomials import CharPoly, MultiPoly, poly_degree, split_re_im
from .stability import NodeSet

_BLOCK = 1 << 20  # floats in one block of congruence products


@dataclass
class HermiteForm:
    """Hermite matrix H(k) = sum_t k**E[t] * C[t] with basis metadata.

    E (T x nvars, int) holds the exponents of the monomials that occur, in
    graded order, and C (T x n x n) their real coefficient matrices.
    Polynomial entries are built from the tensor only on request, for
    display.
    """

    basis: str  # "power" | "lagrange" | "scaled-lagrange"
    E: np.ndarray
    C: np.ndarray
    nodes: NodeSet | None = None
    scaling: np.ndarray | None = None  # the diagonal S of a scaled form

    @property
    def nvars(self) -> int:
        return self.E.shape[1]

    @property
    def n(self) -> int:
        return self.C.shape[1]

    def eval_at(self, k: Sequence[float] | None = None) -> np.ndarray:
        """H(k) = sum_t k**E[t] * C[t]; k may be omitted for a constant form."""
        if k is None:
            if self.E.any():
                raise InputError("polynomial is not constant")
            k = np.zeros(self.nvars)
        k = np.asarray(k, dtype=float)
        if k.shape != (self.nvars,):
            raise InputError(f"gain vector length {k.size}, expected {self.nvars}")
        n = self.n
        return np.dot((k**self.E).prod(axis=1), self.C.reshape(-1, n * n)).reshape(n, n)

    def entry(self, i: int, j: int) -> MultiPoly:
        """1-based entry accessor matching the display convention."""
        col = self.C[:, i - 1, j - 1]
        rows = np.flatnonzero(col)
        return MultiPoly(
            self.nvars,
            {tuple(m): c for m, c in zip(self.E[rows].tolist(), col[rows].tolist())},
        )

    @property
    def entries(self) -> list[list[MultiPoly]]:
        return [
            [self.entry(i, j) for j in range(1, self.n + 1)]
            for i in range(1, self.n + 1)
        ]


# -- power basis ---------------------------------------------------------


@dataclass(frozen=True)
class _PowerPlan:
    """The index tables of `hermite_power` for one n and one list of q's
    monomials, all read-only.

    q(j*u) = b(u) + j*a(u) puts the odd powers of q in a and the even ones
    in b, so entry (i, j) of the upper triangle is zero unless i + j is even,
    and then each of its steps t takes one product: a_{j+1+t} b_{i-t} when
    i - t is even, else -a_{i-t} b_{j+1+t}.  Step k of the flat list scales
    a's row ra[k] by sign[k] against b's row rb[k]; the products of every
    monomial pair (t1, t2), t1-major, go to bin base[k] + pair[t1, t2] of a
    (step, entry, monomial) grid, entries in `_upper` order.  E holds the
    pair monomials in graded order.
    """

    E: np.ndarray
    ra: np.ndarray
    rb: np.ndarray
    sign: np.ndarray
    base: np.ndarray
    pair: np.ndarray


@functools.lru_cache(maxsize=16)
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries (i, j), i <= j, of an n x n matrix in row order, as two
    read-only index arrays (np.triu_indices(n), which costs more)."""
    ii = np.repeat(np.arange(n), np.arange(n, 0, -1))
    jj = np.concatenate([np.arange(i, n) for i in range(n)])
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


@functools.lru_cache(maxsize=16)
def _power_plan(n: int, shape: tuple[int, int], monos: bytes) -> _PowerPlan:
    Eq = np.frombuffer(monos, dtype=np.int64).reshape(shape)
    nv = shape[1]
    pairs = (Eq[:, None] + Eq[None, :]).reshape(len(Eq) ** 2, nv)
    keys = sorted(set(map(tuple, pairs.tolist())), key=lambda m: (sum(m), m))
    E = np.array(keys, dtype=np.int64).reshape(len(keys), nv)
    index = {m: t for t, m in enumerate(keys)}
    pair = np.array([index[m] for m in map(tuple, pairs.tolist())], dtype=np.intp)
    ii, jj = _upper(n)
    ra, rb, sign, base = [], [], [], []
    for e, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        for t in range(min(i, n - 1 - j) + 1 if (i + j) % 2 == 0 else 0):
            even = (i - t) % 2 == 0
            ra.append(j + 1 + t if even else i - t)
            rb.append(i - t if even else j + 1 + t)
            sign.append(1.0 if even else -1.0)
            base.append((t * len(ii) + e) * len(E))
    plan = _PowerPlan(E, np.array(ra, dtype=np.intp), np.array(rb, dtype=np.intp),
                      np.array(sign), np.array(base, dtype=np.intp), pair)
    for a in vars(plan).values():
        a.flags.writeable = False
    return plan


def hermite_power(q) -> HermiteForm:
    """Hermite matrix of q (a CharPoly or a real coefficient array) in
    the power basis: the Bezoutian of the imaginary part a and the real
    part b of q(j*u), the n-by-n quadratic form of
    (a(u)b(v) - a(v)b(u)) / (u - v), built from q's coefficient matrix over
    its monomials.

    Entry (i, j) accumulates a_{j+1+t} b_{i-t} - a_{i-t} b_{j+1+t} over t;
    each product sums its monomial pairs first-factor-major, with q's
    monomials in the order they first occur scanning the powers of s
    upward.  The order fixes the rounding, and the solver's outcomes
    follow the last ulp.  The index tables come from a plan cached per n
    and monomial list; a product that is zero because a or b lacks the
    power (see `_PowerPlan`) adds nothing to a finite q's sums and is
    skipped.
    """
    if isinstance(q, CharPoly):
        Es, Q = q.E, q.Q
    else:  # a polynomial in no gains
        Es, Q = np.zeros((1, 0), dtype=np.int64), np.asarray(q)[:, None]
    n = poly_degree(Q)
    if n < 1:
        raise DegenerateInputError("degree must be at least 1")
    order = list(dict.fromkeys(np.nonzero(Q[: n + 1])[1].tolist()))
    Eq = np.ascontiguousarray(Es[order], dtype=np.int64)
    plan = _power_plan(n, Eq.shape, Eq.tobytes())
    a, b = split_re_im(Q[: n + 1, order])

    # bincount adds each bin's weights in list order, starting from 0.0
    x, y = a[plan.ra] * plan.sign[:, None], b[plan.rb]
    prods = x[:, :, None] * y[:, None, :]
    ii, jj = _upper(n)
    shape = ((n + 1) // 2, len(ii), len(plan.E))
    bins = np.bincount((plan.base[:, None] + plan.pair).ravel(), prods.ravel(),
                       minlength=math.prod(shape))
    # the steps of each entry, added in order
    acc = np.add.reduce(bins.reshape(shape), axis=0)
    keep = acc.any(axis=0)
    C = np.zeros((int(keep.sum()), n, n))
    C[:, ii, jj] = acc[:, keep].T
    C[:, jj, ii] = acc[:, keep].T
    return HermiteForm(basis="power", E=plan.E[keep], C=C)


# -- Lagrange basis ------------------------------------------------------


def _node_weights(nodes: NodeSet, n: int, conjugate: bool) -> np.ndarray:
    """W[p, j] = C(p, r_j) * u_j**(p - r_j) so that column j applies the
    r_j-th normalized derivative at node j (conjugated for row weights)."""
    W = np.zeros((n, len(nodes)), dtype=complex)
    for j, (u, r) in enumerate(zip(nodes.values, nodes.rep_index)):
        uu = u.conjugate() if conjugate else u
        for p in range(n):
            if p >= r:
                W[p, j] = comb(p, r) * uu ** (p - r)
    return W


def _congruence_weights(nodes: NodeSet) -> tuple[np.ndarray, np.ndarray | None]:
    """(Wr, Wi): the real and imaginary parts of
    W[p*n + r, e] = Wrow[p, i] * Wcol[r, j] over the upper-triangle entries
    e = (i, j), i <= j, in row order, with Wrow and Wcol the conjugated and
    plain node weights.  W is multiplied out in real arithmetic so that no
    fused multiply-add changes its rounding.  Wi is None when W is real, as
    it is for real nodes."""
    n = len(nodes)
    Wrow = _node_weights(nodes, n, conjugate=True)
    Wcol = _node_weights(nodes, n, conjugate=False)
    iu, ju = _upper(n)
    ar, ai = Wrow.real[:, None, iu], Wrow.imag[:, None, iu]
    br, bi = Wcol.real[None, :, ju], Wcol.imag[None, :, ju]
    Wr = (ar * br - ai * bi).reshape(n * n, len(iu))
    Wi = (ar * bi + ai * br).reshape(n * n, len(iu))
    return Wr, (Wi if Wi.any() else None)


def _lagrange(HP: HermiteForm, nodes: NodeSet, weights=None) -> tuple[HermiteForm, tuple]:
    """`hermite_lagrange`, with the node weights of `_congruence_weights`
    taken as given or built after the input checks; returns the form and
    the weights."""
    n = HP.n
    if len(nodes) != n:
        raise InputError(f"need {n} nodes, got {len(nodes)}")
    if any(k == "complex" for k in nodes.kinds):
        raise UnsupportedNodeError(
            "general complex nodes are not allowed in the real symmetric form"
        )

    Wr, Wi = weights = weights or _congruence_weights(nodes)
    # C_L[t] = Wrow^T C_P[t] Wcol on the upper triangle, its real and
    # imaginary parts summed apart from 0.0, p-major, r-minor: the order
    # fixes the rounding, and the solver's outcomes follow the last ulp.  A
    # (p, r) that is zero for every monomial (half of them: the power form
    # is a checkerboard) adds only zeros for finite weights and is skipped.
    CP = HP.C.reshape(len(HP.C), n * n)
    live = np.flatnonzero(CP.any(axis=0))
    CPl = CP[:, live].T[:, :, None]

    def congruence(W):
        W = W[live, None, :]
        out = np.zeros((len(CP), W.shape[2]))
        rows = max(1, _BLOCK // max(1, W.size))  # monomials per block
        for s in range(0, len(CP), rows):
            # C order keeps (p, r) outermost: the reduction adds whole
            # blocks one after another
            prods = np.multiply(CPl[:, s : s + rows], W, order="C")
            np.add.reduce(prods, axis=0, initial=0.0, out=out[s : s + rows])
        return out

    re = congruence(Wr)
    im = None if Wi is None else congruence(Wi)
    iu, ju = _upper(n)
    if im is not None:
        scale = float(np.abs(HP.C).max(initial=0.0))
        node_mag = max((abs(u) for u in nodes.values), default=0.0)
        chop = 1e-10 * max(1.0, scale) * max(1.0, node_mag) ** (2 * (n - 1))
        bad = np.argwhere(np.abs(im.T) > chop)  # (i, j, t) order
        if bad.size:
            e, t = bad[0]
            raise DegenerateInputError(
                f"coefficient {np.complex128(complex(re[t, e], im[t, e]))} of monomial "
                f"{tuple(HP.E[t].tolist())} has non-negligible imaginary part"
            )
    keep = re.any(axis=1)
    C = np.empty((int(keep.sum()), n, n))
    C[:, iu, ju] = re[keep]
    C[:, ju, iu] = re[keep]
    return HermiteForm(basis="lagrange", E=HP.E[keep], C=C, nodes=nodes), weights


def hermite_lagrange(HP: HermiteForm, nodes: NodeSet) -> HermiteForm:
    """Hermite matrix in the Lagrange basis over the given nodes: the
    node-weight congruence W* H^P W of the caller's power form H^P = HP,
    where column j of W is the r_j-th normalized derivative of
    (1, u, ..., u^(n-1)) at node u_j and r_j counts the earlier copies of
    a repeated node (W is the Vandermonde matrix V for distinct nodes).

    Nodes must be real or purely imaginary conjugate pairs.  The product's
    real and imaginary parts are summed apart, the imaginary part only
    when W has one (imaginary nodes); an imaginary part above a threshold
    raises DegenerateInputError, and the real part is returned as a real
    symmetric form.  That is W* H^P W itself when the nodes are all real or
    all imaginary.  With both kinds, the entries coupling them have a
    genuine imaginary part that the threshold, scaled by
    max|u|^(2(n-1)), can let pass: the result is then Re(V* H^P V), whose
    positive definiteness is necessary for that of V* H^P V but not
    sufficient.
    """
    return _lagrange(HP, nodes)[0]


# -- scaling ---------------------------------------------------------------


def scaling_from_numeric(H: np.ndarray, nodes: NodeSet) -> np.ndarray:
    """Diagonal S with S_ii = |h_i|**-0.5 where h_i is the governing entry
    of row i's block in the node pattern (the diagonal for a real node, the
    off-diagonal for a conjugate pair); a block whose h_i is zero keeps
    S_ii = 1, unscaled."""
    H = np.asarray(H)
    S = np.ones(H.shape[0])
    for start, size in nodes.blocks():
        h = H[start, start] if size == 1 else H[start, start + 1]
        if h != 0:
            S[start : start + size] = abs(h) ** -0.5
    return S


def scaled_hermite(
    q, target: np.ndarray, part: str | None = None, nodes: NodeSet | None = None
) -> HermiteForm:
    """Scaled Lagrange-basis Hermite matrix of q (a CharPoly or a real
    coefficient array): nodes and the normalizing diagonal both come from
    the target polynomial's coefficient array, the nodes from the part
    that `nodes_from_target` picks unless given.  It builds the target's
    and q's power forms and the node weights once each, and is the one
    place a Lagrange form is scaled.
    """
    if nodes is None:
        nodes = stability.nodes_from_target(target, part=part)
    HT, weights = _lagrange(hermite_power(target), nodes)
    S = scaling_from_numeric(HT.eval_at(), nodes)
    HL, _ = _lagrange(hermite_power(q), nodes, weights)
    return HermiteForm(
        basis="scaled-lagrange", E=HL.E, C=HL.C * np.outer(S, S), nodes=nodes, scaling=S
    )


def power_scale(H: np.ndarray, rho: float) -> np.ndarray:
    """Congruence of the matrix H with diag(rho**(n-1), ..., rho, 1)."""
    if rho <= 0:
        raise InputError("rho must be positive")
    M = np.asarray(H, dtype=float)
    n = M.shape[0]
    d = rho ** np.arange(n - 1, -1, -1, dtype=float)
    return (d[:, None] * M) * d[None, :]


def _frobenius(M: np.ndarray) -> float:
    """||M||_F; when the sum of squares of a finite M overflows, it is
    s*||M/s||_F with s = max|M_ij|."""
    r = np.linalg.norm(M, "fro")
    if np.isinf(r) and np.isfinite(M).all():
        s = np.abs(M).max()
        r = s * np.linalg.norm(M / s, "fro")
    return r


def cond_frobenius(H: np.ndarray) -> float:
    """Frobenius-norm condition number; +inf for singular matrices and past
    the float range."""
    M = np.asarray(H, dtype=float)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return float("inf")
    with np.errstate(over="ignore"):
        return float(_frobenius(M) * _frobenius(Minv))
