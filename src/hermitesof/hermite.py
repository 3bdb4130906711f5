"""Hermite stability matrices in power and Lagrange bases, with scaling.

The power-basis Hermite matrix of q(s) is the Bezoutian of the imaginary
and real parts of q(j*u).  Changing to a Lagrange basis over interpolation
nodes u_1..u_n amounts to a congruence with a (confluent) Vandermonde
matrix; picking the nodes as roots of one of the two parts makes the result
block diagonal and trivially scalable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InputError, UnsupportedNodeError
from .polynomials import CharPoly, MultiPoly, poly_degree, split_re_im

_NODE_TOL = 1e-9


def _node_kind(u: complex, tol: float = _NODE_TOL) -> str:
    scale = 1.0 + abs(u)
    if abs(u.imag) <= tol * scale:
        return "real"
    if abs(u.real) <= tol * scale:
        return "imag"
    return "complex"


@dataclass(frozen=True)
class NodeSet:
    """Ordered interpolation nodes, conjugate pairs adjacent."""

    values: tuple[complex, ...]
    rep_index: tuple[int, ...]  # occurrence counter within a group of equal nodes
    kinds: tuple[str, ...]

    @classmethod
    def from_values(cls, values: Sequence[complex], tol: float = _NODE_TOL) -> "NodeSet":
        vals = [complex(v) for v in values]
        kinds = [_node_kind(v, tol) for v in vals]
        reals = sorted(
            (v.real for v, k in zip(vals, kinds) if k == "real"),
            key=lambda x: (abs(x), x < 0),
        )
        others = [v for v, k in zip(vals, kinds) if k != "real"]
        # pair conjugates, positive imaginary part first
        pos = sorted(
            (v for v in others if v.imag > 0), key=lambda v: (abs(v.real), abs(v.imag))
        )
        neg = list(v for v in others if v.imag < 0)
        ordered: list[complex] = [complex(r) for r in reals]
        for v in pos:
            match = None
            for w in neg:
                if abs(w - v.conjugate()) <= tol * (1.0 + abs(v)):
                    match = w
                    break
            if match is None:
                raise UnsupportedNodeError(
                    f"node {v} has no complex-conjugate partner"
                )
            neg.remove(match)
            ordered.extend([v, match])
        if neg:
            raise UnsupportedNodeError(
                f"nodes {neg} have no complex-conjugate partners"
            )

        rep: list[int] = []
        for i, v in enumerate(ordered):
            r = 0
            for w in ordered[:i]:
                if abs(v - w) <= tol * (1.0 + abs(w)):
                    r += 1
            rep.append(r)
        return cls(
            values=tuple(ordered),
            rep_index=tuple(rep),
            kinds=tuple(_node_kind(v, tol) for v in ordered),
        )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def all_real(self) -> bool:
        return all(k == "real" for k in self.kinds)

    def blocks(self) -> list[tuple[int, int]]:
        """(start, size) block pattern: 1x1 for real nodes, 2x2 for pairs."""
        out = []
        i = 0
        while i < len(self.values):
            if self.kinds[i] == "real":
                out.append((i, 1))
                i += 1
            else:
                out.append((i, 2))
                i += 2
        return out


@dataclass
class ScalingDiag:
    """Positive diagonal scaling, with a flag for zero blocks left unscaled."""

    values: np.ndarray
    warning: bool = False


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
    scaling: ScalingDiag | None = None

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


def _terms(q) -> tuple[np.ndarray, np.ndarray]:
    """(E, Q) of a CharPoly, or of a numeric coefficient array as a
    polynomial in no gains."""
    if isinstance(q, CharPoly):
        return q.E, q.Q
    return np.zeros((1, 0), dtype=np.int64), np.asarray(q)[:, None]


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
    follow the last ulp.
    """
    Es, Q = _terms(q)
    n = poly_degree(Q)
    if n < 1:
        raise DegenerateInputError("degree must be at least 1")
    nv = Es.shape[1]
    order = list(dict.fromkeys(np.nonzero(Q[: n + 1])[1].tolist()))
    a, b = split_re_im(Q[: n + 1, order])

    # the monomial of every pair (t1, t2), t1-major, as a row of E
    Eq = Es[order]
    pairs = (Eq[:, None] + Eq[None, :]).reshape(len(Eq) ** 2, nv)
    keys = sorted(set(map(tuple, pairs.tolist())), key=lambda m: (sum(m), m))
    E = np.array(keys, dtype=np.int64).reshape(len(keys), nv)
    index = {m: t for t, m in enumerate(map(tuple, E.tolist()))}
    pidx = np.array([index[m] for m in map(tuple, pairs.tolist())], dtype=np.intp)

    def product(x, y):
        # per row: sum over monomial pairs of x[t1] * y[t2]
        out = np.zeros((len(x), len(E)))
        prods = (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)
        np.add.at(out, (np.arange(len(x))[:, None], pidx), prods)
        return out

    ii, jj = np.triu_indices(n)
    acc = np.zeros((len(ii), len(E)))
    for t in range((n + 1) // 2):
        sel = np.flatnonzero(t <= np.minimum(ii, n - 1 - jj))
        i, j = ii[sel], jj[sel]
        acc[sel] = acc[sel] + product(a[j + 1 + t], b[i - t]) - product(a[i - t], b[j + 1 + t])
    C = np.zeros((len(E), n, n))
    C[:, ii, jj] = acc.T
    C[:, jj, ii] = acc.T
    keep = acc.any(axis=0)
    return HermiteForm(basis="power", E=E[keep], C=C[keep])


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


def hermite_lagrange(q, nodes: NodeSet) -> HermiteForm:
    """Hermite matrix of q in the Lagrange basis over the given nodes: the
    node-weight congruence W* H^P W of the power form, where column j of W
    is the r_j-th normalized derivative of (1, u, ..., u^(n-1)) at node u_j
    and r_j counts the earlier copies of a repeated node (W is the
    Vandermonde matrix V for distinct nodes).

    Nodes must be real or purely imaginary conjugate pairs.  The product is
    taken in complex arithmetic; an imaginary part above a threshold raises
    DegenerateInputError, and the real part is returned as a real symmetric
    form.  That is W* H^P W itself when the nodes are all real or all
    imaginary.  With both kinds, the entries coupling them have a genuine
    imaginary part that the threshold, scaled by max|u|^(2(n-1)), can let
    pass: the result is then Re(V* H^P V), whose positive definiteness is
    necessary for that of V* H^P V but not sufficient.
    """
    _, Q = _terms(q)
    n = poly_degree(Q)
    if len(nodes) != n:
        raise InputError(f"need {n} nodes, got {len(nodes)}")
    if any(k == "complex" for k in nodes.kinds):
        raise UnsupportedNodeError(
            "general complex nodes are not allowed in the real symmetric form"
        )

    HP = hermite_power(q)
    Wrow = _node_weights(nodes, n, conjugate=True)
    Wcol = _node_weights(nodes, n, conjugate=False)
    # W[p, r, i, j] = Wrow[p, i] * Wcol[r, j], multiplied out in real
    # arithmetic so that no fused multiply-add changes its rounding
    ar, ai = Wrow.real[:, None, :, None], Wrow.imag[:, None, :, None]
    br, bi = Wcol.real[None, :, None, :], Wcol.imag[None, :, None, :]
    W = np.empty((n, n, n, n), dtype=complex)
    W.real = ar * br - ai * bi
    W.imag = ar * bi + ai * br

    # C_L[t] = Wrow^T C_P[t] Wcol, accumulated p-major, r-minor: the order
    # fixes the rounding, and the solver's outcomes follow the last ulp
    CL = np.zeros((len(HP.E), n, n), dtype=complex)
    for p in range(n):
        for r in range(n):
            CL += HP.C[:, p, r, None, None] * W[p, r]
    scale = float(np.abs(HP.C).max(initial=0.0))
    node_mag = max((abs(u) for u in nodes.values), default=0.0)
    chop = 1e-10 * max(1.0, scale) * max(1.0, node_mag) ** (2 * (n - 1))
    upper = np.triu(np.ones((n, n), dtype=bool))
    bad = np.argwhere(((np.abs(CL.imag) > chop) & upper).transpose(1, 2, 0))
    if bad.size:
        i, j, t = bad[0]
        raise DegenerateInputError(
            f"coefficient {CL[t, i, j]} of monomial {tuple(HP.E[t].tolist())} "
            "has non-negligible imaginary part"
        )
    CL = np.where(upper, CL.real, CL.real.transpose(0, 2, 1))
    keep = CL.reshape(len(CL), n * n).any(axis=1)
    return HermiteForm(basis="lagrange", E=HP.E[keep], C=CL[keep], nodes=nodes)


# -- scaling ---------------------------------------------------------------


def scaling_from_numeric(H: np.ndarray, nodes: NodeSet) -> ScalingDiag:
    """Diagonal S with S_ii = |h_i|**-0.5 where h_i is the governing entry
    of row i's block in the node pattern (the diagonal for a real node, the
    off-diagonal for a conjugate pair)."""
    H = np.asarray(H)
    values = np.ones(H.shape[0])
    warning = False
    for start, size in nodes.blocks():
        h = H[start, start] if size == 1 else H[start, start + 1]
        if h == 0:
            warning = True
            continue
        s = abs(h) ** -0.5
        for r in range(start, start + size):
            values[r] = s
    return ScalingDiag(values=values, warning=warning)


def apply_scaling(H: HermiteForm, S: ScalingDiag) -> HermiteForm:
    return HermiteForm(
        basis="scaled-lagrange",
        E=H.E,
        C=H.C * np.outer(S.values, S.values),
        nodes=H.nodes,
        scaling=S,
    )


def scaled_hermite(
    q, target: np.ndarray, part: str | None = None, nodes: NodeSet | None = None
) -> HermiteForm:
    """Scaled Lagrange-basis Hermite matrix of q (a CharPoly or a real
    coefficient array): nodes and the normalizing diagonal both come from
    the target polynomial's coefficient array, the nodes from the part
    that `nodes_from_target` picks unless given.
    """
    if nodes is None:
        from .stability import nodes_from_target

        nodes = nodes_from_target(target, part=part)
    HL_target = hermite_lagrange(target, nodes)
    S = scaling_from_numeric(HL_target.eval_at(), nodes)
    HL = hermite_lagrange(q, nodes)
    return apply_scaling(HL, S)


def power_scale(H, rho: float) -> np.ndarray:
    """Congruence with diag(rho**(n-1), ..., rho, 1)."""
    if rho <= 0:
        raise InputError("rho must be positive")
    M = H.eval_at() if isinstance(H, HermiteForm) else np.asarray(H, dtype=float)
    n = M.shape[0]
    d = rho ** np.arange(n - 1, -1, -1, dtype=float)
    return (d[:, None] * M) * d[None, :]


def cond_frobenius(H: np.ndarray) -> float:
    """Frobenius-norm condition number; +inf for singular matrices."""
    M = np.asarray(H, dtype=float)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return float("inf")
    c = float(np.linalg.norm(M, "fro") * np.linalg.norm(Minv, "fro"))
    return c
