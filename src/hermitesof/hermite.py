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
from .polynomials import MultiPoly, PolyInS, char_poly, split_re_im
from .systems import SystemInstance

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

    def distinct(self, tol: float = _NODE_TOL) -> bool:
        return all(r == 0 for r in self.rep_index)

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
    graded order, and C (T x n x n) their coefficient matrices: real, and
    complex only for mode="hermitian" Lagrange forms.  Polynomial entries
    are built from the tensor only on request, for display.
    """

    basis: str  # "power" | "lagrange" | "scaled-lagrange"
    E: np.ndarray
    C: np.ndarray
    nodes: NodeSet | None = None
    scaling: ScalingDiag | None = None

    @classmethod
    def from_entries(
        cls, basis: str, entries: Sequence[Sequence[MultiPoly]], nvars: int
    ) -> "HermiteForm":
        """Pack a square matrix of polynomials into the monomial tensor."""
        n = len(entries)
        monos = sorted(
            {m for row in entries for e in row for m in e.terms},
            key=lambda m: (sum(m), m),
        )
        index = {m: t for t, m in enumerate(monos)}
        E = np.array(monos, dtype=np.int64).reshape(len(monos), nvars)
        C = np.zeros((len(monos), n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for m, c in entries[i][j].terms.items():
                    C[index[m], i, j] = c
        if not C.imag.any():
            C = C.real.copy()
        return cls(basis=basis, E=E, C=C)

    @property
    def nvars(self) -> int:
        return self.E.shape[1]

    @property
    def n(self) -> int:
        return self.C.shape[1]

    def eval_at(self, k: Sequence[float] | None = None) -> np.ndarray:
        if k is None:
            if self.E.any():
                raise InputError("polynomial is not constant")
            k = np.zeros(self.nvars)
        k = np.asarray(k, dtype=float)
        if k.shape != (self.nvars,):
            raise InputError(f"gain vector length {k.size}, expected {self.nvars}")
        out = eval_terms(self.E, self.C, k)
        if np.iscomplexobj(out) and np.max(np.abs(out.imag)) <= 1e-12 * max(
            1.0, np.max(np.abs(out))
        ):
            return out.real
        return out

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


def eval_terms(E: np.ndarray, C: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_t k**E[t] * C[t] for a float gain vector k."""
    return np.tensordot(np.prod(k**E, axis=1), C, axes=1)


# -- power basis ---------------------------------------------------------


def bezoutian(a: PolyInS, b: PolyInS, n: int | None = None) -> HermiteForm:
    """Bezoutian matrix of a and b: the n-by-n quadratic form of
    (a(u)b(v) - a(v)b(u)) / (u - v), built coefficientwise."""
    if n is None:
        n = max(a.degree_actual(), b.degree_actual())
    if n < 1:
        raise DegenerateInputError("both polynomials are degenerate")
    nv = max(a.nvars, b.nvars)
    zero = MultiPoly(nv)

    def coeff(p: PolyInS, i: int) -> MultiPoly:
        if i > p.n:
            return zero
        c = p.coeffs[i]
        if c.nvars == nv:
            return c
        # lift to the common gain-variable count by zero-padding exponents
        return MultiPoly(nv, {m + (0,) * (nv - len(m)): v for m, v in c.terms.items()})

    ac = [coeff(a, i) for i in range(n + 1)]
    bc = [coeff(b, i) for i in range(n + 1)]

    entries = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = zero
            for t in range(min(i, n - 1 - j) + 1):
                acc = acc + ac[j + 1 + t] * bc[i - t] - ac[i - t] * bc[j + 1 + t]
            entries[i][j] = acc
            entries[j][i] = acc
    return HermiteForm.from_entries("power", entries, nv)


def hermite_power(q: PolyInS) -> HermiteForm:
    """Hermite matrix of q in the power basis."""
    n = q.degree_actual()
    if n < 1:
        raise DegenerateInputError("degree must be at least 1")
    pair = split_re_im(q)
    return bezoutian(pair.a, pair.b, n=n)


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


def hermite_lagrange(
    q: PolyInS, nodes: NodeSet, mode: str = "symmetric"
) -> HermiteForm:
    """Hermite matrix of q in the Lagrange basis over the given nodes.

    Distinct nodes follow the divided-difference rule with the derivative
    branch on conjugate collisions; repeated nodes take normalized higher
    derivatives (mixed multiplicities combine both).  In "symmetric" mode
    nodes must be real or purely imaginary conjugate pairs and the result
    is a real symmetric polynomial matrix; "hermitian" mode accepts general
    complex nodes but only for numeric polynomials.
    """
    n = q.degree_actual()
    if len(nodes) != n:
        raise InputError(f"need {n} nodes, got {len(nodes)}")
    if mode == "symmetric":
        if any(k == "complex" for k in nodes.kinds):
            raise UnsupportedNodeError(
                "general complex nodes are not allowed in symmetric-real mode"
            )
    elif mode == "hermitian":
        if not q.is_numeric:
            raise InputError("hermitian mode requires a numeric polynomial")
    else:
        raise InputError(f"unknown mode {mode!r}")

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
    if mode == "symmetric":
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
    keep = CL.reshape(len(CL), -1).any(axis=1)
    return HermiteForm(basis="lagrange", E=HP.E[keep], C=CL[keep], nodes=nodes)


def congruence_check(q: PolyInS, nodes: NodeSet) -> float:
    """Max entrywise deviation between the Lagrange matrix and the
    Vandermonde congruence V* H^P V of the power-basis matrix."""
    if not q.is_numeric:
        raise InputError("congruence_check requires a numeric polynomial")
    n = q.degree_actual()
    HP = hermite_power(q).eval_at()
    HL = hermite_lagrange(q, nodes, mode="hermitian").eval_at()
    V = np.vander(np.asarray(nodes.values, dtype=complex), N=n, increasing=True).T
    ref = V.conj().T @ HP @ V
    return float(np.max(np.abs(HL - ref)))


# -- scaling ---------------------------------------------------------------


def scaling_from_numeric(H: np.ndarray, nodes: NodeSet | None = None) -> ScalingDiag:
    """Diagonal S with S_ii = |h_i|**-0.5 where h_i is the governing block
    entry of row i (diagonal for 1x1 blocks, off-diagonal for 2x2 blocks)."""
    H = np.asarray(H)
    n = H.shape[0]
    if nodes is not None:
        blocks = nodes.blocks()
    else:
        blocks = []
        i = 0
        while i < n:
            if i + 1 < n and abs(H[i, i + 1]) > max(abs(H[i, i]), abs(H[i + 1, i + 1])):
                blocks.append((i, 2))
                i += 2
            else:
                blocks.append((i, 1))
                i += 1
    values = np.ones(n)
    warning = False
    for start, size in blocks:
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
    plant, target: PolyInS, part: str = "im", nodes: NodeSet | None = None
) -> HermiteForm:
    """Scaled Lagrange-basis Hermite matrix: nodes and the normalizing
    diagonal both come from the numeric target polynomial.

    `plant` is either a SystemInstance (characteristic polynomial computed
    symbolically) or an already-symbolic PolyInS.
    """
    if not target.is_numeric:
        raise InputError("target polynomial must be numeric")
    if isinstance(plant, SystemInstance):
        q = char_poly(plant)
    else:
        q = plant
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
