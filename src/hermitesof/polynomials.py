"""Characteristic polynomials in the gain variables, numeric polynomials in
the frequency variable, and the display form of polynomials in the gains.

q(k) = det(sI - A - B K C) is a `CharPoly`: the exponent rows of the gain
monomials it can contain and one float coefficient per power of s and
monomial.  A numeric polynomial in s is a plain array of ascending
coefficients.  `MultiPoly` holds one sparse polynomial in the gains for
display and tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, InputError

Exponents = tuple[int, ...]


def _grlex_key(mono: Exponents):
    return (sum(mono), tuple(-e for e in mono))


class MultiPoly:
    """Sparse polynomial in the gain variables k_1..k_nvars, for display:
    a map from exponent tuples to coefficients without zero terms."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, float] | None = None):
        self.nvars = int(nvars)
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=_grlex_key):
            coeff = self.terms[mono]
            vars_part = "*".join(
                f"k{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e > 0
            )
            if vars_part:
                if coeff == 1:
                    mag = vars_part
                elif coeff == -1:
                    mag = f"-{vars_part}"
                else:
                    mag = f"{coeff:.8g}*{vars_part}"
            else:
                mag = f"{coeff:.8g}"
            pieces.append(mag)
        out = pieces[0]
        for p in pieces[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


@dataclass(frozen=True, eq=False)
class CharPoly:
    """q(k) = sum_i s**i * sum_t Q[i, t] * k**E[t].

    E (S x nvars, int) holds the exponent rows of the gain monomials q can
    contain and Q ((n+1) x S, float) their coefficients, one row per power
    of s; the leading row is the monic 1.
    """

    E: np.ndarray
    Q: np.ndarray

    @property
    def nvars(self) -> int:
        return self.E.shape[1]

    @property
    def n(self) -> int:
        """Degree in s."""
        return len(self.Q) - 1

    def at_gains(self, k: Sequence[float]) -> np.ndarray:
        """Ascending coefficients of q at a numeric gain vector.

        Each term is multiplied out gain by gain and each power's terms are
        summed one after another in support order: the order fixes the
        rounding of the coefficients, and so of the roots `verify_solution`
        reports.
        """
        k = np.asarray(k, dtype=float)
        if k.shape != (self.nvars,):
            raise InputError(f"gain vector length {k.size}, expected {self.nvars}")
        V = self.Q.copy()
        for l, e in enumerate(self.E.T):
            rows = e > 0
            V[:, rows] *= k[l] ** e[rows]
        return np.add.accumulate(V, axis=1)[:, -1]

    @property
    def coeffs(self) -> list[MultiPoly]:
        """One MultiPoly per power of s, zero terms dropped, for display."""
        monos = [tuple(e) for e in self.E.tolist()]
        return [MultiPoly(self.nvars, dict(zip(monos, row))) for row in self.Q.tolist()]


# -- numeric polynomials in s -------------------------------------------------


def poly_degree(c) -> int:
    """Highest power with a nonzero coefficient (-1 if none); c holds one
    coefficient, or one row of coefficients, per power in ascending order."""
    c = np.asarray(c)
    nz = np.flatnonzero(c.reshape(len(c), -1).any(axis=1))
    return int(nz[-1]) if nz.size else -1


def poly_from_roots(roots: Sequence[complex]) -> np.ndarray:
    """Ascending coefficients of the monic polynomial with the given roots,
    which must be closed under complex conjugation."""
    c = np.poly(np.asarray(roots, dtype=complex))  # descending order
    if np.max(np.abs(c.imag)) > 1e-9 * max(1.0, np.max(np.abs(c))):
        raise InputError("root list is not closed under complex conjugation")
    return c.real[::-1]


def split_re_im(c) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with q(j*u) = b(u) + j*a(u) for q's ascending coefficients c
    (one coefficient or one row per power): a keeps the odd powers of q and
    b the even ones, power i signed by (-1)**(i // 2)."""
    c = np.asarray(c)
    i = np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    signed = c * (-1.0) ** (i // 2)
    return np.where(i % 2 == 1, signed, 0.0), np.where(i % 2 == 0, signed, 0.0)


def optimal_rho(c) -> float:
    """Frequency scaling making |constant| and |leading| coefficients equal after
    substituting rho*s for s and renormalizing to monic."""
    c = np.asarray(c)
    n = poly_degree(c)
    if n < 1:
        raise DegenerateInputError("polynomial has no frequency dependence")
    q0, qn = c[0], c[n]
    if q0 == 0 or qn == 0:
        raise DegenerateInputError("zero constant or leading coefficient")
    return float((abs(qn) / abs(q0)) ** (1.0 / n))


# -- characteristic polynomial ------------------------------------------


def gain_support(m: int, p: int) -> np.ndarray:
    """Exponent rows of the monomials det(sI - A - B K C) can contain.

    Gain entry (a, b) is variable number b*m + a (column stacking).  By
    Cauchy-Binet every coefficient is a sum of minors of K, so a monomial
    is a squarefree product of gains whose (row, column) pairs form a
    partial permutation; its degree is at most min(m, p).  Rows come by
    degree, then in combination order over the gains taken row a outer,
    column b inner, the constant first.
    """
    gains = [(a, b) for a in range(m) for b in range(p)]
    sets = [()]
    for d in range(1, min(m, p) + 1):
        sets += [c for c in itertools.combinations(gains, d)
                 if len({a for a, _ in c}) == len({b for _, b in c}) == d]
    E = np.zeros((len(sets), m * p), dtype=np.int64)
    for row, combo in zip(E, sets):
        row[[b * m + a for a, b in combo]] = 1
    return E


@np.errstate(over="ignore", invalid="ignore")
def char_poly(sys) -> CharPoly:
    """Characteristic polynomial det(sI - A - B K C) in the gains of K.

    Runs the Faddeev-LeVerrier trace recurrence on float arrays of shape
    (n, n, S) that hold one coefficient per support monomial (see
    `gain_support`), so q(k) carries no terms outside that support.  A
    coefficient that overflows is an input error.
    """
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    C = np.asarray(sys.C, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError("A must be square")
    if B.ndim != 2 or B.shape[0] != n:
        raise InputError("B must be n-by-m")
    if C.ndim != 2 or C.shape[1] != n:
        raise InputError("C must be p-by-n")
    m, p = B.shape[1], C.shape[0]
    nv = m * p
    E = gain_support(m, p)
    index = {e: s for s, e in enumerate(map(tuple, E.tolist()))}

    # M = A + B K C: the constant, then gain (a, b) at support row
    # 1 + a*p + b.  Multiplying by M, each term of M maps the support rows
    # that contain its gain to those rows with the gain removed.  Every
    # product sums its terms per monomial in this order, and the kk and
    # trace sums run in index order: the order fixes the rounding, and the
    # solver's outcomes follow the last ulp.
    M = np.zeros((n, n, len(E)))
    M[:, :, 0] = A
    M[:, :, 1 : nv + 1] = (B[:, None, :, None] * C.T[None, :, None, :]).reshape(n, n, nv)
    terms = [(0, slice(None), slice(None))]
    for t in range(1, nv + 1):
        tgt = np.flatnonzero(E[:, E[t].argmax()])
        src = [index[tuple(e)] for e in (E[tgt] - E[t]).tolist()]
        terms.append((t, tgt, np.array(src, dtype=np.intp)))

    # c_n = 1, c_{n-k} = -tr(M N_k)/k, N_{k+1} = M N_k + c_{n-k} I, N_1 = I
    coeffs = np.zeros((n + 1, len(E)))
    coeffs[n, 0] = 1.0
    N = np.zeros((n, n, len(E)))
    N[range(n), range(n), 0] = 1.0
    for k in range(1, n + 1):
        # P[kk] = M[:, kk] * N[kk], the (i, j) products for one kk
        P = np.zeros((n, n, n, len(E)))
        for t, tgt, src in terms:
            P[:, :, :, tgt] += M[:, :, t].T[:, :, None, None] * N[:, None, :, src]
        MN = P[0]
        for kk in range(1, n):
            MN = MN + P[kk]
        tr = MN[0, 0]
        for i in range(1, n):
            tr = tr + MN[i, i]
        # + 0.0 turns the -0.0 of an exact-zero coefficient into 0.0; the
        # product, not -tr / k, fixes the rounding
        coeffs[n - k] = tr * (-1.0 / k) + 0.0
        N = MN
        N[range(n), range(n)] += coeffs[n - k]
    if not np.isfinite(coeffs).all():
        raise InputError("q(k) has a non-finite coefficient: A, B and C overflow it")
    return CharPoly(E, coeffs)


def vec_gain(K) -> list[float]:
    """Column-stack an m-by-p gain matrix into the gain vector."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    return list(K.flatten(order="F"))
