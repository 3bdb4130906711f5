"""Characteristic polynomials in the gain variables, numeric polynomials in
the frequency variable, and the display form of polynomials in the gains.

q(k) = det(sI - A - B K C) is a `CharPoly`: the exponent rows of the gain
monomials it can contain and one float coefficient per power of s and
monomial.  A numeric polynomial in s is a plain array of ascending
coefficients.  `MultiPoly` holds one sparse polynomial in the gains for
display and tests.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, InputError

Exponents = tuple[int, ...]


def _grlex_key(mono: Exponents):
    return (sum(mono), tuple(-e for e in mono))


def _monomial_name(mono: Exponents) -> str:
    return "*".join(f"k{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e > 0)


def _poly_text(terms) -> str:
    """Display text of a polynomial in the gains from its (monomial name,
    coefficient) pairs, nonzero coefficients in display order."""
    out = ""
    for name, coeff in terms:
        if not name:
            piece = f"{coeff:.8g}"
        elif coeff == 1:
            piece = name
        elif coeff == -1:
            piece = f"-{name}"
        else:
            piece = f"{coeff:.8g}*{name}"
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"


def poly_texts(E: np.ndarray, coeffs: np.ndarray) -> list[str]:
    """Display text of the polynomials sum_t coeffs[t, c] * k**E[t], one per
    column c, each as `MultiPoly` prints it; the monomials (distinct rows
    of E) are ordered and named once for all columns."""
    monos = E.tolist()
    order = sorted(range(len(monos)), key=lambda t: _grlex_key(monos[t]))
    names = [_monomial_name(monos[t]) for t in order]
    return [_poly_text((name, c) for name, c in zip(names, col) if c != 0)
            for col in np.asarray(coeffs)[order].T.tolist()]


class MultiPoly:
    """Sparse polynomial in the gain variables k_1..k_nvars, for display:
    a map from exponent tuples to coefficients without zero terms."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, float] | None = None):
        self.nvars = int(nvars)
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    def __str__(self) -> str:
        return _poly_text((_monomial_name(m), self.terms[m])
                          for m in sorted(self.terms, key=_grlex_key))

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


@dataclass(frozen=True)
class _CharPolyPlan:
    """The index tables of `char_poly` for one (m, p), all read-only.

    E holds the `gain_support` rows.  Row s of degree d sums d + 1
    products, l = 0..d: M's term t[l, s] times N's slot src[l, s], first
    the constant term times slot s, then one per gain of s, in M's term
    order, times the slot with that gain removed.  For l > d the product
    is the constant term times slot S, an extra slot of N that holds zeros.
    """

    E: np.ndarray
    t: np.ndarray
    src: np.ndarray


@functools.lru_cache(maxsize=16)
def _char_poly_plan(m: int, p: int) -> _CharPolyPlan:
    gains = [(a, b) for a in range(m) for b in range(p)]
    sets = [()]
    for d in range(1, min(m, p) + 1):
        sets += [c for c in itertools.combinations(gains, d)
                 if len({a for a, _ in c}) == len({b for _, b in c}) == d]
    E = np.zeros((len(sets), m * p), dtype=np.int64)
    for row, combo in zip(E, sets):
        row[[b * m + a for a, b in combo]] = 1
    index = {combo: s for s, combo in enumerate(sets)}
    S, L = len(sets), min(m, p) + 1
    t = np.zeros((L, S + 1), dtype=np.intp)
    src = np.full((L, S + 1), S, dtype=np.intp)
    src[0, :S] = range(S)
    for s, combo in enumerate(sets):
        # a combination lists its gains in M's term order: gain (a, b) is
        # term 1 + a*p + b
        for l, (a, b) in enumerate(combo, start=1):
            t[l, s] = 1 + a * p + b
            src[l, s] = index[combo[: l - 1] + combo[l:]]
    for arr in (E, t, src):
        arr.flags.writeable = False
    return _CharPolyPlan(E, t, src)


def gain_support(m: int, p: int) -> np.ndarray:
    """Exponent rows of the monomials det(sI - A - B K C) can contain.

    Gain entry (a, b) is variable number b*m + a (column stacking).  By
    Cauchy-Binet every coefficient is a sum of minors of K, so a monomial
    is a squarefree product of gains whose (row, column) pairs form a
    partial permutation; its degree is at most min(m, p).  Rows come by
    degree, then in combination order over the gains taken row a outer,
    column b inner, the constant first.
    """
    return _char_poly_plan(m, p).E.copy()


@np.errstate(over="ignore", invalid="ignore")
def char_poly(sys) -> CharPoly:
    """Characteristic polynomial det(sI - A - B K C) in the gains of K.

    Runs the Faddeev-LeVerrier trace recurrence on float arrays of shape
    (n, n, S) that hold one coefficient per support monomial (see
    `gain_support`), so q(k) carries no terms outside that support.  The
    index tables come from a plan cached per (m, p).  A coefficient that
    overflows is an input error.
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
    plan = _char_poly_plan(m, p)
    S = len(plan.E)

    # M = A + B K C: the constant, then gain (a, b) as term 1 + a*p + b,
    # each taken transposed, (kk, i), against N's rows kk.  Every slot of
    # a product sums its terms in term order, and the kk and trace sums run
    # in index order (axis-0 reductions add row after row): the order fixes
    # the rounding, and the solver's outcomes follow the last ulp.
    M = np.concatenate([A.T[:, :, None], (C.T[:, None, None, :] * B[None, :, :, None])
                        .reshape(n, n, m * p)], axis=2)
    Mt = M[:, :, plan.t].transpose(2, 0, 1, 3)[:, :, :, None]  # (l, kk, i, 1, slot)

    # c_n = 1, c_{n-k} = -tr(M N_k)/k, N_{k+1} = M N_k + c_{n-k} I, N_1 = I
    coeffs = np.zeros((n + 1, S))
    coeffs[n, 0] = 1.0
    N = np.zeros((n, n, S + 1))
    N.reshape(n * n, S + 1)[:: n + 1, 0] = 1.0
    for k in range(1, n + 1):
        # P[kk] = M[:, kk] * N[kk], the (i, j) products for one kk
        # C order puts l, then kk, outermost, so that each reduction adds
        # whole blocks one after another
        prods = np.multiply(Mt, N[:, :, plan.src].transpose(2, 0, 1, 3)[:, :, None], order="C")
        P = np.add.reduce(prods, axis=0)
        N = np.add.reduce(P, axis=0)  # M N_k
        diag = N.reshape(n * n, S + 1)[:: n + 1, :S]
        # + 0.0 turns the -0.0 of an exact-zero coefficient into 0.0; the
        # product, not -tr / k, fixes the rounding
        coeffs[n - k] = np.add.reduce(diag, axis=0) * (-1.0 / k) + 0.0
        diag += coeffs[n - k]
    if not np.isfinite(coeffs).all():
        raise InputError("q(k) has a non-finite coefficient: A, B and C overflow it")
    return CharPoly(plan.E.copy(), coeffs)


def vec_gain(K) -> list[float]:
    """Column-stack an m-by-p gain matrix into the gain vector."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    return list(K.flatten(order="F"))
