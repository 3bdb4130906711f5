"""Polynomial arithmetic in the gain variables and the frequency variable.

Coefficients are double-precision floats (complex in the displayed entries
of hermitian-mode Lagrange forms).  A sparse multivariate polynomial in the
gain vector k is a map from exponent tuples to coefficients; a polynomial in
the frequency variable s carries one such multivariate coefficient per power
of s.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, InputError

Exponents = tuple[int, ...]


def _grlex_key(mono: Exponents):
    return (sum(mono), tuple(-e for e in mono))


class MultiPoly:
    """Sparse multivariate polynomial in the gain variables k_1..k_nvars."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, complex] | None = None):
        self.nvars = int(nvars)
        clean: dict[Exponents, complex] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != self.nvars:
                    raise InputError(
                        f"monomial {mono} has {len(mono)} exponents, expected {self.nvars}"
                    )
                if coeff != 0:
                    clean[tuple(int(e) for e in mono)] = clean.get(tuple(mono), 0) + coeff
        self.terms = {m: c for m, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: complex, nvars: int) -> "MultiPoly":
        if value == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise InputError(f"variable index {index} out of range for {nvars} gains")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: 1.0})

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> complex:
        if not self.is_constant:
            raise InputError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, 0.0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise InputError("mixed gain-variable counts")
            return other
        return MultiPoly.constant(other, self.nvars)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return MultiPoly(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if other == 0:
                return MultiPoly(self.nvars)
            return MultiPoly(self.nvars, {m: c * other for m, c in self.terms.items()})
        if other.nvars != self.nvars:
            raise InputError("mixed gain-variable counts")
        terms: dict[Exponents, complex] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return MultiPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MultiPoly":
        return self * (1.0 / scalar)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self.is_constant and self.constant_value() == other

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- evaluation ----------------------------------------------------

    def __call__(self, k: Sequence[float] | None = None) -> complex:
        if self.nvars == 0 or k is None:
            return self.constant_value()
        if len(k) != self.nvars:
            raise InputError(f"gain vector length {len(k)}, expected {self.nvars}")
        total = 0.0
        for m, c in self.terms.items():
            v = c
            for e, ki in zip(m, k):
                if e:
                    v *= ki ** e
            total += v
        return total

    # -- formatting ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=_grlex_key):
            coeff = self.terms[mono]
            if isinstance(coeff, complex) and coeff.imag == 0:
                coeff = coeff.real
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


class PolyInS:
    """Univariate polynomial in the frequency variable with MultiPoly coefficients.

    coeffs[i] multiplies s**i; the stored length fixes the nominal degree.
    """

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs: Sequence[MultiPoly | float], nvars: int | None = None):
        if not coeffs:
            raise InputError("empty coefficient list")
        if nvars is None:
            nvars = next(
                (c.nvars for c in coeffs if isinstance(c, MultiPoly)), 0
            )
        self.nvars = nvars
        self.coeffs: list[MultiPoly] = [
            c if isinstance(c, MultiPoly) else MultiPoly.constant(c, nvars)
            for c in coeffs
        ]
        for c in self.coeffs:
            if c.nvars != nvars:
                raise InputError("inconsistent gain-variable counts in coefficients")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_numeric(cls, coeffs: Iterable[float]) -> "PolyInS":
        return cls([MultiPoly.constant(c, 0) for c in coeffs], nvars=0)

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "PolyInS":
        """Monic polynomial with the given roots; realified when conjugate-closed."""
        c = np.poly(np.asarray(roots, dtype=complex))  # descending order
        if np.max(np.abs(c.imag)) <= 1e-9 * max(1.0, np.max(np.abs(c))):
            c = c.real
        else:
            raise InputError("root list is not closed under complex conjugation")
        return cls.from_numeric(list(c[::-1]))

    # -- queries -------------------------------------------------------

    @property
    def n(self) -> int:
        """Nominal degree (length of the coefficient array minus one)."""
        return len(self.coeffs) - 1

    def degree_actual(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[i].is_zero:
                return i
        return -1

    @property
    def is_numeric(self) -> bool:
        return all(c.is_constant for c in self.coeffs)

    def numeric_coeffs(self) -> np.ndarray:
        """Ascending-power real coefficient array; raises if symbolic."""
        vals = [complex(c.constant_value()) for c in self.coeffs]
        arr = np.asarray(vals)
        if np.max(np.abs(arr.imag)) > 1e-12 * max(1.0, np.max(np.abs(arr))):
            return arr
        return arr.real

    # -- operations ----------------------------------------------------

    def at_gains(self, k: Sequence[float]) -> "PolyInS":
        """Substitute a numeric gain vector, yielding a numeric polynomial."""
        return PolyInS.from_numeric([c(k) for c in self.coeffs])

    def eval(self, s: complex, k: Sequence[float] | None = None):
        """Horner evaluation at s; symbolic in k when k is None and nvars > 0."""
        if k is not None:
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * s + c(k)
            return acc
        acc = MultiPoly(self.nvars)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc if self.nvars else acc.constant_value()

    def diff(self, order: int = 1) -> "PolyInS":
        """Derivative in the frequency variable."""
        if order < 1:
            raise InputError("derivative order must be >= 1")
        coeffs = self.coeffs
        for _ in range(order):
            if len(coeffs) == 1:
                coeffs = [MultiPoly(self.nvars)]
                continue
            coeffs = [coeffs[i] * i for i in range(1, len(coeffs))]
        return PolyInS(coeffs, nvars=self.nvars)

    def __mul__(self, other: "PolyInS") -> "PolyInS":
        nv = max(self.nvars, other.nvars)
        out = [MultiPoly(nv) for _ in range(self.n + other.n + 1)]
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return PolyInS(out, nvars=nv)

    def __str__(self) -> str:
        pieces = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            spow = "" if i == 0 else ("s" if i == 1 else f"s^{i}")
            body = str(c)
            if not c.is_constant and spow:
                body = f"({body})"
            pieces.append(f"{body}{'*' if spow and c.is_constant else ''}{spow}")
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"PolyInS({self})"


class ReImPair:
    """Imaginary/real parts of q(j*u): a holds odd powers, b even powers of u."""

    __slots__ = ("a", "b")

    def __init__(self, a: PolyInS, b: PolyInS):
        self.a = a
        self.b = b


def split_re_im(q: PolyInS) -> ReImPair:
    """Decompose q(j*u) = b(u) + j*a(u) with real coefficient polynomials."""
    n = q.n
    nv = q.nvars
    za = [MultiPoly(nv) for _ in range(n + 1)]
    zb = [MultiPoly(nv) for _ in range(n + 1)]
    for i, c in enumerate(q.coeffs):
        if i % 2 == 0:
            zb[i] = c * float((-1) ** (i // 2))
        else:
            za[i] = c * float((-1) ** ((i - 1) // 2))
    return ReImPair(PolyInS(za, nvars=nv), PolyInS(zb, nvars=nv))


def optimal_rho(q: PolyInS) -> float:
    """Frequency scaling making |constant| and |leading| coefficients equal after
    substituting rho*s for s and renormalizing to monic."""
    if not q.is_numeric:
        raise InputError("optimal_rho requires a numeric polynomial")
    c = q.numeric_coeffs()
    n = q.degree_actual()
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


def char_poly(sys) -> PolyInS:
    """Characteristic polynomial det(sI - A - B K C) with symbolic K.

    Runs the Faddeev-LeVerrier trace recurrence on float arrays of shape
    (n, n, S) that hold one coefficient per support monomial (see
    `gain_support`), so q(k) carries no terms outside that support.
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
        coeffs[n - k] = tr * (-1.0 / k)
        N = MN
        N[range(n), range(n)] += coeffs[n - k]
    monos = [tuple(e) for e in E.tolist()]
    return PolyInS(
        [MultiPoly(nv, dict(zip(monos, c))) for c in coeffs], nvars=nv
    )


def vec_gain(K) -> list[float]:
    """Column-stack an m-by-p gain matrix into the gain vector."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    return list(K.flatten(order="F"))
