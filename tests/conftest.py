import numpy as np
import pytest

from hermitesof.hermite import HermiteForm
from hermitesof.polynomials import poly_from_roots


def relerr(actual, expected):
    """Relative error against a nonzero reference value."""
    return abs(actual - expected) / abs(expected)


def random_numeric_poly(rng, degree):
    """Monic random polynomial with unit-scale coefficients."""
    coeffs = rng.standard_normal(degree + 1)
    coeffs[-1] = 1.0
    return coeffs


def random_stable_poly(rng, degree):
    """Monic polynomial with all roots strictly in the left half-plane."""
    roots = []
    d = degree
    while d > 0:
        if d >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.1, 3.0)
            im = rng.uniform(0.1, 3.0)
            roots.extend([complex(re, im), complex(re, -im)])
            d -= 2
        else:
            roots.append(complex(-rng.uniform(0.1, 3.0), 0.0))
            d -= 1
    return poly_from_roots(roots)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# -- symbolic reference paths -------------------------------------------------
#
# The package builds q(k) and the power-basis Hermite tensor with arrays.
# These are the symbolic versions it replaced, kept as references for
# equality tests.  A polynomial in the gains is a dict {exponents:
# coefficient} without zero terms; sums keep the first operand's terms in
# order and append new ones, as the package's symbolic arithmetic did, so
# the references round exactly as it did.


def _clean(terms):
    return {m: c for m, c in terms.items() if c != 0}


def padd(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return _clean(out)


def psub(p, q):
    return padd(p, {m: -c for m, c in q.items()})


def pscale(p, c):
    return _clean({m: v * c for m, v in p.items()}) if c != 0 else {}


def pmul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out)


def pack_entries(basis, entries, nvars):
    """Pack a square matrix of dict entries into a HermiteForm tensor,
    monomials in graded order."""
    n = len(entries)
    monos = sorted(
        {m for row in entries for e in row for m, c in e.items() if c != 0},
        key=lambda m: (sum(m), m),
    )
    index = {m: t for t, m in enumerate(monos)}
    E = np.array(monos, dtype=np.int64).reshape(len(monos), nvars)
    C = np.zeros((len(monos), n, n))
    for i in range(n):
        for j in range(n):
            for m, c in entries[i][j].items():
                if c != 0:
                    C[index[m], i, j] = c
    return HermiteForm(basis=basis, E=E, C=C)


def symbolic_char_poly(sys):
    """det(sI - A - B K C) by Faddeev-LeVerrier in dict arithmetic, one dict
    per power of s; it also carries rounding residue outside the gain
    support."""
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    C = np.asarray(sys.C, dtype=float)
    n = A.shape[0]
    m, p = B.shape[1], C.shape[0]
    nv = m * p
    one = (0,) * nv

    def const(v):
        return {one: v} if v != 0 else {}

    def gain(a, b):
        return {tuple(1 if v == b * m + a else 0 for v in range(nv)): 1.0}

    M = [[const(A[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            acc = M[i][j]
            for a in range(m):
                if B[i, a] == 0.0:
                    continue
                for b in range(p):
                    if C[b, j] == 0.0:
                        continue
                    acc = padd(acc, pscale(gain(a, b), B[i, a] * C[b, j]))
            M[i][j] = acc

    def matmul(X, Y):
        out = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for kk in range(n):
                x = X[i][kk]
                if not x:
                    continue
                for j in range(n):
                    if not Y[kk][j]:
                        continue
                    out[i][j] = padd(out[i][j], pmul(x, Y[kk][j]))
        return out

    def trace(X):
        acc = {}
        for i in range(n):
            acc = padd(acc, X[i][i])
        return acc

    coeffs = [{} for _ in range(n + 1)]
    coeffs[n] = const(1.0)
    Nk = [[const(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        MN = matmul(M, Nk)
        ck = pscale(trace(MN), -1.0 / k)
        coeffs[n - k] = ck
        if k < n:
            Nk = [[padd(MN[i][j], ck if i == j else {}) for j in range(n)] for i in range(n)]
    return coeffs


def symbolic_bezoutian(q):
    """Power-basis Hermite form of a CharPoly q: the Bezoutian of the
    imaginary and real parts of q(j*u), built entry by entry in dict
    arithmetic.  Every coefficient lists its terms in the order q's
    monomials first occur scanning the powers of s upward, which fixes the
    order of each product's sums."""
    monos = [tuple(e) for e in q.E.tolist()]
    rows = [_clean(dict(zip(monos, row))) for row in q.Q.tolist()]
    first = list(dict.fromkeys(m for c in rows for m in c))
    coeffs = [{m: c[m] for m in first if m in c} for c in rows]
    n = max(i for i, c in enumerate(coeffs) if c)
    # q(j*u) = b(u) + j*a(u): odd powers go to a, even ones to b, signed
    ac = [pscale(c, (-1.0) ** (i // 2)) if i % 2 else {} for i, c in enumerate(coeffs)]
    bc = [{} if i % 2 else pscale(c, (-1.0) ** (i // 2)) for i, c in enumerate(coeffs)]
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = {}
            for t in range(min(i, n - 1 - j) + 1):
                acc = psub(padd(acc, pmul(ac[j + 1 + t], bc[i - t])), pmul(ac[i - t], bc[j + 1 + t]))
            entries[i][j] = acc
            entries[j][i] = acc
    return pack_entries("power", entries, q.nvars)
