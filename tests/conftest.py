import numpy as np
import pytest

from hermitesof.hermite import HermiteForm
from hermitesof.polynomials import MultiPoly, PolyInS, split_re_im


def relerr(actual, expected):
    """Relative error against a nonzero reference value."""
    return abs(actual - expected) / abs(expected)


def random_numeric_poly(rng, degree):
    """Monic random polynomial with unit-scale coefficients."""
    coeffs = rng.standard_normal(degree + 1)
    coeffs[-1] = 1.0
    return PolyInS.from_numeric(coeffs)


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
    return PolyInS.from_roots(roots)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# -- symbolic reference paths -------------------------------------------------
#
# The package builds q(k) and the power-basis Hermite tensor with arrays.
# These are the symbolic MultiPoly versions it replaced, kept as references
# for equality tests.


def pack_entries(basis, entries, nvars):
    """Pack a square matrix of MultiPoly entries into a HermiteForm tensor,
    monomials in graded order."""
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
    return HermiteForm(basis=basis, E=E, C=C)


def symbolic_char_poly(sys):
    """det(sI - A - B K C) by Faddeev-LeVerrier over MultiPoly arithmetic;
    its q(k) also carries rounding residue outside the gain support."""
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    C = np.asarray(sys.C, dtype=float)
    n = A.shape[0]
    m, p = B.shape[1], C.shape[0]
    nv = m * p
    K = [[MultiPoly.variable(j * m + i, nv) for j in range(p)] for i in range(m)]
    zero = MultiPoly(nv)

    M = [[MultiPoly.constant(A[i, j], nv) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            acc = M[i][j]
            for a in range(m):
                if B[i, a] == 0.0:
                    continue
                for b in range(p):
                    if C[b, j] == 0.0:
                        continue
                    acc = acc + K[a][b] * (B[i, a] * C[b, j])
            M[i][j] = acc

    def matmul(X, Y):
        out = [[zero for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for kk in range(n):
                x = X[i][kk]
                if x.is_zero:
                    continue
                for j in range(n):
                    if Y[kk][j].is_zero:
                        continue
                    out[i][j] = out[i][j] + x * Y[kk][j]
        return out

    def trace(X):
        acc = zero
        for i in range(n):
            acc = acc + X[i][i]
        return acc

    coeffs = [zero for _ in range(n + 1)]
    coeffs[n] = MultiPoly.constant(1.0, nv)
    Nk = [[MultiPoly.constant(1.0 if i == j else 0.0, nv) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        MN = matmul(M, Nk)
        ck = trace(MN) * (-1.0 / k)
        coeffs[n - k] = ck
        if k < n:
            Nk = [
                [MN[i][j] + (ck if i == j else zero) for j in range(n)]
                for i in range(n)
            ]
    return PolyInS(coeffs, nvars=nv)


def symbolic_bezoutian(q):
    """Power-basis Hermite form of q: the Bezoutian of the imaginary and
    real parts of q(j*u), built entry by entry in MultiPoly arithmetic."""
    n = q.degree_actual()
    pair = split_re_im(q)
    zero = MultiPoly(q.nvars)

    def coeff(p, i):
        return p.coeffs[i] if i <= p.n else zero

    ac = [coeff(pair.a, i) for i in range(n + 1)]
    bc = [coeff(pair.b, i) for i in range(n + 1)]
    entries = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = zero
            for t in range(min(i, n - 1 - j) + 1):
                acc = acc + ac[j + 1 + t] * bc[i - t] - ac[i - t] * bc[j + 1 + t]
            entries[i][j] = acc
            entries[j][i] = acc
    return pack_entries("power", entries, q.nvars)
