import itertools
import json
from math import comb
from pathlib import Path

import numpy as np
import pytest

from hermitesof.errors import (
    DegenerateInputError,
    InputError,
    UnsupportedNodeError,
)
from hermitesof.hermite import (
    HermiteForm,
    NodeSet,
    hermite_lagrange,
    hermite_power,
    scaling_from_numeric,
)
from hermitesof.polynomials import CharPoly, poly_degree, poly_from_roots
from hermitesof.stability import roots


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


# -- stability and congruence oracles -----------------------------------------
#
# Checks that only the tests call: a root-based Hurwitz test, the Routh
# array, root interlacing of the split parts, and the Vandermonde congruence
# between the Lagrange and power bases.

MARGINAL = 1e-9  # the imaginary-part and separation margin of interlacing_check


def is_hurwitz(q) -> tuple[bool, float]:
    """(stable, margin): stable iff every root has strictly negative real part;
    margin is the largest real part."""
    rts = roots(q)
    margin = float(np.max(rts.real))
    return margin < 0.0, margin


def routh_hurwitz(q) -> bool:
    """Tabular Routh array test; zero first-column pivots fall back to an
    epsilon perturbation."""
    c = np.asarray(q, dtype=float)
    d = poly_degree(c)
    if d < 1:
        raise DegenerateInputError("degree must be at least 1")
    if c[d] < 0:
        c = -c
    desc = c[d::-1]
    width = (d + 2) // 2
    row0 = np.zeros(width)
    row1 = np.zeros(width)
    row0[: len(desc[0::2])] = desc[0::2]
    row1[: len(desc[1::2])] = desc[1::2]
    scale = np.max(np.abs(desc))
    eps = 1e-30 * max(scale, 1.0)
    first_col = [row0[0]]
    prev, cur = row0, row1
    for _ in range(d):
        pivot = cur[0]
        if pivot == 0.0:
            pivot = eps
        first_col.append(pivot)
        nxt = np.zeros(width)
        for j in range(width - 1):
            nxt[j] = (pivot * prev[j + 1] - prev[0] * cur[j + 1]) / pivot
        prev, cur = cur, nxt
    return all(v > 0 for v in first_col)


def interlacing_check(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff the roots of both split parts a, b (see `split_re_im`) are
    real and strictly interlace."""
    da, db = poly_degree(a), poly_degree(b)
    parts = [p for p, d in ((a, da), (b, db)) if d >= 1]
    for p in parts:
        for r in roots(p):
            if abs(r.imag) > MARGINAL * (1.0 + abs(r)):
                return False
    if da < 1 or db < 1:
        return True  # a constant part interlaces vacuously
    ra, rb = roots(a), roots(b)
    sa = np.sort(ra.real)
    sb = np.sort(rb.real)
    if abs(len(sa) - len(sb)) != 1:
        return False
    lo, hi = (sa, sb) if len(sa) > len(sb) else (sb, sa)
    # strict alternation: each short-list root sits strictly between
    # consecutive long-list roots
    for i, r in enumerate(hi):
        if not (lo[i] + MARGINAL < r < lo[i + 1] - MARGINAL):
            return False
    return True


def congruence_check(q, nodes: NodeSet) -> float:
    """Max entrywise deviation between the Lagrange matrix and the
    Vandermonde congruence V* H^P V of the power-basis matrix, for a
    numeric coefficient array q."""
    HP = hermite_power(q).eval_at()
    n = len(HP)
    HL = hermite_lagrange(hermite_power(q), nodes).eval_at()
    V = np.vander(np.asarray(nodes.values, dtype=complex), N=n, increasing=True).T
    ref = V.conj().T @ HP @ V
    return float(np.max(np.abs(HL - ref)))


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


# -- the construction code the package replaced -------------------------------
#
# `char_poly` and the Lagrange congruence as they were before their index
# tables became plans cached per shape and the congruence was split into
# real and imaginary sums; the package must match them byte for byte.


def reference_gain_support(m: int, p: int) -> np.ndarray:
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
def reference_char_poly(sys) -> CharPoly:
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
    E = reference_gain_support(m, p)
    index = {e: s for s, e in enumerate(map(tuple, E.tolist()))}

    M = np.zeros((n, n, len(E)))
    M[:, :, 0] = A
    M[:, :, 1 : nv + 1] = (B[:, None, :, None] * C.T[None, :, None, :]).reshape(n, n, nv)
    terms = [(0, slice(None), slice(None))]
    for t in range(1, nv + 1):
        tgt = np.flatnonzero(E[:, E[t].argmax()])
        src = [index[tuple(e)] for e in (E[tgt] - E[t]).tolist()]
        terms.append((t, tgt, np.array(src, dtype=np.intp)))

    coeffs = np.zeros((n + 1, len(E)))
    coeffs[n, 0] = 1.0
    N = np.zeros((n, n, len(E)))
    N[range(n), range(n), 0] = 1.0
    for k in range(1, n + 1):
        P = np.zeros((n, n, n, len(E)))
        for t, tgt, src in terms:
            P[:, :, :, tgt] += M[:, :, t].T[:, :, None, None] * N[:, None, :, src]
        MN = P[0]
        for kk in range(1, n):
            MN = MN + P[kk]
        tr = MN[0, 0]
        for i in range(1, n):
            tr = tr + MN[i, i]
        coeffs[n - k] = tr * (-1.0 / k) + 0.0
        N = MN
        N[range(n), range(n)] += coeffs[n - k]
    if not np.isfinite(coeffs).all():
        raise InputError("q(k) has a non-finite coefficient: A, B and C overflow it")
    return CharPoly(E, coeffs)


def _reference_node_weights(nodes: NodeSet, n: int, conjugate: bool) -> np.ndarray:
    W = np.zeros((n, len(nodes)), dtype=complex)
    for j, (u, r) in enumerate(zip(nodes.values, nodes.rep_index)):
        uu = u.conjugate() if conjugate else u
        for p in range(n):
            if p >= r:
                W[p, j] = comb(p, r) * uu ** (p - r)
    return W


def reference_hermite_lagrange(q, nodes: NodeSet) -> HermiteForm:
    """The Lagrange form in complex arithmetic over the full n x n
    product, from the package's power form (see symbolic_bezoutian)."""
    Q = q.Q if isinstance(q, CharPoly) else np.asarray(q)[:, None]
    n = poly_degree(Q)
    if len(nodes) != n:
        raise InputError(f"need {n} nodes, got {len(nodes)}")
    if any(k == "complex" for k in nodes.kinds):
        raise UnsupportedNodeError(
            "general complex nodes are not allowed in the real symmetric form"
        )

    HP = hermite_power(q)
    Wrow = _reference_node_weights(nodes, n, conjugate=True)
    Wcol = _reference_node_weights(nodes, n, conjugate=False)
    ar, ai = Wrow.real[:, None, :, None], Wrow.imag[:, None, :, None]
    br, bi = Wcol.real[None, :, None, :], Wcol.imag[None, :, None, :]
    W = np.empty((n, n, n, n), dtype=complex)
    W.real = ar * br - ai * bi
    W.imag = ar * bi + ai * br

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


def reference_scaled_hermite(q, target, nodes: NodeSet) -> HermiteForm:
    S = scaling_from_numeric(reference_hermite_lagrange(target, nodes).eval_at(), nodes)
    HL = reference_hermite_lagrange(q, nodes)
    return HermiteForm(
        basis="scaled-lagrange", E=HL.E, C=HL.C * np.outer(S, S), nodes=nodes, scaling=S
    )


# -- instance files -----------------------------------------------------------


def save_instance(sys, path) -> None:
    """Write a plant as an instance file that `load_instance` reads."""
    Path(path).write_text(
        json.dumps(
            {
                "name": sys.name,
                "A": sys.A.tolist(),
                "B": sys.B.tolist(),
                "C": sys.C.tolist(),
            },
            indent=1,
        )
    )
