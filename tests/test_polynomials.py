"""Polynomial arithmetic, characteristic polynomials, and coefficient splits."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermitesof.errors import DegenerateInputError, InputError
from hermitesof.polynomials import (
    MultiPoly,
    PolyInS,
    char_poly,
    optimal_rho,
    split_re_im,
    vec_gain,
)
from hermitesof.systems import SystemInstance

from conftest import random_numeric_poly, relerr, symbolic_char_poly
from test_hermite import _planted_plant


NV = 3


@st.composite
def multipolys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(NV))
        terms[mono] = float(draw(st.integers(-4, 4)))
    return MultiPoly(NV, terms)


@settings(max_examples=60, deadline=None)
@given(multipolys(), multipolys(), multipolys())
def test_multipoly_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + q == q + p


def test_multipoly_no_zero_terms():
    p = MultiPoly(2, {(1, 0): 3.0}) - MultiPoly(2, {(1, 0): 3.0})
    assert p.is_zero
    assert p.terms == {}


def _nn1():
    return SystemInstance(
        name="NN1",
        A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 13.0, 0.0]],
        B=[[0.0], [0.0], [1.0]],
        C=[[0.0, 5.0, -1.0], [-1.0, -1.0, 0.0]],
    )


def test_char_poly_nn1_closed_form():
    # det(sI - A - BKC) = s^3 + k1 s^2 + (k2 - 5 k1 - 13) s + k2
    q = char_poly(_nn1())
    k1 = MultiPoly.variable(0, 2)
    k2 = MultiPoly.variable(1, 2)
    assert q.coeffs[3] == MultiPoly.constant(1.0, 2)
    assert q.coeffs[2] == k1
    assert q.coeffs[1] == k2 - k1 * 5.0 - 13.0
    assert q.coeffs[0] == k2


def test_char_poly_matches_numeric_determinant(rng):
    for _ in range(6):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        sys = SystemInstance(name="rand", A=A, B=B, C=C)
        q = char_poly(sys)
        for _ in range(20):
            s = complex(rng.standard_normal(), rng.standard_normal())
            k = rng.standard_normal(m * p)
            K = k.reshape((m, p), order="F")
            ref = np.linalg.det(s * np.eye(n) - A - B @ K @ C)
            val = q.eval(s, k)
            assert abs(val - ref) <= 1e-9 * (1.0 + abs(ref))


def _bareiss_det(M):
    """Fraction-free determinant of a square matrix of Fractions."""
    M = [row[:] for row in M]
    n = len(M)
    sign = Fraction(1)
    prev = Fraction(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def test_char_poly_matches_exact_bareiss(rng):
    # exact rational cross-check at integer data points
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = rng.integers(-3, 4, (n, n))
        B = rng.integers(-3, 4, (n, 1))
        C = rng.integers(-3, 4, (2, n))
        sys = SystemInstance(name="int", A=A, B=B, C=C)
        q = char_poly(sys)
        k = rng.integers(-2, 3, 2)
        s = int(rng.integers(-3, 4))
        M = s * np.eye(n, dtype=int) - A - B @ k.reshape(1, 2) @ C
        exact = _bareiss_det([[Fraction(int(v)) for v in row] for row in M])
        val = q.eval(float(s), k.astype(float))
        assert abs(val - float(exact)) <= 1e-9 * (1.0 + abs(float(exact)))


def test_char_poly_no_input_is_gain_free(rng):
    n = 4
    A = rng.standard_normal((n, n))
    sys = SystemInstance(name="nofb", A=A, B=np.zeros((n, 2)), C=np.eye(n)[:1])
    q = char_poly(sys)
    assert all(c.is_constant for c in q.coeffs)
    ref = np.poly(A)[::-1]
    for i, c in enumerate(q.coeffs):
        assert abs(c.constant_value() - ref[i]) <= 1e-9 * (1.0 + abs(ref[i]))


def _on_support(mono, m):
    """Multi-affine, with the gains' (row, column) pairs a partial permutation."""
    if max(mono, default=0) > 1:
        return False
    pairs = [(v % m, v // m) for v, e in enumerate(mono) if e]
    return len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1)
)
def test_char_poly_support_is_multi_affine(n, m, p, seed):
    rng = np.random.default_rng(seed)
    sys = SystemInstance(
        name="rand",
        A=rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
    )
    q = char_poly(sys)
    for c in q.coeffs:
        for mono in c.terms:
            assert _on_support(mono, m), mono
            assert sum(mono) <= min(m, p, n), mono


def test_char_poly_equals_symbolic_reference_on_support():
    # the symbolic recurrence reaches the same support coefficients bit for
    # bit; everything else it produces is rounding residue
    plants = [_nn1()] + [
        _planted_plant(seed, *shape)
        for seed, shape in enumerate([(4, 1, 2), (4, 2, 1), (4, 2, 2), (5, 1, 3), (6, 2, 2)])
    ]
    for sys in plants:
        q, ref = char_poly(sys), symbolic_char_poly(sys)
        for c, r in zip(q.coeffs, ref.coeffs):
            on = {mono: v for mono, v in r.terms.items() if _on_support(mono, sys.m)}
            assert c.terms == on
            assert list(c.terms) == list(on)
            scale = max(abs(v) for v in r.terms.values())
            for mono, v in r.terms.items():
                if mono not in on:
                    assert abs(v) <= 1e-12 * scale, mono


def test_system_dimension_mismatch():
    with pytest.raises(InputError):
        SystemInstance(
            name="bad", A=[[0.0, 1.0], [0.0, 0.0]], B=[[1.0]], C=[[1.0, 0.0]]
        )


def test_split_re_im_pure_even():
    pair = split_re_im(PolyInS.from_numeric([1.0, 0.0, 1.0]))  # s^2 + 1
    assert all(c.is_zero for c in pair.a.coeffs)
    ref = [1.0, 0.0, -1.0]
    for i, c in enumerate(pair.b.coeffs):
        assert c.constant_value() == ref[i]


def test_split_re_im_cubic_symbolic():
    # q = s^3 + q2 s^2 + q1 s + q0 -> a = -u^3 + q1 u, b = -q2 u^2 + q0
    q = char_poly(_nn1())
    pair = split_re_im(q)
    assert pair.a.coeffs[3] == MultiPoly.constant(-1.0, 2)
    assert pair.a.coeffs[1] == q.coeffs[1]
    assert pair.a.coeffs[0].is_zero and pair.a.coeffs[2].is_zero
    assert pair.b.coeffs[2] == -q.coeffs[2]
    assert pair.b.coeffs[0] == q.coeffs[0]
    assert pair.b.coeffs[1].is_zero and pair.b.coeffs[3].is_zero


def test_split_re_im_reconstruction(rng):
    for _ in range(30):
        deg = int(rng.integers(1, 10))
        q = random_numeric_poly(rng, deg)
        pair = split_re_im(q)
        for u in rng.standard_normal(20):
            lhs = q.eval(1j * u)
            rhs = pair.b.eval(u) + 1j * pair.a.eval(u)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_eval_symbolic_constant_term():
    k2 = MultiPoly.variable(1, 2)
    nv2 = MultiPoly(2)
    q = PolyInS([k2, nv2, nv2, MultiPoly.constant(1.0, 2)], nvars=2)
    assert q.eval(0.0, None) == k2


def test_eval_at_root():
    a = PolyInS.from_numeric([0.0, 11.0, 0.0, -1.0])  # -u^3 + 11u
    assert abs(a.eval(np.sqrt(11.0))) <= 1e-9


def test_differentiate_power_rule():
    q = char_poly(_nn1())
    a = split_re_im(q).a
    da = a.diff()  # -3u^2 + q1
    assert da.coeffs[2] == MultiPoly.constant(-3.0, 2)
    assert da.coeffs[0] == q.coeffs[1]
    assert abs(da.at_gains([0.0, 0.0]).eval(0.0) - (-13.0)) <= 1e-12


def test_differentiate_beyond_degree():
    p = PolyInS.from_numeric([1.0, 2.0, 3.0])
    d3 = p.diff(order=3)
    assert all(c.is_zero for c in d3.coeffs)


def test_differentiate_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(20):
        p = random_numeric_poly(rng, int(rng.integers(1, 9)))
        dp = p.diff()
        for u in rng.uniform(-1.0, 1.0, 5):
            fd = (p.eval(u + h) - p.eval(u - h)) / (2.0 * h)
            assert abs(dp.eval(u) - fd) <= 1e-5 * (1.0 + abs(fd))


def test_optimal_rho_values():
    ac4 = PolyInS.from_numeric([-66.837750, -1330.6306, 130.03210, 150.92600, 1.0])
    assert relerr(optimal_rho(ac4), 0.35000) <= 1e-3
    assert optimal_rho(PolyInS.from_numeric([1.0, 0.3, 1.0])) == 1.0
    assert optimal_rho(PolyInS.from_numeric([4.0, 0.0, 1.0])) == 0.5


def test_optimal_rho_rejects_zero_endpoints():
    with pytest.raises(DegenerateInputError):
        optimal_rho(PolyInS.from_numeric([0.0, 1.0, 1.0]))


def test_vec_gain_column_stacking():
    assert vec_gain([[1.0, 2.0], [3.0, 4.0]]) == [1.0, 3.0, 2.0, 4.0]
