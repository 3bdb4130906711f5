"""Characteristic polynomials, numeric polynomials, and coefficient splits."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermitesof.errors import DegenerateInputError, InputError
from hermitesof.polynomials import (
    MultiPoly,
    char_poly,
    optimal_rho,
    poly_from_roots,
    split_re_im,
    vec_gain,
)
from hermitesof.systems import SystemInstance

from conftest import random_numeric_poly, relerr, symbolic_char_poly
from test_hermite import _planted_plant


def _val(c, s):
    """Value at s of the polynomial with ascending coefficients c."""
    return np.polyval(np.asarray(c)[::-1], s)


def test_multipoly_no_zero_terms():
    p = MultiPoly(2, {(1, 0): 3.0, (0, 1): 0.0, (0, 0): 0.0})
    assert p.terms == {(1, 0): 3.0}
    assert MultiPoly(2, {(1, 0): 0.0}).terms == {}


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
    assert q.E.tolist() == [[0, 0], [1, 0], [0, 1]]  # 1, k1, k2
    assert q.Q.tolist() == [[0.0, 0.0, 1.0], [-13.0, -5.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]


@pytest.mark.parametrize(
    "plant", [_nn1(), _planted_plant(2, 4, 2, 2)], ids=["NN1", "planted-4x2x2"]
)
def test_char_poly_writes_no_negative_zeros(plant):
    Q = char_poly(plant).Q
    assert (Q == 0).any()
    assert not np.signbit(Q[Q == 0]).any()


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
            val = _val(q.at_gains(k), s)
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
        val = _val(q.at_gains(k.astype(float)), float(s))
        assert abs(val - float(exact)) <= 1e-9 * (1.0 + abs(float(exact)))


def test_char_poly_no_input_is_gain_free(rng):
    n = 4
    A = rng.standard_normal((n, n))
    sys = SystemInstance(name="nofb", A=A, B=np.zeros((n, 2)), C=np.eye(n)[:1])
    q = char_poly(sys)
    assert not q.Q[:, 1:].any()  # the constant is the first support row
    ref = np.poly(A)[::-1]
    for i, c in enumerate(q.Q[:, 0]):
        assert abs(c - ref[i]) <= 1e-9 * (1.0 + abs(ref[i]))


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
    for mono in map(tuple, q.E[q.Q.any(axis=0)].tolist()):
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
        monos = [tuple(e) for e in q.E.tolist()]
        for row, r in zip(q.Q, ref):
            on = {mono: v for mono, v in r.items() if _on_support(mono, sys.m)}
            got = {monos[t]: row[t] for t in np.flatnonzero(row)}
            assert got == on
            assert list(got) == list(on)
            scale = max(abs(v) for v in r.values())
            for mono, v in r.items():
                if mono not in on:
                    assert abs(v) <= 1e-12 * scale, mono


def test_system_dimension_mismatch():
    with pytest.raises(InputError):
        SystemInstance(
            name="bad", A=[[0.0, 1.0], [0.0, 0.0]], B=[[1.0]], C=[[1.0, 0.0]]
        )


def test_split_re_im_pure_even():
    a, b = split_re_im(np.array([1.0, 0.0, 1.0]))  # s^2 + 1
    assert not a.any()
    assert b.tolist() == [1.0, 0.0, -1.0]


def test_split_re_im_cubic_symbolic():
    # q = s^3 + q2 s^2 + q1 s + q0 -> a = -u^3 + q1 u, b = -q2 u^2 + q0,
    # split row by row on q's coefficient matrix
    q = char_poly(_nn1())
    a, b = split_re_im(q.Q)
    assert np.array_equal(a[3], -q.Q[3])
    assert np.array_equal(a[1], q.Q[1])
    assert not a[0].any() and not a[2].any()
    assert np.array_equal(b[2], -q.Q[2])
    assert np.array_equal(b[0], q.Q[0])
    assert not b[1].any() and not b[3].any()


def test_split_re_im_reconstruction(rng):
    for _ in range(30):
        deg = int(rng.integers(1, 10))
        q = random_numeric_poly(rng, deg)
        a, b = split_re_im(q)
        for u in rng.standard_normal(20):
            lhs = _val(q, 1j * u)
            rhs = _val(b, u) + 1j * _val(a, u)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_eval_at_root():
    # the imaginary part of (s+1)(s+2)(s+3) is -u^3 + 11u
    a, _ = split_re_im(poly_from_roots([-1.0, -2.0, -3.0]))
    assert np.allclose(a, [0.0, 11.0, 0.0, -1.0], rtol=0.0, atol=1e-12)
    assert abs(_val(a, np.sqrt(11.0))) <= 1e-9


def test_optimal_rho_values():
    ac4 = np.array([-66.837750, -1330.6306, 130.03210, 150.92600, 1.0])
    assert relerr(optimal_rho(ac4), 0.35000) <= 1e-3
    assert optimal_rho(np.array([1.0, 0.3, 1.0])) == 1.0
    assert optimal_rho(np.array([4.0, 0.0, 1.0])) == 0.5


def test_optimal_rho_rejects_zero_endpoints():
    with pytest.raises(DegenerateInputError):
        optimal_rho(np.array([0.0, 1.0, 1.0]))


def test_vec_gain_column_stacking():
    assert vec_gain([[1.0, 2.0], [3.0, 4.0]]) == [1.0, 3.0, 2.0, 4.0]
