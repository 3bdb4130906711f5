"""Hermite matrix construction in both bases, scaling, and conditioning."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings, strategies as st

from hermitesof.benchmarks import NN6_ACHIEVABLE_GAIN, NN6_ACHIEVABLE_NODES, registry
from hermitesof.errors import DegenerateInputError, InputError, UnsupportedNodeError
from hermitesof.hermite import (
    NodeSet,
    cond_frobenius,
    congruence_check,
    hermite_lagrange,
    hermite_power,
    power_scale,
    scaled_hermite,
    scaling_from_numeric,
)
from hermitesof.polynomials import (
    CharPoly,
    MultiPoly,
    char_poly,
    gain_support,
    poly_from_roots,
    split_re_im,
)
from hermitesof.stability import TargetSpec, build_target, nodes_from_target, roots
from hermitesof.systems import SystemInstance

from conftest import random_numeric_poly, random_stable_poly, relerr, symbolic_bezoutian


REG = registry()
NN1 = REG["systems"]["NN1"]
AC4_OL = REG["polys"]["AC4_openloop"].q.at_gains([])
NN5_OL = REG["polys"]["NN5_openloop"].q.at_gains([])
NN6 = REG["polys"]["NN6"].q


def _coeffs_of(p: MultiPoly) -> dict:
    return dict(p.terms)


def _mono(nv, **powers):
    out = [0] * nv
    for name, e in powers.items():
        out[int(name[1:]) - 1] = e
    return tuple(out)


# -- bezoutian / power basis -----------------------------------------------


def test_bezoutian_nn1_entries():
    H = hermite_power(char_poly(NN1))
    # (1,1) = q0*q1 = (k2 - 5k1 - 13) k2
    assert H.entry(1, 1).terms == {(0, 1): -13.0, (1, 1): -5.0, (0, 2): 1.0}
    assert H.entry(3, 2).is_zero


def test_bezoutian_degree_one():
    # q(s) = s + 1: q(j*u) = 1 + j*u, so a = u and b = 1
    H = hermite_power(np.array([1.0, 1.0]))
    assert H.n == 1
    assert H.entry(1, 1).constant_value() == 1.0


def test_bezoutian_rejects_degenerate_input():
    z = np.array([0.0])
    with pytest.raises(DegenerateInputError):
        hermite_power(z)


def test_hermite_power_equals_symbolic_bezoutian():
    # bit for bit, including the monomial order of the tensor
    qs = [char_poly(NN1)]
    qs += [REG["polys"][f].q for f in ("AC4", "NN6", "AC4_openloop", "NN5_openloop")]
    for seed, shape in enumerate([(4, 1, 2), (4, 2, 1), (5, 1, 3), (6, 2, 1), (4, 2, 2)]):
        qs.append(char_poly(_planted_plant(seed, *shape)))
    # a q on the 2x2-gain support whose s^0 row lacks 1 and k1, so its
    # monomials first occur in another order than the support's
    Q = np.random.default_rng(5).standard_normal((5, 7))
    Q[0, :2] = 0.0
    Q[4] = np.eye(7)[0]
    qs.append(CharPoly(gain_support(2, 2), Q))
    for q in qs:
        H, ref = hermite_power(q), symbolic_bezoutian(q)
        assert np.array_equal(H.E, ref.E)
        assert H.C.dtype == ref.C.dtype and H.C.tobytes() == ref.C.tobytes()


AC4_HP = np.array(
    [
        [88936.354, 0.0, 10087.554, 0.0],
        [0.0, -162937.14, 0.0, 1330.6306],
        [10087.554, 0.0, 20955.855, 0.0],
        [0.0, 1330.6306, 0.0, 150.92600],
    ]
)


def test_hermite_power_ac4_entries():
    H = hermite_power(AC4_OL).eval_at()
    for i in range(4):
        for j in range(4):
            if AC4_HP[i, j] == 0.0:
                assert abs(H[i, j]) <= 1e-6
            else:
                assert relerr(H[i, j], AC4_HP[i, j]) <= 1e-6


# printed coefficients of the (3,3) power-basis entry, keyed by monomial
NN6_HP33 = {
    (0, 0, 0, 0): 10244466e8,
    (1, 0, 0, 0): -53923375e7,
    (0, 1, 0, 0): 55487273e6,
    (0, 0, 1, 0): 10310826e7,
    (0, 0, 0, 1): -32624061e7,
    (1, 1, 0, 0): 16028416e7,
    (1, 0, 1, 0): -27103829e4,
    (1, 0, 0, 1): -36752006e6,
    (0, 1, 1, 0): -43632833e6,
    (0, 1, 0, 1): -43073807e6,
    (0, 0, 2, 0): 22414163.0,
    (0, 0, 1, 1): 10078541e6,
    (0, 0, 0, 2): 99492593e5,
}


def test_hermite_power_nn6_entries():
    H = hermite_power(NN6)
    assert H.entry(9, 9).constant_value() == 23.300000
    got = _coeffs_of(H.entry(3, 3))
    assert set(got) == set(NN6_HP33)
    for mono, ref in NN6_HP33.items():
        assert relerr(got[mono], ref) <= 1e-6, mono


NN5_HP = {
    (1, 1): -2826.9473, (1, 3): -14171.755, (1, 5): 608.04658, (1, 7): -6.3,
    (2, 2): -14719.034, (2, 4): 206313.38, (2, 6): -4570.2494,
    (3, 3): 209056.94, (3, 5): -4687.9634, (3, 7): 1.2196400,
    (4, 4): 1026532.4, (4, 6): -22878.291,
    (5, 5): 21366.759, (5, 7): -458.42510,
    (6, 6): 523.23232, (7, 7): 10.171000,
}


def test_hermite_power_nn5_entries():
    H = hermite_power(NN5_OL).eval_at()
    for (i, j), ref in NN5_HP.items():
        assert relerr(H[i - 1, j - 1], ref) <= 1e-6, (i, j)
        assert H[i - 1, j - 1] == H[j - 1, i - 1]
    # odd/even checkerboard entries vanish
    for i in range(7):
        for j in range(7):
            if (i + j) % 2 == 1:
                assert H[i, j] == 0.0


def test_power_entries_symmetric_symbolically():
    H = hermite_power(char_poly(NN1))
    for i in range(3):
        for j in range(3):
            assert H.entries[i][j] == H.entries[j][i]


# -- Lagrange basis ---------------------------------------------------------


def test_hermite_lagrange_nn5_block_diagonal():
    nodes = nodes_from_target(NN5_OL, part="im")
    H = hermite_lagrange(NN5_OL, nodes).eval_at()
    # five real nodes then one conjugate pair; printed values compared as a
    # multiset since the reference lists the real nodes in a different order
    ref_diag = sorted([-2826.9473, 4.1032866e10, 4.4286011e9, 4.1032866e10, 4.4286011e9])
    got_diag = sorted(H[i, i] for i in range(5))
    for g, r in zip(got_diag, ref_diag):
        assert relerr(g, r) <= 1e-6
    assert relerr(H[0, 0], -2826.9473) <= 1e-6  # node u=0 comes first
    assert relerr(H[5, 6], 22222.878) <= 1e-6
    assert relerr(H[6, 5], 22222.878) <= 1e-6
    scale = np.linalg.norm(H, "fro")
    assert abs(H[5, 5]) <= 1e-9 * scale and abs(H[6, 6]) <= 1e-9 * scale


def test_hermite_lagrange_single_node():
    q = np.array([1.0, 1.0])  # s + 1
    H = hermite_lagrange(q, NodeSet.from_values([0.0]))
    assert H.n == 1
    assert H.entry(1, 1).constant_value() == 1.0


def test_hermite_lagrange_nn1_first_entry():
    # node u=0 gives a'(0) b(0) = (k2 - 5k1 - 13) k2
    q = char_poly(NN1)
    nodes = NodeSet.from_values([0.0, np.sqrt(11.0), -np.sqrt(11.0)])
    H = hermite_lagrange(q, nodes)
    ref = {(0, 1): -13.0, (1, 1): -5.0, (0, 2): 1.0}
    got = H.entry(1, 1).terms
    for mono in set(got) | set(ref):
        assert abs(got.get(mono, 0.0) - ref.get(mono, 0.0)) <= 1e-9, mono


def test_hermite_lagrange_of_a_form_without_monomials():
    # q(0) = s^3 - 13s of NN1 has no real part, so its power form is zero
    q = char_poly(NN1).at_gains([0.0, 0.0])
    H = hermite_lagrange(q, nodes_from_target(q, part="im"))
    assert H.E.shape == (0, 0) and H.C.shape == (0, 3, 3)
    assert not H.eval_at().any()


def test_hermite_lagrange_triple_node_formulas(rng):
    # n = 3 with one node of multiplicity three: normalized-derivative entries
    q = random_stable_poly(rng, 3)
    x = 0.7
    H = hermite_lagrange(q, NodeSet.from_values([x, x, x])).eval_at()
    pa, pb = split_re_im(q)

    def d(p, r):
        return npoly.polyval(x, npoly.polyder(p, r))

    a = [d(pa, r) for r in range(6)]
    b = [d(pb, r) for r in range(6)]
    fact = [1, 1, 2, 6, 24, 120]
    ref = np.zeros((3, 3))
    ref[0, 0] = a[1] * b[0] - a[0] * b[1]
    ref[0, 1] = (a[2] * b[0] - a[0] * b[2]) / fact[2]
    ref[0, 2] = (a[3] * b[0] - a[0] * b[3]) / fact[3]
    ref[1, 1] = (a[2] * b[1] - a[1] * b[2]) / fact[2] + (a[3] * b[0] - a[0] * b[3]) / fact[3]
    ref[1, 2] = (a[3] * b[1] - a[1] * b[3]) / fact[3] + (a[4] * b[0] - a[0] * b[4]) / fact[4]
    ref[2, 2] = (
        (a[3] * b[2] - a[2] * b[3]) / (fact[3] * fact[2])
        + (a[4] * b[1] - a[1] * b[4]) / fact[4]
        + (a[5] * b[0] - a[0] * b[5]) / fact[5]
    )
    ref = ref + np.triu(ref, 1).T
    scale = max(1.0, np.abs(ref).max())
    assert np.max(np.abs(H - ref)) <= 1e-9 * scale


def test_hermite_lagrange_rejects_general_complex_nodes():
    q = np.array([2.0, 2.0, 1.0])
    nodes = NodeSet.from_values([1.0 + 1.0j, 1.0 - 1.0j])
    with pytest.raises(UnsupportedNodeError):
        hermite_lagrange(q, nodes)


def test_hermite_lagrange_node_count_mismatch():
    q = np.array([1.0, 2.0, 1.0])
    with pytest.raises(InputError):
        hermite_lagrange(q, NodeSet.from_values([0.0]))


def test_congruence_check_random(rng):
    for _ in range(25):
        n = int(rng.integers(2, 9))
        q = random_numeric_poly(rng, n)
        nodes = NodeSet.from_values(np.sort(rng.uniform(-2.0, 2.0, n)))
        HP = hermite_power(q).eval_at()
        dev = congruence_check(q, nodes)
        assert dev <= 1e-8 * max(1.0, np.linalg.norm(HP, "fro"))


def test_congruence_check_nn5():
    nodes = nodes_from_target(NN5_OL, part="im")
    HP = hermite_power(NN5_OL).eval_at()
    assert congruence_check(NN5_OL, nodes) <= 1e-6 * np.linalg.norm(HP, "fro")


def test_congruence_check_degree_one():
    q = np.array([1.0, 1.0])
    assert congruence_check(q, NodeSet.from_values([0.0])) == 0.0


def test_off_block_entries_vanish(rng):
    # nodes at the roots of the imaginary part make the matrix block diagonal
    for _ in range(25):
        deg = int(rng.integers(3, 8))
        q = random_stable_poly(rng, deg)
        # the imaginary part only carries n roots when the degree is odd
        nodes = nodes_from_target(q, part="im" if deg % 2 else "re")
        H = hermite_lagrange(q, nodes).eval_at()
        scale = np.linalg.norm(H, "fro")
        mask = np.ones_like(H, dtype=bool)
        for start, size in nodes.blocks():
            mask[start : start + size, start : start + size] = False
            if size == 2:
                # zero diagonal inside a conjugate-pair block
                assert abs(H[start, start]) <= 1e-9 * scale
                assert abs(H[start + 1, start + 1]) <= 1e-9 * scale
        assert np.max(np.abs(H[mask])) <= 1e-9 * scale


def test_repeated_node_perturbation_limit(rng):
    # a double node at x and the nearby pair (x, x+eps) span the same basis
    # to first order: columns relate by v(x+eps) ~ v(x) + eps*v'(x), so the
    # perturbed matrix is M^T Hd M with M the corresponding coordinate map
    for _ in range(10):
        q = random_stable_poly(rng, 3)
        x = float(rng.uniform(0.3, 1.5))
        third = float(rng.uniform(2.0, 3.0))
        eps = 1e-5
        Hd = hermite_lagrange(q, NodeSet.from_values([x, x, third])).eval_at()
        Hp = hermite_lagrange(q, NodeSet.from_values([x, x + eps, third])).eval_at()
        M = np.eye(3)
        M[0, 1] = 1.0
        M[1, 1] = eps
        pred = M.T @ Hd @ M
        scale = np.abs(Hp).max()
        assert np.max(np.abs(pred - Hp)) <= 1e-3 * scale


# -- scaling ---------------------------------------------------------------


def test_scaling_from_numeric_nn5():
    nodes = nodes_from_target(NN5_OL, part="im")
    HL = hermite_lagrange(NN5_OL, nodes).eval_at()
    S = scaling_from_numeric(HL, nodes)
    HS = S.values[:, None] * HL * S.values[None, :]
    ref = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    ref[5, 6] = ref[6, 5] = 1.0
    assert np.max(np.abs(HS - ref)) <= 1e-9
    assert abs(cond_frobenius(HS) - 7.0) <= 1e-6


def test_scaling_from_numeric_trivial_cases():
    S = scaling_from_numeric(np.eye(3), NodeSet.from_values([0.0, 1.0, 2.0]))
    assert np.allclose(S.values, 1.0) and not S.warning
    S = scaling_from_numeric(np.diag([4.0, 9.0]), NodeSet.from_values([0.0, 1.0]))
    assert np.allclose(S.values, [0.5, 1.0 / 3.0])


def test_scaling_from_numeric_zero_block_warns():
    S = scaling_from_numeric(np.zeros((2, 2)), NodeSet.from_values([0.0, 1.0]))
    assert S.warning
    assert np.allclose(S.values, 1.0)


NN1_HS11 = {
    _mono(2, k2=1): -0.196969697,
    _mono(2, k1=1, k2=1): -0.07575757576,
    _mono(2, k2=2): 0.01515151515,
}

NN1_HS32 = {
    _mono(2, k1=1): 0.2,
    _mono(2, k2=1): -0.01818181818,
    _mono(2, k1=1, k2=1): -0.01212121212,
    _mono(2, k2=2): 0.0007575757576,
    _mono(2, k1=2): 0.04166666667,
}


def test_scaled_hermite_nn1_fixture():
    target = poly_from_roots([-1.0, -2.0, -3.0])
    HS = scaled_hermite(NN1, target)
    for entry, ref in ((HS.entry(1, 1), NN1_HS11), (HS.entry(3, 2), NN1_HS32)):
        got = _coeffs_of(entry)
        assert set(got) == set(ref)
        for mono, val in ref.items():
            assert relerr(got[mono], val) <= 1e-8, mono


NN6_EX5_HS11 = {
    _mono(4, k1=1): -1.6918611,
    _mono(4, k1=1, k2=1): 0.37288052,
    _mono(4, k1=1, k3=1): 0.012286264,
}


def test_scaled_hermite_nn6_achievable_target():
    target = NN6.at_gains(NN6_ACHIEVABLE_GAIN)
    nodes = nodes_from_target(target, part="im")
    key = lambda z: (round(abs(complex(z)), 6), complex(z).imag)
    ref = sorted(NN6_ACHIEVABLE_NODES, key=key)
    got = sorted(nodes.values, key=key)
    for g, r in zip(got, ref):
        if r == 0:
            assert abs(g) <= 1e-3
        else:
            assert abs(g - r) <= 1e-3 * abs(r)
    HS = scaled_hermite(NN6, target)
    got11 = _coeffs_of(HS.entry(1, 1))
    assert set(got11) == set(NN6_EX5_HS11)
    for mono, val in NN6_EX5_HS11.items():
        assert relerr(got11[mono], val) <= 1e-5, mono


def test_scaled_hermite_at_target_gains_is_sign_matrix(rng):
    for _ in range(5):
        deg = int(rng.integers(2, 7))
        target = random_stable_poly(rng, deg)
        HS = scaled_hermite(target, target, part="im" if deg % 2 else "re").eval_at()
        snapped = np.round(HS)
        assert np.max(np.abs(HS - snapped)) <= 1e-9
        assert set(np.unique(snapped)) <= {-1.0, 0.0, 1.0}


def _planted_plant(seed, n, m, p):
    """Seeded plant A = A0 - B K C with Hurwitz A0, so K stabilizes it."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A0 = G - (np.linalg.eigvals(G).real.max() + 0.5) * np.eye(n)
    B, C = rng.standard_normal((n, m)), rng.standard_normal((p, n))
    A = A0 - B @ rng.standard_normal((m, p)) @ C
    return SystemInstance(name=f"planted-{seed}", A=A, B=B, C=C)


def test_build_then_evaluate_matches_evaluate_then_build(rng):
    # the scaled tensor at k against the numeric path on q(k), same nodes and S
    mirror = TargetSpec(mode="mirror-shift", shift=-0.5)
    q_nn1 = char_poly(NN1)
    cases = [
        (q_nn1, build_target(roots(q_nn1.at_gains([0.0, 0.0])), mirror), "im"),
        (REG["polys"]["AC4"].q, build_target([], REG["targets"]["AC4_shifted"]), "re"),
        (NN6, build_target([], REG["targets"]["NN6_sigma1"]), "im"),
    ]
    for seed, shape in enumerate([(4, 1, 2), (4, 2, 1), (4, 2, 2)]):
        plant = _planted_plant(seed, *shape)
        q = char_poly(plant)
        cases.append((q, build_target(roots(q.at_gains(np.zeros(plant.mp))), mirror), "re"))
    for q, target, part in cases:
        nodes = nodes_from_target(target, part=part)
        HS = scaled_hermite(q, target, nodes=nodes)
        S = HS.scaling.values
        for _ in range(10):
            k = rng.standard_normal(q.nvars)
            ref = S[:, None] * hermite_lagrange(q.at_gains(k), nodes).eval_at() * S[None, :]
            assert np.max(np.abs(HS.eval_at(k) - ref)) <= 1e-10 * np.max(np.abs(ref))


# -- power-basis scaling and conditioning -----------------------------------

AC4_HP_SCALED = np.array(
    [
        [163.48864, 0.0, 151.37636, 0.0],
        [0.0, -2445.0754, 0.0, 163.00225],
        [151.37636, 0.0, 2567.0923, 0.0],
        [0.0, 163.00225, 0.0, 150.92600],
    ]
)


def test_power_scale_ac4():
    H = hermite_power(AC4_OL).eval_at()
    HS = power_scale(H, 0.35000)
    for i in range(4):
        for j in range(4):
            if AC4_HP_SCALED[i, j] == 0.0:
                assert abs(HS[i, j]) <= 1e-6
            else:
                assert relerr(HS[i, j], AC4_HP_SCALED[i, j]) <= 1e-5


def test_power_scale_trivial():
    H = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(power_scale(H, 1.0), H)
    assert np.allclose(power_scale(H, 2.0), np.diag([4.0, 1.0]))
    with pytest.raises(InputError):
        power_scale(H, -1.0)


def test_cond_frobenius():
    assert abs(cond_frobenius(np.eye(5)) - 5.0) <= 1e-12
    assert cond_frobenius(np.zeros((2, 2))) == float("inf")


# -- stability equivalence ---------------------------------------------------


def test_hermite_pd_iff_hurwitz(rng):
    checked = 0
    for _ in range(200):
        deg = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            q = random_stable_poly(rng, deg)
        else:
            q = random_numeric_poly(rng, deg)
        margin = float(np.max(roots(q).real))
        if abs(margin) < 1e-6:
            continue
        H = hermite_power(q).eval_at()
        try:
            np.linalg.cholesky(H)
            pd = True
        except np.linalg.LinAlgError:
            pd = False
        assert pd == (margin < 0)
        checked += 1
    assert checked >= 150


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 6), st.integers(1, 2), st.integers(1, 2), st.integers(0, 2**32 - 1)
)
def test_hermite_pd_iff_closed_loop_hurwitz(n, m, p, seed):
    # H(k) from the array-built q(k), against eig(A + B K C), at gains
    # around a stabilizing one and at random gains
    plant = _planted_plant(seed, n, m, p)
    H = hermite_power(char_poly(plant))
    rng = np.random.default_rng(seed)
    for shape in [(n, n), (n, m), (p, n)]:
        rng.standard_normal(shape)
    Kstar = rng.standard_normal((m, p))  # A + B Kstar C is Hurwitz
    for scale, centre in [(0.1, Kstar), (1.0, np.zeros((m, p)))] * 3:
        K = centre + scale * rng.standard_normal((m, p))
        margin = float(np.linalg.eigvals(plant.A + plant.B @ K @ plant.C).real.max())
        if abs(margin) < 1e-3:
            continue
        w = np.linalg.eigvalsh(H.eval_at(K.flatten(order="F")))
        assert (w.min() > 0) == (margin < 0), (K, margin, w)
