"""Root oracles, Routh test, target construction, and node extraction."""

import numpy as np
import pytest

from hermitesof.benchmarks import get_plant, suite_config
from hermitesof.errors import DegenerateInputError, NodeCountError
from hermitesof.hermite import hermite_power
from hermitesof.polynomials import poly_degree, poly_from_roots, split_re_im
from hermitesof.stability import TargetSpec, build_target, nodes_from_target, roots

from conftest import (
    interlacing_check,
    is_hurwitz,
    random_numeric_poly,
    random_stable_poly,
    relerr,
    routh_hurwitz,
)


AC4_OL = get_plant("AC4_openloop").q.at_gains([])
NN6 = get_plant("NN6").q


def _match(got, ref, tol):
    key = lambda z: (round(abs(complex(z)), 6), round(complex(z).imag, 6), complex(z).real)
    got = sorted(got, key=key)
    ref = sorted(ref, key=key)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert abs(g - r) <= tol * max(1.0, abs(r)), (g, r)


def test_roots_ac4_open_loop():
    _match(roots(AC4_OL), [2.5792, -5.0000e-2, -3.4552, -150.00], 1e-3)


def test_roots_triple():
    rts = roots(poly_from_roots([-1.0, -1.0, -1.0]))
    assert np.max(np.abs(rts + 1.0)) <= 1e-5


def test_roots_nn6_open_loop():
    rts = roots(NN6.at_gains([0.0] * 4))
    def closest(z):
        return min(abs(r - z) for r in rts)
    assert closest(2.7303) <= 1e-3 * 2.7303
    assert closest(complex(-7.2028e-2, 60.804)) <= 1e-3 * 60.804
    assert closest(complex(-7.2028e-2, -60.804)) <= 1e-3 * 60.804


def test_roots_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        roots(np.array([1.0, 0.0]))


def test_is_hurwitz():
    ok, margin = is_hurwitz(poly_from_roots([-1.0, -2.0]))
    assert ok and margin < 0
    ok, margin = is_hurwitz(AC4_OL)
    assert not ok and relerr(margin, 2.5792) <= 1e-3
    ok, margin = is_hurwitz(poly_from_roots([0.0, -1.0]))
    assert not ok and abs(margin) <= 1e-9


def test_routh_hurwitz_small_cases():
    assert routh_hurwitz(np.array([1.0, 1.0, 1.0]))
    assert not routh_hurwitz(np.array([1.0, 1.0, 0.0, 1.0]))


def test_triple_oracle_agreement(rng):
    checked = 0
    for _ in range(500):
        deg = int(rng.integers(2, 10))
        if rng.random() < 0.5:
            q = random_stable_poly(rng, deg)
        else:
            q = random_numeric_poly(rng, deg)
        margin = float(np.max(roots(q).real))
        if abs(margin) < 1e-6:
            continue
        stable_root = margin < 0
        assert routh_hurwitz(q) == stable_root
        assert is_hurwitz(q)[0] == stable_root
        H = hermite_power(q).eval_at()
        assert (np.linalg.eigvalsh(H).min() > 0) == stable_root
        checked += 1
    assert checked >= 400


def test_build_target_ac4_explicit_roots():
    spec = TargetSpec(
        mode="explicit-roots", roots=(-5.0000e-2, -5.0000e-2, -3.4552, -150.00)
    )
    target = build_target([], spec)
    nodes = nodes_from_target(target, part="re")
    _match(nodes.values, [23.100, -23.100, 4.9276e-2, -4.9276e-2], 1e-3)


def test_build_target_keeps_stable_poles():
    poles = [-1.0, -2.0, complex(-0.5, 3.0), complex(-0.5, -3.0)]
    target = build_target(poles, TargetSpec(mode="mirror-shift", shift=-0.5))
    ref = poly_from_roots(poles)
    assert np.max(np.abs(target - ref)) <= 1e-9


def test_build_target_shifts_unstable_poles():
    poles = [2.0, complex(0.1, 5.0), complex(0.1, -5.0)]
    target = build_target(poles, TargetSpec(mode="mirror-shift", shift=-0.5))
    ok, _ = is_hurwitz(target)
    assert ok
    _match(roots(target), [-0.5, complex(-0.5, 5.0), complex(-0.5, -5.0)], 1e-6)


def test_build_target_nn6_sigma_list():
    target = build_target([], suite_config("NN6", "lagrange").target)
    assert poly_degree(target) == 9
    assert target[9] == 1.0
    assert is_hurwitz(target)[0]


def test_target_spec_validation():
    with pytest.raises(DegenerateInputError):
        TargetSpec(mode="mirror-shift", shift=0.5)
    with pytest.raises(DegenerateInputError):
        TargetSpec(mode="bogus")


def test_nodes_from_target_simple_cubic():
    target = poly_from_roots([-1.0, -2.0, -3.0])
    nodes = nodes_from_target(target, part="im")
    _match(nodes.values, [0.0, np.sqrt(11.0), -np.sqrt(11.0)], 1e-9)


def test_nodes_from_target_stable_targets_give_real_nodes(rng):
    for _ in range(50):
        deg = int(rng.integers(2, 9))
        target = random_stable_poly(rng, deg)
        nodes = nodes_from_target(target, part="im" if deg % 2 else "re")
        assert all(kind == "real" for kind in nodes.kinds)


def test_nodes_from_target_degree_deficiency():
    # the imaginary part of an even-degree polynomial has too few roots
    with pytest.raises(NodeCountError):
        nodes_from_target(poly_from_roots([-1.0, -2.0]), part="im")


def test_interlacing_stable_cubic():
    assert interlacing_check(*split_re_im(poly_from_roots([-1.0, -2.0, -3.0])))


def test_interlacing_fails_for_unstable():
    q = np.array([1.0, -1.0, 0.0, 1.0])  # s^3 - s + 1
    assert not interlacing_check(*split_re_im(q))


def test_interlacing_degree_one_vacuous():
    assert interlacing_check(*split_re_im(np.array([1.0, 1.0])))


def test_roots_poly_round_trip(rng):
    for _ in range(30):
        deg = int(rng.integers(1, 10))
        rts = []
        while len(rts) < deg:
            cand = complex(rng.uniform(-3, 3), 0.0)
            if deg - len(rts) >= 2 and rng.random() < 0.4:
                cand = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            if all(abs(cand - r) >= 1e-2 for r in rts):
                if cand.imag:
                    rts.extend([cand, cand.conjugate()])
                else:
                    rts.append(cand)
        q = poly_from_roots(rts)
        _match(roots(q), rts, 1e-6)


def test_nodes_refuse_a_part_whose_coefficients_span_1e14():
    # s^2 + 1.1e8 s + 1e15: the real part 1e15 - u^2 spans 1e15
    target = poly_from_roots([-1e7, -1e8])
    with pytest.raises(DegenerateInputError, match="re part's coefficients span 1e14"):
        nodes_from_target(target)
    # roots itself takes any finite polynomial of degree one or more
    assert np.allclose(sorted(roots(target).real), [-1e8, -1e7])
