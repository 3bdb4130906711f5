"""Polynomial roots, target polynomials and the nodes taken from them.

Polynomials here are numeric: arrays of ascending coefficients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InputError, NodeCountError, UnsupportedNodeError
from .polynomials import poly_degree, poly_from_roots, split_re_im

_MARGINAL = 1e-9
_REAL_TOL = 1e-6
_NODE_TOL = 1e-9


def _horner(c: np.ndarray, s: complex) -> complex:
    """Value at s of the polynomial with ascending coefficients c, in
    scalar arithmetic: np.polyval's array loops round differently, and the
    polished roots would move in the last bits."""
    acc = 0.0
    for ci in c[::-1]:
        acc = acc * s + ci
    return acc


def roots(q) -> np.ndarray:
    """Roots of the polynomial with ascending coefficients q via the
    companion-matrix eigenvalues, with one Newton polishing step to sharpen
    agreement with printed reference values.  A root whose polished value
    is not finite (q or q' overflows at a huge root) is kept unpolished."""
    q = np.asarray(q)
    c = q.astype(complex)
    d = poly_degree(q)
    if d < 1:
        raise DegenerateInputError("degree must be at least 1")
    if not np.isfinite(c).all():
        raise DegenerateInputError("non-finite coefficient")
    rts = np.roots(c[d::-1])
    dq = q[1:] * np.arange(1, len(q))
    polished = []
    with np.errstate(over="ignore", invalid="ignore"):
        for r in rts:
            fp = _horner(dq, r)
            if abs(fp) > 1e-12:
                step = r - _horner(q, r) / fp
                r = step if np.isfinite(step) else r
            polished.append(r)
    return np.asarray(polished)


@dataclass(frozen=True)
class TargetSpec:
    """How to build a target polynomial from open-loop poles."""

    mode: str = "mirror-shift"  # or "explicit-roots"
    roots: tuple[complex, ...] = field(default_factory=tuple)
    shift: float = -0.5

    def __post_init__(self):
        if self.mode not in ("mirror-shift", "explicit-roots"):
            raise DegenerateInputError(f"unknown target mode {self.mode!r}")
        if self.mode == "mirror-shift" and self.shift >= 0:
            raise DegenerateInputError("shift must be negative")
        if not np.isfinite(self.shift):
            raise InputError(f"shift {self.shift} must be finite")


def build_target(open_loop_poles, spec: TargetSpec) -> np.ndarray:
    """Ascending coefficients of the monic target polynomial.

    Mirror-shift keeps stable poles and moves every unstable or marginal pole
    to the left half-plane: real poles to the shift value, complex pairs by
    replacing the real part with the shift (imaginary part preserved).  A
    stable pole within _REAL_TOL of the real axis is kept as a real pole, so
    a repeated real pole that the root finder splits into a slightly
    non-conjugate pair still yields a real target.
    """
    if spec.mode == "explicit-roots":
        if not spec.roots:
            raise DegenerateInputError("explicit-roots target needs roots")
        return poly_from_roots(spec.roots)
    poles = [complex(p) for p in open_loop_poles]
    if not poles:
        raise DegenerateInputError("empty pole list")
    out = []
    for pole in poles:
        if pole.real < -_MARGINAL:
            near_real = abs(pole.imag) <= _REAL_TOL * (1.0 + abs(pole))
            out.append(complex(pole.real, 0.0) if near_real else pole)
        elif abs(pole.imag) <= _MARGINAL * (1.0 + abs(pole)):
            out.append(complex(spec.shift, 0.0))
        else:
            out.append(complex(spec.shift, pole.imag))
    return poly_from_roots(out)


def _node_kind(u: complex) -> str:
    scale = 1.0 + abs(u)
    if abs(u.imag) <= _NODE_TOL * scale:
        return "real"
    if abs(u.real) <= _NODE_TOL * scale:
        return "imag"
    return "complex"


@dataclass(frozen=True)
class NodeSet:
    """Ordered interpolation nodes, conjugate pairs adjacent."""

    values: tuple[complex, ...]
    rep_index: tuple[int, ...]  # occurrence counter within a group of equal nodes
    kinds: tuple[str, ...]

    @classmethod
    def from_values(cls, values: Sequence[complex]) -> "NodeSet":
        vals = [complex(v) for v in values]
        kinds = [_node_kind(v) for v in vals]
        reals = sorted(
            (v.real for v, k in zip(vals, kinds) if k == "real"),
            key=lambda x: (abs(x), x < 0),
        )
        others = [v for v, k in zip(vals, kinds) if k != "real"]
        # pair conjugates, positive imaginary part first
        pos = sorted(
            (v for v in others if v.imag > 0), key=lambda v: (abs(v.real), abs(v.imag))
        )
        neg = list(v for v in others if v.imag < 0)
        ordered: list[complex] = [complex(r) for r in reals]
        for v in pos:
            match = None
            for w in neg:
                if abs(w - v.conjugate()) <= _NODE_TOL * (1.0 + abs(v)):
                    match = w
                    break
            if match is None:
                raise UnsupportedNodeError(
                    f"node {v} has no complex-conjugate partner"
                )
            neg.remove(match)
            ordered.extend([v, match])
        if neg:
            raise UnsupportedNodeError(
                f"nodes {neg} have no complex-conjugate partners"
            )

        rep: list[int] = []
        for i, v in enumerate(ordered):
            r = 0
            for w in ordered[:i]:
                if abs(v - w) <= _NODE_TOL * (1.0 + abs(w)):
                    r += 1
            rep.append(r)
        return cls(
            values=tuple(ordered),
            rep_index=tuple(rep),
            kinds=tuple(_node_kind(v) for v in ordered),
        )

    def __len__(self) -> int:
        return len(self.values)

    def blocks(self) -> list[tuple[int, int]]:
        """(start, size) block pattern: 1x1 for real nodes, 2x2 for pairs."""
        out = []
        i = 0
        while i < len(self.values):
            if self.kinds[i] == "real":
                out.append((i, 1))
                i += 1
            else:
                out.append((i, 2))
                i += 2
        return out


def nodes_from_target(target: np.ndarray, part: str | None = None) -> NodeSet:
    """Interpolation nodes: roots of the imaginary or real part of the
    target polynomial on the imaginary axis.

    Only the part whose degree is the target's degree n supplies n nodes:
    the imaginary part for odd n, the real part for even n, which is the
    part taken when `part` is None.  An explicit "im" or "re" is checked
    and raises NodeCountError when its degree falls short.  A part whose
    coefficients span 1e14 or more is too badly scaled for its nodes.
    """
    n = poly_degree(target)
    if part is None:
        part = "im" if n % 2 else "re"
    if part not in ("im", "re"):
        raise DegenerateInputError(f"part must be 'im' or 're', got {part!r}")
    a, b = split_re_im(target)
    sel = a if part == "im" else b
    d = poly_degree(sel)
    if d != n:
        raise NodeCountError(
            f"{part} part has degree {d}, needs {n} roots; "
            "switch the node part or adjust the target"
        )
    if abs(sel[d]) <= 1e-14 * np.max(np.abs(sel)):
        raise DegenerateInputError(
            f"{part} part's coefficients span 1e14 or more: too badly scaled for nodes"
        )
    return NodeSet.from_values(roots(sel))
