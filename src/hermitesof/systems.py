"""State-space plant container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polynomials
from .errors import InputError


@dataclass(frozen=True)
class SystemInstance:
    """Plant triple (A, B, C) for static output feedback design."""

    name: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    source: str = "embedded"

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n = A.shape[0]
        if A.shape != (n, n) or n < 1:
            raise InputError(f"{self.name}: A must be square, got {A.shape}")
        if B.shape[0] != n or B.shape[1] < 1:
            raise InputError(f"{self.name}: B must be {n}-by-m, got {B.shape}")
        if C.shape[1] != n or C.shape[0] < 1:
            raise InputError(f"{self.name}: C must be p-by-{n}, got {C.shape}")
        for label, M in (("A", A), ("B", B), ("C", C)):
            if not np.isfinite(M).all():
                raise InputError(f"{self.name}: {label} has non-finite entries")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def mp(self) -> int:
        return self.m * self.p

    @property
    def q(self) -> polynomials.CharPoly:
        """q(k) = det(sI - A - B K C), built on each access."""
        return polynomials.char_poly(self)
