"""Embedded benchmark fixtures, instance-file ingestion, and experiment runs."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import HermiteSofError, InputError
from .hermite import HermiteForm, hermite_power, scaled_hermite
from .polynomials import CharPoly, gain_support
from .solver import SofProgram, SolveConfig, SolveReport, solve_sof, verify_solution
from .stability import TargetSpec, build_target, roots
from .systems import SystemInstance

DATA_DIR_ENV = "HERMITESOF_DATA_DIR"


@dataclass(frozen=True)
class PolyFixture:
    """A characteristic polynomial known to printed precision."""

    name: str
    q: CharPoly
    m = 1  # every printed fixture has one input

    @property
    def p(self) -> int:
        return self.q.nvars


def _mp(nv: int, const: float = 0.0, **lin) -> np.ndarray:
    """One power's coefficients over the monomials 1, k1, ..., k_nv:
    _mp(4, c, k1=..., k2=...)."""
    row = np.zeros(nv + 1)
    row[0] = const
    for name, coeff in lin.items():
        row[int(name[1:])] = coeff
    return row


def _printed(rows) -> CharPoly:
    """q(k) of a printed fixture, affine in the gains: one row of
    coefficients (or one number, without gains) per power of s."""
    Q = np.array(rows, dtype=float).reshape(len(rows), -1)
    return CharPoly(gain_support(1, Q.shape[1] - 1), Q)


# The printed fixtures: NN1's (A, B, C); the rows of each printed
# polynomial, one per power of s (see `_printed`); and the target root lists.
_SYSTEMS = {
    "NN1": (((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 13.0, 0.0)),  # A
            ((0.0,), (0.0,), (1.0,)),  # B
            ((0.0, 5.0, -1.0), (-1.0, -1.0, 0.0))),  # C
}
_POLYS = {
    "NN6": (
        _mp(4, 0.0, k1=95113415.0),
        _mp(4, -4.3155562e8, k2=95113415.0, k3=3133948.9),
        # The k3 coefficient sign follows the printed Hermite entries of this
        # benchmark, which are internally consistent (the polynomial display
        # carries the opposite sign); the 9th digit is fixed by the printed
        # k3^2 Hermite coefficient, which is a near-cancellation.
        _mp(4, -1.5626281e8, k1=-12660338.0, k3=3174671.8199274541, k4=3133948.9),
        _mp(4, 49276365.0, k2=-12660338.0, k3=35714.763, k4=3174671.8),
        _mp(4, 20216420.0, k1=-57334.489, k3=36171.693, k4=35714.763),
        _mp(4, 1149834.9, k2=-57334.489, k3=15.132810, k4=36171.693),
        _mp(4, 91133.935, k1=-14.685000, k3=14.688300, k4=15.132810),
        _mp(4, 4007.6500, k2=-14.688300, k4=14.685000),
        _mp(4, 23.300000),
        _mp(4, 1.0),
    ),
    "AC4": (
        _mp(2, -66.837750, k1=-980.62500, k2=-867.10818),
        _mp(2, -1330.6306, k1=-19613.407, k2=-18322.789),
        _mp(2, 130.03210, k1=-18.135000, k2=-19612.500),
        _mp(2, 150.92600),
        _mp(2, 1.0),
    ),
    "AC4_openloop": (-66.837750, -1330.6306, 130.03210, 150.92600, 1.0),
    "NN5_openloop": (6.3000000, -448.72180, 1.2196400, 2249.4849, 458.42510,
                     96.515330, 10.171000, 1.0),
}
_PAS_PAIR = (-36.646 + 523.05j, -36.646 - 523.05j)
_TARGET_ROOTS = {
    "NN6_sigma1": (
        -1.0000e-3 + 1.0j, -1.0000e-3 - 1.0j,
        -7.2028e-2 + 60.804j, -7.2028e-2 - 60.804j,
        -1.0785e-1 + 15.677j, -1.0785e-1 - 15.677j,
        -2.6764, -3.3000, -19.694,
    ),
    "AC4_shifted": (-5.0000e-2, -5.0000e-2, -3.4552, -150.00),
    "PAS_sigma1": (-5.0000e-2, -5.0000e-2, -9.5970e-1) + _PAS_PAIR,
    "PAS_sigma2": (-1.0000e-3, -1.0000e-3, -9.5970e-1) + _PAS_PAIR,
    "PAS_sigma3": (0.0, -1.0000e-4, -9.5970e-1) + _PAS_PAIR,
}


# NN6 achievable-target fixture: printed random gain and the resulting
# imaginary-part root list.
NN6_ACHIEVABLE_GAIN = np.array([-4.3264e-1, -1.6656, 1.2537e-1, 2.8772e-1])
NN6_ACHIEVABLE_NODES = (
    0.0, 60.847, -60.847, 16.007, -16.007, 9.2218, -9.2218,
    2.7034j, -2.7034j,
)


def _embedded(name: str):
    """A fresh plant of the embedded fixture named, or None."""
    if name in _SYSTEMS:
        return SystemInstance(name, *_SYSTEMS[name])
    if name in _POLYS:
        return PolyFixture(name, _printed(_POLYS[name]))
    return None


def _find_plant(name: str):
    """The plant named: an embedded fixture, else an instance file (a `.json`
    path that is a file, else <name>.json in HERMITESOF_DATA_DIR), else None."""
    plant = _embedded(name)
    if plant is not None:
        return plant
    path = Path(name)
    if not (path.suffix == ".json" and path.is_file()):
        data_dir = os.environ.get(DATA_DIR_ENV)
        if not data_dir:
            return None
        path = Path(data_dir) / f"{name}.json"
    return load_instance(path) if path.is_file() else None


def get_plant(name: str):
    """Resolve a fixture name (or instance file path) to a plant object."""
    plant = _find_plant(name)
    if plant is None:
        raise InputError(f"unknown fixture or instance: {name}")
    return plant


def load_instance(path) -> SystemInstance:
    """Load a plant from a JSON file {"name", "A", "B", "C"} (row-major)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    for key in ("name", "A", "B", "C"):
        if key not in raw:
            raise InputError(f"{path}: missing field {key!r}")
    try:
        return SystemInstance(
            name=str(raw["name"]),
            A=np.asarray(raw["A"], dtype=float),
            B=np.asarray(raw["B"], dtype=float),
            C=np.asarray(raw["C"], dtype=float),
            source="file",
        )
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: non-numeric or ragged matrix data: {exc}") from exc


# -- experiment orchestration ---------------------------------------------


@dataclass
class ExperimentConfig:
    basis: str  # "power" | "lagrange"
    mu: float
    k0: Sequence[float] | None = None
    target: TargetSpec | None = None
    part: str | None = None  # node part; None derives it from the target
    lam0: float | None = None
    solver: SolveConfig | None = None


@dataclass(kw_only=True)
class ExperimentRow:
    """One solve's results; the defaults are those of a row without a solve
    (an error or skipped row)."""

    system: str
    basis: str
    mu: float
    k0: str = "[]"
    outer: int = 0
    inner: int = 0
    linesearch: int = 0
    K: str = "[]"
    lam: float = float("nan")
    status: str
    stable: bool = False
    box_active: bool = False


def _fmt_vec(v) -> str:
    arr = np.atleast_2d(np.asarray(v, dtype=float))
    rows = [" ".join(f"{x:.8g}" for x in row) for row in arr]
    return "[" + "; ".join(rows) + "]"


def target_poly(q, target: TargetSpec) -> np.ndarray:
    """Coefficients of the target polynomial for q (a CharPoly, or a
    coefficient array as a polynomial in no gains): the spec's explicit
    roots, or q's poles at the zero gain mirrored by the spec's shift."""
    if target.mode == "explicit-roots":
        return build_target([], target)
    open_loop = q.at_gains(np.zeros(q.nvars)) if isinstance(q, CharPoly) else q
    return build_target(roots(open_loop), target)


def hermite_form(
    q, basis: str, target: TargetSpec | None, part: str | None = None
) -> HermiteForm:
    """The Hermite form of q that a solve or a display uses: the power form,
    or for "lagrange" the Lagrange form over the nodes of the target (the
    mirror shift at -0.5 when None; see `nodes_from_target` for the part
    they come from), scaled by the target's own form.  A target given with
    the power basis, and a form with a coefficient that overflows, are
    input errors."""
    if basis not in ("power", "lagrange"):
        raise InputError(f"unknown basis {basis!r}")
    if basis == "power" and target is not None:
        raise InputError("the power basis takes no target")
    with np.errstate(over="ignore", invalid="ignore"):
        if basis == "power":
            H = hermite_power(q)
        else:
            H = scaled_hermite(q, target_poly(q, target or TargetSpec()), part=part)
    if not np.isfinite(H.C).all():
        raise InputError(f"the {basis} Hermite form has a non-finite coefficient")
    return H


def run_single(name: str, plant, cfg: ExperimentConfig) -> ExperimentRow:
    q, m, p = plant.q, plant.m, plant.p
    base = cfg.solver or SolveConfig()
    k0 = base.k0 if cfg.k0 is None else cfg.k0
    k0 = np.zeros(m * p) if k0 is None else np.asarray(k0, dtype=float)
    lam0 = base.lam0 if cfg.lam0 is None else cfg.lam0
    # a k0 of the wrong length is reported in the error row as given
    k0_text = _fmt_vec(k0.reshape((m, p), order="F") if k0.size == m * p else k0)
    try:
        H = hermite_form(q, cfg.basis, cfg.target, cfg.part)
        prog = SofProgram(H, mu=cfg.mu, m=m, p=p)
        report = solve_sof(prog, dataclasses.replace(base, k0=k0, lam0=lam0))
        _, stable, _ = verify_solution(q, report.K)
        return ExperimentRow(
            system=name,
            basis=cfg.basis,
            mu=cfg.mu,
            k0=k0_text,
            outer=report.outer_iters,
            inner=report.inner_iters,
            linesearch=report.linesearch_steps,
            K=_fmt_vec(report.K),
            lam=report.lam,
            status=report.status,
            stable=stable,
            box_active=report.box_active,
        )
    except (HermiteSofError, np.linalg.LinAlgError) as exc:  # a row, not an abort
        return ExperimentRow(
            system=name, basis=cfg.basis, mu=cfg.mu, k0=k0_text, status=f"error: {exc}"
        )


def run_experiment(
    instances: Sequence[tuple[str, object, ExperimentConfig]]
) -> list[ExperimentRow]:
    """Run each (name, plant, config) triple; plant=None marks missing data."""
    return [
        ExperimentRow(system=name, basis=cfg.basis, mu=cfg.mu, status="skipped: data not supplied")
        if plant is None else run_single(name, plant, cfg)
        for name, plant, cfg in instances
    ]


CSV_HEADER = "system,basis,mu,K0,outer,inner,linesearch,K,lambda,status,stable,box_active"


def row_json(row: ExperimentRow) -> dict:
    """The row's fields for JSON output, a non-finite float (the lambda of
    an error or skipped row) as None, which JSON writes as null."""
    return {
        key: None if isinstance(v, float) and not math.isfinite(v) else v
        for key, v in dataclasses.asdict(row).items()
    }


def _cells(r: ExperimentRow) -> list[str]:
    """The row's cells in CSV_HEADER order, as CSV and text print them."""
    lam = "nan" if math.isnan(r.lam) else f"{r.lam:.8g}"
    return [r.system, r.basis, f"{r.mu:.8g}", r.k0, str(r.outer), str(r.inner),
            str(r.linesearch), r.K, lam, r.status, str(r.stable).lower(),
            str(r.box_active).lower()]


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    # a cell may not hold the separator: an error status's commas become ";"
    lines = [CSV_HEADER] + [",".join(c.replace(",", ";") for c in _cells(r)) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_text(rows: Sequence[ExperimentRow]) -> str:
    cols = CSV_HEADER.split(",")
    table = [cols] + [_cells(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines) + "\n"


# The published settings, one row per solve in each suite's order: (system,
# basis, mu, k0, target, SolveConfig fields).  A target is None, "mirror"
# (mirror-shift at -0.5) or a key of `_TARGET_ROOTS`; a row without fields
# solves with SolveConfig's defaults.  Systems without embedded data come from
# instance files; Table 2 sweeps the PAS targets.
_AC4 = {"u0": 1.0 / 9}
_NN6 = {"p0": 0.01, "u0": 1.0 / 9, "sigma": 1.0, "tol_inner": 1e-8, "k_bound": 1e8,
        "max_outer": 150}
_SUITES = {
    "table1": (
        ("NN1", "power", 1e-3, (0.0, 30.0), None, {}),
        ("NN1", "lagrange", 1e-4, (0.0, 30.0), "mirror", {}),
        ("AC4", "power", 1e-5, (0.0, 0.0), None, _AC4),
        ("AC4", "lagrange", 1e-5, (0.0, 0.0), "AC4_shifted", _AC4),
        ("NN6", "lagrange", 1e-5, (0.0,) * 4, "NN6_sigma1", _NN6),
        ("AC7", "power", 1.0, (0.0, 0.0), None, {}),
        ("AC7", "lagrange", 1e-5, (0.0, 0.0), "mirror", {}),
        ("AC17", "power", 1.0, (0.0, 0.0), None, {}),
        ("AC17", "lagrange", 1.0, (0.0, 0.0), "mirror", {}),
        ("REA3", "power", 1e-5, (0.0,) * 3, None, {}),
        ("REA3", "lagrange", 1e-2, (0.0,) * 3, "mirror", {}),
        ("UWV", "power", 1.0, (0.0,) * 4, None, {}),
        ("UWV", "lagrange", 1.0, (0.0,) * 4, "mirror", {}),
        ("NN5", "power", 1.0, (10.0, 5.0), None, {}),
        ("NN5", "lagrange", 1e-5, (10.0, 5.0), "mirror", {}),
        ("HE1", "power", 1.0, (1.0, 1.0), None, {}),
        ("HE1", "lagrange", 1e-1, (1.0, 1.0), "mirror", {}),
    ),
    "table2": (
        ("PAS", "power", 1e-3, (0.0,) * 3, None, {}),
        ("PAS", "lagrange", 1e-8, (0.0,) * 3, "PAS_sigma1", {}),
        ("PAS", "lagrange", 1e-5, (0.0,) * 3, "PAS_sigma2", {}),
        ("PAS", "lagrange", 1e-2, (0.0,) * 3, "PAS_sigma3", {}),
    ),
}


def _config(basis, mu, k0, target, fields) -> ExperimentConfig:
    """A fresh ExperimentConfig of one suite row."""
    if target in _TARGET_ROOTS:
        target = TargetSpec(mode="explicit-roots", roots=_TARGET_ROOTS[target])
    elif target == "mirror":
        target = TargetSpec()
    return ExperimentConfig(basis, mu, k0=list(k0), target=target,
                            solver=SolveConfig(**fields) if fields else None)


def suite(name: str) -> list[tuple[str, object, ExperimentConfig]]:
    """The (system, plant, config) triples of a published suite; the plant
    of a system without embedded data or an instance file is None."""
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}")
    return [(row[0], _find_plant(row[0]), _config(*row[1:])) for row in _SUITES[name]]


def table1_suite() -> list[tuple[str, object, ExperimentConfig]]:
    return suite("table1")


def suite_config(system: str, basis: str) -> ExperimentConfig | None:
    """The Table-1 settings of system and basis, or None; loads no plant."""
    for row in _SUITES["table1"]:
        if row[:2] == (system, basis):
            return _config(*row[1:])
    return None
