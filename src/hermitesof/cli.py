"""Command-line front end: build Hermite matrices, report conditioning,
solve the output-feedback program, verify gains, and run benchmark suites.

Exit codes: 0 success (solve: converged and verified stable), 1 solver
non-convergence or unstable gain, 2 input error (solve: also an `error:` row).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .benchmarks import (
    ExperimentConfig,
    get_plant,
    hermite_form,
    rows_to_csv,
    rows_to_text,
    run_experiment,
    run_single,
    table1_suite,
    table2_suite,
    target_poly,
    _sym_poly,
)
from .errors import HermiteSofError, InputError
from .hermite import (
    apply_scaling,
    cond_frobenius,
    hermite_lagrange,
    hermite_power,
    power_scale,
    scaling_from_numeric,
)
from .polynomials import optimal_rho
from .solver import SolveConfig, verify_solution
from .stability import TargetSpec, nodes_from_target


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad numeric list {text!r}: {exc}") from exc


def _parse_roots(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise InputError(f"bad root list {text!r}: {exc}") from exc


def _target_spec(args) -> TargetSpec | None:
    if getattr(args, "roots", None):
        return TargetSpec(mode="explicit-roots", roots=_parse_roots(args.roots))
    if getattr(args, "target_shift", None) is not None:
        return TargetSpec(mode="mirror-shift", shift=args.target_shift)
    return None


def _default_part(args, q) -> str:
    if getattr(args, "part", None):
        return args.part
    return "im" if q.n % 2 == 1 else "re"


def _suite_defaults(name: str, basis: str) -> ExperimentConfig | None:
    """Reference-run settings for embedded fixtures (target, node part,
    tuned solver knobs)."""
    for row_name, _, cfg in table1_suite():
        if row_name == name and cfg.basis == basis:
            return cfg
    return None


def cmd_hermite(args) -> int:
    plant = get_plant(args.fixture)
    q, _, _ = _sym_poly(plant)
    spec = None
    if args.basis == "lagrange":
        spec = _target_spec(args)
        if spec is None:
            raise InputError("lagrange basis needs --roots or --target-shift")
    H = hermite_form(q, args.basis, spec, _default_part(args, q))
    entries = {
        f"{i},{j}": str(H.entry(i, j))
        for i in range(1, H.n + 1)
        for j in range(i, H.n + 1)
    }
    if args.format == "json":
        payload = {"basis": H.basis, "n": H.n, "entries": entries}
        if H.nodes is not None:
            payload["nodes"] = [str(u) for u in H.nodes.values]
        print(json.dumps(payload, indent=1))
        return 0
    lines = [f"basis: {H.basis}  n: {H.n}  gains: {H.nvars}"]
    if H.nodes is not None:
        lines.append(
            "nodes: " + ", ".join(f"{u:.8g}" for u in H.nodes.values)
        )
    if H.scaling is not None:
        lines.append(
            "scaling: " + ", ".join(f"{s:.8g}" for s in H.scaling.values)
        )
    lines += [f"H({ij}) = {e}" for ij, e in entries.items()]
    print("\n".join(lines))
    return 0


def cmd_cond(args) -> int:
    plant = get_plant(args.fixture)
    q, _, _ = _sym_poly(plant)
    part = _default_part(args, q)
    c = q.at_gains(_parse_floats(args.K) if args.K and q.nvars else np.zeros(q.nvars))
    rows: list[tuple[str, str]] = []
    Mp = hermite_power(c).eval_at()
    rows.append(("power", f"{cond_frobenius(Mp):.8g}"))
    try:
        rho = optimal_rho(c)
        rows.append(
            (f"power-scaled (rho={rho:.8g})", f"{cond_frobenius(power_scale(Mp, rho)):.8g}")
        )
    except HermiteSofError as exc:
        rows.append(("power-scaled", f"n/a ({exc})"))
    spec = _target_spec(args)
    try:
        target = target_poly(c, spec) if spec is not None else c
        nodes = nodes_from_target(target, part=part)
        hl = hermite_lagrange(c, nodes)
        Ml = hl.eval_at()
        rows.append(("lagrange", f"{cond_frobenius(Ml):.8g}"))
        S = scaling_from_numeric(Ml, nodes)
        Ms = apply_scaling(hl, S).eval_at()
        rows.append(("scaled-lagrange", f"{cond_frobenius(Ms):.8g}"))
    except HermiteSofError as exc:
        rows.append(("lagrange", f"n/a ({exc})"))
    width = max(len(r[0]) for r in rows)
    if args.format == "json":
        print(json.dumps(dict(rows), indent=1))
    else:
        for name, val in rows:
            print(f"{name:<{width}}  {val}")
    return 0


def cmd_solve(args) -> int:
    plant = get_plant(args.fixture)
    base = _suite_defaults(args.fixture, args.basis)
    cfg = ExperimentConfig(
        basis=args.basis,
        mu=args.mu if args.mu is not None else (base.mu if base else 1e-5),
        k0=_parse_floats(args.K0) if args.K0 else (base.k0 if base else None),
        target=_target_spec(args) or (base.target if base else None),
        part=args.part or (base.part if base else _default_part(args, _sym_poly(plant)[0])),
        lam0=args.lambda0,
        solver=base.solver if base else None,
    )
    if cfg.basis == "lagrange" and cfg.target is None:
        cfg.target = TargetSpec(mode="mirror-shift", shift=-0.5)
    overrides = {
        name: value
        for name, value in (
            ("p0", args.P0), ("tol_inner", args.tol_inner), ("tol_outer", args.tol_outer)
        )
        if value is not None
    }
    cfg.solver = dataclasses.replace(cfg.solver or SolveConfig(), **overrides)
    row = run_single(args.fixture, plant, cfg)
    if args.format == "json":
        print(json.dumps(row.__dict__, indent=1))
    elif args.format == "csv":
        print(rows_to_csv([row]))
    else:
        print(rows_to_text([row]))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rows_to_csv([row]) + "\n")
    if row.status.startswith("error:"):
        return 2
    return 0 if row.status == "converged" and row.stable else 1


def cmd_verify(args) -> int:
    plant = get_plant(args.fixture)
    q, m, p = _sym_poly(plant)
    gains = _parse_floats(args.K)
    if len(gains) != m * p:
        raise InputError(f"expected {m * p} gains, got {len(gains)}")
    K = np.asarray(gains).reshape((m, p), order="F")
    poles, stable, margin = verify_solution(q, K)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "poles": [f"{z:.8g}" for z in poles],
                    "stable": stable,
                    "margin": f"{margin:.8g}",
                },
                indent=1,
            )
        )
    else:
        for z in poles:
            print(f"{z.real:.8g}{z.imag:+.8g}j")
        print(f"stable: {str(stable).lower()}  margin: {margin:.8g}")
    return 0 if stable else 1


def cmd_bench(args) -> int:
    suites = {"table1": table1_suite, "table2": table2_suite}
    if args.suite not in suites:
        raise InputError(f"unknown suite {args.suite!r}")
    rows = run_experiment(suites[args.suite]())
    if args.format == "csv":
        out = rows_to_csv(rows)
    elif args.format == "json":
        out = json.dumps([r.__dict__ for r in rows], indent=1)
    else:
        out = rows_to_text(rows)
    print(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rows_to_csv(rows) + "\n")
    return 0


def _add_common(sp, target=True):
    sp.add_argument("--fixture", "--instance", dest="fixture", required=True,
                    help="embedded fixture name or instance JSON path")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    if target:
        sp.add_argument("--roots", help="comma-separated target roots (complex ok)")
        sp.add_argument("--target-shift", type=float, default=None,
                        help="mirror unstable open-loop poles to this real part")
        sp.add_argument("--part", choices=("im", "re"), default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hermitesof",
        description="Hermite-matrix construction and static output feedback synthesis",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("hermite", help="print a Hermite matrix")
    _add_common(sp)
    sp.add_argument("--basis", choices=("power", "lagrange"), default="power")
    sp.set_defaults(fn=cmd_hermite)

    sp = sub.add_parser("cond", help="condition numbers across bases")
    _add_common(sp)
    sp.add_argument("--K", help="gains at which to evaluate a symbolic fixture")
    sp.set_defaults(fn=cmd_cond)

    sp = sub.add_parser("solve", help="solve the output-feedback program")
    _add_common(sp)
    sp.add_argument("--basis", choices=("power", "lagrange"), default="lagrange")
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--K0", help="comma-separated initial gains")
    sp.add_argument("--lambda0", type=float, default=None)
    sp.add_argument("--P0", type=float, default=None)
    sp.add_argument("--tol-inner", type=float, default=None)
    sp.add_argument("--tol-outer", type=float, default=None)
    sp.add_argument("--out", help="also write the row as CSV to this path")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("verify", help="closed-loop poles at a given gain")
    _add_common(sp, target=False)
    sp.add_argument("--K", required=True, help="comma-separated gains (column-major)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="run a benchmark suite")
    sp.add_argument("--suite", default="table1")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.add_argument("--out", help="also write CSV to this path")
    sp.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HermiteSofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
