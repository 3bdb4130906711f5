"""Command-line front end: build Hermite matrices, report conditioning,
solve the output-feedback program, verify gains, and run benchmark suites.

Exit codes: 0 success (solve: converged and verified stable), 1 solver
non-convergence or unstable gain, 2 input error (solve: also an `error:` row;
solve and bench: also an `--out` that cannot be written, found before a solve).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from .benchmarks import (
    ExperimentConfig,
    get_plant,
    hermite_form,
    row_json,
    rows_to_csv,
    rows_to_text,
    run_experiment,
    run_single,
    suite,
    suite_config,
    target_poly,
)
from .errors import HermiteSofError, InputError
from .hermite import (
    _upper,
    cond_frobenius,
    hermite_lagrange,
    hermite_power,
    power_scale,
    scaling_from_numeric,
)
from .polynomials import optimal_rho, poly_texts
from .solver import SolveConfig, verify_solution
from .stability import TargetSpec, nodes_from_target


def _parse_list(text: str, kind, what: str) -> list:
    """The comma-separated values of `kind` in text; each must be finite."""
    try:
        values = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad {what} list {text!r}: {exc}") from exc
    if not np.isfinite(values).all():
        raise InputError(f"non-finite value in {what} list {text!r}")
    return values


def _target_spec(args) -> TargetSpec | None:
    if args.roots:
        roots = tuple(_parse_list(args.roots, complex, "root"))
        return TargetSpec(mode="explicit-roots", roots=roots)
    if args.target_shift is not None:
        return TargetSpec(mode="mirror-shift", shift=args.target_shift)
    return None


def _show(args, payload, lines) -> None:
    """Print payload as JSON under `--format json`, else the lines."""
    print(json.dumps(payload, indent=1) if args.format == "json" else "\n".join(lines))


def cmd_hermite(args) -> int:
    plant = get_plant(args.fixture)
    spec = _target_spec(args)
    if args.basis == "lagrange" and spec is None:
        raise InputError("lagrange basis needs --roots or --target-shift")
    H = hermite_form(plant.q, args.basis, spec)
    ii, jj = _upper(H.n)
    keys = [f"{i + 1},{j + 1}" for i, j in zip(ii.tolist(), jj.tolist())]
    entries = dict(zip(keys, poly_texts(H.E, H.C[:, ii, jj])))
    payload = {"basis": H.basis, "n": H.n, "entries": entries}
    lines = [f"basis: {H.basis}  n: {H.n}  gains: {H.nvars}"]
    if H.nodes is not None:
        payload["nodes"] = [str(u) for u in H.nodes.values]
        lines.append("nodes: " + ", ".join(f"{u:.8g}" for u in H.nodes.values))
    if H.scaling is not None:
        lines.append("scaling: " + ", ".join(f"{s:.8g}" for s in H.scaling))
    _show(args, payload, lines + [f"H({ij}) = {e}" for ij, e in entries.items()])
    return 0


def cmd_cond(args) -> int:
    q = get_plant(args.fixture).q
    gains = _parse_list(args.K, float, "numeric") if args.K else np.zeros(q.nvars)
    # huge gains overflow q(K) or H(K): an input error, not a row of nan
    with np.errstate(over="ignore", invalid="ignore"):
        c = q.at_gains(gains)
        HP = hermite_power(c)
        Mp = HP.eval_at()
    if not (np.isfinite(c).all() and np.isfinite(Mp).all()):
        raise InputError(
            f"gains K = {args.K or 0} give a non-finite coefficient of q or entry of H"
        )
    rows: list[tuple[str, str]] = []
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
        nodes = nodes_from_target(target)
        Ml = hermite_lagrange(HP, nodes).eval_at()
        rows.append(("lagrange", f"{cond_frobenius(Ml):.8g}"))
        # scaled by c's own Lagrange form, not the target's
        S = scaling_from_numeric(Ml, nodes)
        Ms = Ml * np.outer(S, S)
        rows.append(("scaled-lagrange", f"{cond_frobenius(Ms):.8g}"))
    except HermiteSofError as exc:
        rows.append(("lagrange", f"n/a ({exc})"))
    width = max(len(r[0]) for r in rows)
    _show(args, dict(rows), [f"{name:<{width}}  {val}" for name, val in rows])
    return 0


def _open_out(path):
    """The `--out` file opened for writing (None without one), once the
    inputs have resolved: an unwritable path fails before any solve."""
    try:
        return open(path, "w") if path else None
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc}") from exc


def _write_rows(args, out, rows, payload) -> None:
    """Print rows in args.format, `payload` being what json prints, and write
    their CSV to out, the `--out` file that `_open_out` opened, and close it."""
    _show(args, payload, [(rows_to_csv if args.format == "csv" else rows_to_text)(rows)])
    if out:
        try:
            with out:
                out.write(rows_to_csv(rows))
        except OSError as exc:
            raise InputError(f"{args.out}: cannot write: {exc}") from exc


def cmd_solve(args) -> int:
    plant = get_plant(args.fixture)
    cfg = suite_config(args.fixture, args.basis) or ExperimentConfig(args.basis, 1e-5)
    if args.mu is not None:
        cfg.mu = args.mu
    if args.K0:
        cfg.k0 = _parse_list(args.K0, float, "numeric")
    cfg.target = _target_spec(args) or cfg.target
    cfg.lam0 = args.lambda0
    overrides = {
        name: value
        for name, value in (
            ("p0", args.P0), ("tol_inner", args.tol_inner), ("tol_outer", args.tol_outer)
        )
        if value is not None
    }
    cfg.solver = dataclasses.replace(cfg.solver or SolveConfig(), **overrides)
    out = _open_out(args.out)
    row = run_single(args.fixture, plant, cfg)
    _write_rows(args, out, [row], row_json(row))
    if row.status.startswith("error:"):
        return 2
    return 0 if row.status == "converged" and row.stable else 1


def cmd_verify(args) -> int:
    plant = get_plant(args.fixture)
    m, p = plant.m, plant.p
    gains = _parse_list(args.K, float, "numeric")
    if len(gains) != m * p:
        raise InputError(f"expected {m * p} gains, got {len(gains)}")
    K = np.asarray(gains).reshape((m, p), order="F")
    poles, stable, margin = verify_solution(plant.q, K)
    _show(
        args,
        {"poles": [f"{z:.8g}" for z in poles], "stable": stable, "margin": f"{margin:.8g}"},
        [f"{z.real:.8g}{z.imag:+.8g}j" for z in poles]
        + [f"stable: {str(stable).lower()}  margin: {margin:.8g}"],
    )
    return 0 if stable else 1


def cmd_bench(args) -> int:
    jobs = suite(args.suite)
    out = _open_out(args.out)
    rows = run_experiment(jobs)
    _write_rows(args, out, rows, [row_json(r) for r in rows])
    return 0


# the formats each command writes: a table of rows (solve, bench) or a display
_ROW_FORMATS = ("text", "csv", "json")
_DISPLAY_FORMATS = ("text", "json")


def _add_common(sp, formats, target=True):
    sp.add_argument("--fixture", "--instance", dest="fixture", required=True,
                    help="embedded fixture name or instance JSON path")
    sp.add_argument("--format", choices=formats, default="text")
    if target:
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--roots", help="comma-separated target roots (complex ok)")
        group.add_argument("--target-shift", type=float, default=None,
                           help="mirror unstable open-loop poles to this real part")


# argparse reads a value that starts with "-" and is not a plain number,
# such as "-1,2" or "-1e2", as an option; a value that starts like a
# negative number is joined to its flag ("--K=-1,2") before parsing
_NUMBER_START = re.compile(r"-[\d.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NUMBER_START.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermitesof",
        description="Hermite-matrix construction and static output feedback synthesis",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("hermite", help="print a Hermite matrix")
    _add_common(sp, _DISPLAY_FORMATS)
    sp.add_argument("--basis", choices=("power", "lagrange"), default="power")
    sp.set_defaults(fn=cmd_hermite)

    sp = sub.add_parser("cond", help="condition numbers across bases")
    _add_common(sp, _DISPLAY_FORMATS)
    sp.add_argument("--K", help="gains at which to evaluate a symbolic fixture")
    sp.set_defaults(fn=cmd_cond)

    sp = sub.add_parser("solve", help="solve the output-feedback program")
    _add_common(sp, _ROW_FORMATS)
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
    _add_common(sp, _DISPLAY_FORMATS, target=False)
    sp.add_argument("--K", required=True, help="comma-separated gains (column-major)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="run a benchmark suite")
    sp.add_argument("--suite", default="table1")
    sp.add_argument("--format", choices=_ROW_FORMATS, default="text")
    sp.add_argument("--out", help="also write CSV to this path")
    sp.set_defaults(fn=cmd_bench)
    return parser


_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except HermiteSofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
