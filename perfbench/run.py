"""Benchmark of hermitesof: Table-1 solves, plant construction and
planted-gain design, with a traced per-layer pass.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from a checkout of the repository; the package is imported from its
`src/` directory.  Each workload runs in one process on one thread.  With
`--trace 0` the run measures whole passes for up to `--seconds` (at least
one) and reports the end-to-end metrics as medians over passes; with
`--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the full
record (environment, per-problem rows, failures) and the spans go to
`.perfbench_out/`.  The exit code is 0 only when every check passed.
See perfbench/README.md for what each metric means.
"""

import os

# One BLAS thread, set before numpy loads; table1 must see no data directory.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HERMITESOF_DATA_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("table1", "plant-build", "plant-design")


def _git_rev() -> str:
    # git reads nothing outside the checkout: no repository above it, no
    # system or user configuration
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(np, seed: int, wl) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the record must not stop the run
        blas = f"unknown ({exc})"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(),
        "seed": seed,
        "inputs": wl.inputs,
        "skipped_table1_rows": wl.skipped,
    }


def layer_metrics(tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json from the tracer's spans."""
    summary = tracer.summary()

    def rec(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    cp, obj = rec("polynomials.char_poly"), rec("solver.augmented_objective")
    forms = [rec("hermite.hermite_power"), rec("hermite.scaled_hermite")]
    sof, prog, cli = rec("solver.solve_sof"), rec("solver.SofProgram"), rec("cli.hermite")
    return {
        "polynomials.char_poly.s": cp["s"],
        "polynomials.char_poly.terms": cp.get("terms", 0),
        "polynomials.char_poly.support_frac": ratio(cp.get("useful_terms", 0), cp.get("terms", 0)),
        # the power forms that hermite_lagrange builds inside scaled_hermite
        # are in hermite.scaled_hermite.s already
        "hermite.hermite_power.s": tracer.seconds("hermite.hermite_power", "hermite."),
        "hermite.scaled_hermite.s": forms[1]["s"],
        "hermite.monomials": sum(f.get("monomials", 0) for f in forms),
        "stability.build_target.s": rec("stability.build_target")["s"],
        "stability.nodes_from_target.s": rec("stability.nodes_from_target")["s"],
        "stability.roots.calls": rec("stability.roots")["calls"],
        "stability.roots.s": rec("stability.roots")["s"],
        "solver.SofProgram.s": prog["s"],
        "solver.SofProgram.monomials": prog.get("monomials", 0),
        "solver.augmented_objective.calls": obj["calls"],
        "solver.augmented_objective.s": obj["s"],
        "solver.augmented_objective.us_per_call": 1e6 * ratio(obj["s"], obj["calls"]),
        "solver.augmented_objective.domain_rejects": obj["errors"],
        "solver.augmented_objective.reject_frac": ratio(obj["errors"], obj["calls"]),
        "solver.constraint_eval.calls": rec("solver.constraint_eval")["calls"],
        "solver.constraint_eval.s": rec("solver.constraint_eval")["s"],
        "solver.solve_sof.s": sof["s"],
        "solver.solve_sof.self_s": sof["self_s"],
        "solver.solve_sof.outer": sof.get("outer", 0),
        "solver.solve_sof.inner": sof.get("inner", 0),
        "solver.solve_sof.linesearch": sof.get("linesearch", 0),
        "solver.verify_solution.s": rec("solver.verify_solution")["s"],
        "cli.hermite.s": cli["s"],
        "cli.hermite.bytes": cli.get("bytes", 0),
    }


def _same(passes, failures: list, what: str) -> None:
    """Counts, CSV and rendered bytes must not change between passes."""
    first = passes[0]
    for i, other in enumerate(passes[1:], start=1):
        for key in sorted(set(first.fingerprint) | set(other.fingerprint)):
            if first.fingerprint.get(key) != other.fingerprint.get(key):
                failures.append(f"{what}: {key} differs between pass 0 and pass {i}")
        for key in ("objective_evals", "ok", "checked", "csv"):
            if getattr(first, key) != getattr(other, key):
                failures.append(f"{what}: {key} differs between pass 0 and pass {i}")


def run_one(args, spec: dict) -> int:
    import numpy as np

    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failures: list[str] = []
    t_run = perf_counter()
    calls = workloads.warm_up(wl)
    if args.trace:
        untraced = workloads.run_pass(wl)
        tracer = Tracer()
        traced = workloads.run_pass(wl, tracer=tracer)
        passes = [untraced, traced]
        _same(passes, failures, "untraced vs traced pass")
        metrics = layer_metrics(tracer)
        # The wall-time difference of the two passes (both are in the record)
        # is mostly host drift, so the overhead is the calibrated cost of one
        # span times the number of spans.
        spans = len(tracer.names)
        metrics["trace.overhead_s"] = spans * tracer.span_cost()
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced.wall_s
        metrics["trace.spans"] = spans
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        passes = [workloads.run_pass(wl, calls)]
        while perf_counter() - t_run + passes[-1].wall_s <= args.seconds:
            passes.append(workloads.run_pass(wl, calls))
        _same(passes, failures, "repeated pass")
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in passes),
            "solve_s": statistics.median(p.solve_s for p in passes),
            "render_s": statistics.median(p.render_s for p in passes),
            "objective_evals": passes[0].objective_evals,
            "ok_frac": passes[0].ok_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for p in passes:
        failures.extend(p.failures)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m for m in listed}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"run.py does not produce the metrics {missing} of BENCHMARK.json")

    rows = passes[-1].rows
    baseline = {}
    if args.workload == "table1":
        for row in rows:
            got = tuple(row.get(k) for k in ("outer", "inner", "linesearch", "status", "evals"))
            baseline[row["problem"]] = {
                "expected": list(workloads.TABLE1_BASELINE.get(row["problem"], ())),
                "got": list(got),
                "match": got == workloads.TABLE1_BASELINE.get(row["problem"]),
            }
    attempted = sum(p.attempted for p in passes)
    record = {
        "workload": args.workload,
        "args": vars(args),
        "environment": environment(np, args.seed, wl),
        "run_s": perf_counter() - t_run,
        "metrics": metrics,
        "passes": [
            {"wall_s": p.wall_s, "setup_s": p.setup_s, "solve_s": p.solve_s,
             "render_s": p.render_s, "objective_evals": p.objective_evals,
             "ok": p.ok, "checked": p.checked, "fingerprint": p.fingerprint}
            for p in passes
        ],
        "rows": rows,
        "csv": passes[-1].csv,
        "table1_baseline": baseline,
        "failures": failures,
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  run {record['run_s']:.2f} s")
    shown = ("status", "outer", "inner", "linesearch", "evals", "setup_s", "solve_s",
             "probe_s", "render_s", "ok", "oracle_margin")
    for row in rows:
        print(f"  {row['problem']:<18}" + "  ".join(
            f"{k}={row[k]:.4g}" if isinstance(row[k], float) else f"{k}={row[k]}"
            for k in shown if k in row))
    for name, match in baseline.items():
        print(f"  baseline {name}: {'matches' if match['match'] else 'DIFFERS'} "
              f"{match['got']} vs {match['expected']}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]['unit']} "
              f"({units[name]['better']} is better)")
    for failure in failures:
        print("FAILED: " + failure.replace("\n", "\n    "), file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]["unit"]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    codes = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        codes.append(proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            merged["failed"] += 1
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] and not any(codes) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hermitesof" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout with src/hermitesof and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
