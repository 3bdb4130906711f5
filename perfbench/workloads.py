"""The benchmark's workloads, the passes that run them and the oracle that
checks their outputs.

A pass is a closed loop: one problem after another in one process.  It has
three timed stages, each summed over the pass's problems:

- setup:  plant or fixture data -> q(k) -> target and nodes -> Hermite form
          -> SofProgram;
- solve:  solve_sof + verify_solution for each design problem (plant-build
          has none: there the stage checks the compiled forms at seeded
          probe gains instead, see `_probe`);
- render: `hermitesof hermite` through `hermitesof.cli.main`.

All calls into the package go through module attributes (`solver.solve_sof`
and so on), so that the tracer can replace them for a traced pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hermitesof.benchmarks as benchmarks
import hermitesof.cli as cli
import hermitesof.hermite as hermite
import hermitesof.polynomials as polynomials
import hermitesof.solver as solver
import hermitesof.stability as stability
from hermitesof.benchmarks import ExperimentConfig, ExperimentRow, PolyFixture
from hermitesof.stability import TargetSpec
from hermitesof.systems import SystemInstance

from tracing import Tracer, counting, patched

MIRROR = TargetSpec(mode="mirror-shift", shift=-0.5)
# Probe gains and open loops closer than this to the stability boundary
# (largest real part of a closed-loop pole) are redrawn, so that the oracle
# and the program cannot disagree on rounding alone.
BOUNDARY_GAP = 0.05

# plant-design runs the same planted suite on every seed: one planted n=4
# solve takes 0.1 s to 20 s, so a suite drawn per seed would make solve_s
# spread over a decade between runs.  The first draws of this generator are
# taken as they come, stalls included.
DESIGN_SUITE_SEED = 7
DESIGN_SHAPES = [(4, 1, 2)] * 4 + [(4, 2, 1)] * 4 + [(4, 2, 2)]
BUILD_SHAPES = [(4, 2, 2), (5, 1, 3), (6, 1, 2), (6, 2, 1)]
PROBE_SCALE = 0.05  # size of the perturbation of K* in the perturbed probes
# Perturbed-K* and random probe gains per plant, besides K* and 0.  The cost
# of one probe depends on the gain (the eigen-solvers iterate more on some
# spectra), so several are drawn to keep the probe time steady across seeds.
PROBE_DRAWS = 3
# A setup or render sample is a block of back-to-back calls that lasts at
# least SAMPLE_S (at most MAX_CALLS calls), so that millisecond calls are
# not timed one by one.  A probe sample is PROBE_CALLS probe checks: a fixed
# number, because each check counts in objective_evals.
SAMPLE_S = 0.025
MAX_CALLS = 100
PROBE_CALLS = 2

# Table-1 counts of the ROADMAP baseline: (outer, inner, line-search trials,
# status, augmented_objective calls).  Reported next to each run; a change to
# the solver may move them, so they are not a correctness check.
TABLE1_BASELINE = {
    "NN1/power": (6, 600, 7997, "converged", 9449),
    "NN1/lagrange": (4, 400, 5873, "converged", 6723),
    "AC4/power": (50, 2683, 98909, "max-iters", 117108),
    "AC4/lagrange": (15, 1285, 27707, "converged", 30002),
    "NN6/lagrange": (54, 5400, 26800, "converged", 37907),
}


# -- inputs ------------------------------------------------------------------


@dataclass
class Problem:
    """One plant or fixture with the forms to build for it.  `configs` is
    rebuilt for every round, so no configuration object is shared."""

    name: str
    plant: object  # SystemInstance or PolyFixture
    configs: list[ExperimentConfig]
    design: bool
    probes: list[tuple[np.ndarray, float]] = field(default_factory=list)
    renders: list[list[str]] = field(default_factory=list)  # argv for cli.main


@dataclass
class Workload:
    name: str
    problems: object  # () -> list[Problem], fresh objects on every call
    rounds: int  # rounds per pass; the design solves fall between them
    samples: int = 1  # setup and render samples per problem and round
    probe_samples: int = 1  # probe samples per problem and round
    skipped: list[str] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)


def closed_loop_margin(plant: SystemInstance, K) -> float:
    """Oracle: largest real part of eig(A + B K C); never uses char_poly."""
    return float(np.linalg.eigvals(plant.A + plant.B @ K @ plant.C).real.max())


def fixture_margin(fixture: PolyFixture, k) -> float:
    """Oracle for printed polynomials: numpy.roots of q(k), with the
    coefficients summed from the fixture's terms here."""
    k = np.asarray(k, dtype=float)
    coeffs = [
        sum(complex(c).real * float(np.prod(k ** np.asarray(mono)))
            for mono, c in cp.terms.items())
        for cp in fixture.q.coeffs
    ]
    desc = np.trim_zeros(np.asarray(coeffs[::-1], dtype=float), "f")
    return float(np.roots(desc).real.max())


def oracle_margin(plant, k) -> float:
    if isinstance(plant, SystemInstance):
        return closed_loop_margin(plant, np.asarray(k).reshape((plant.m, plant.p), order="F"))
    return fixture_margin(plant, k)


def planted_plant(rng, n: int, m: int, p: int, name: str):
    """Plant with a known stabilizing gain K*: A = A0 - B K* C for a Hurwitz
    A0, kept only when the open loop is unstable."""
    while True:
        G = rng.standard_normal((n, n))
        A0 = G - (np.linalg.eigvals(G).real.max() + 0.5) * np.eye(n)
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        K = rng.standard_normal((m, p))
        A = A0 - B @ K @ C
        if np.linalg.eigvals(A).real.max() > BOUNDARY_GAP:
            return SystemInstance(name=name, A=A, B=B, C=C, source="file"), K


def _probes(rng, plant: SystemInstance, Kstar) -> list[tuple[np.ndarray, float]]:
    """K*, the open loop, PROBE_DRAWS perturbed K* and PROBE_DRAWS random
    gains, each with its oracle margin; seeded draws too near the boundary
    are redrawn."""
    mp = plant.m * plant.p
    kstar = np.asarray(Kstar).flatten(order="F")
    out = [kstar, np.zeros(mp)]
    for scale, centre in [(PROBE_SCALE, kstar)] * PROBE_DRAWS + [(1.0, np.zeros(mp))] * PROBE_DRAWS:
        while True:
            k = centre + scale * rng.standard_normal(mp)
            if abs(oracle_margin(plant, k)) >= BOUNDARY_GAP:
                out.append(k)
                break
    return [(k, oracle_margin(plant, k)) for k in out]


def _part(n: int) -> str:
    # the node part whose degree is n for a Hurwitz target (CLI default)
    return "im" if n % 2 else "re"


def _write_instance(plant: SystemInstance, path: Path) -> None:
    data = {"name": plant.name, "A": plant.A.tolist(), "B": plant.B.tolist(),
            "C": plant.C.tolist()}
    path.write_text(json.dumps(data))


def _render_argvs(instance: str) -> list[list[str]]:
    return [
        ["hermite", "--fixture", instance, "--basis", "power"],
        ["hermite", "--fixture", instance, "--basis", "lagrange", "--target-shift", "-0.5"],
    ]


def table1(seed: int, workdir: Path) -> Workload:
    """The paper's comparison: the embedded Table-1 rows, configured by a
    fresh `table1_suite()` call for every pass.  Each fixture is rendered
    once, with its first row.  The seed is not used."""
    skipped = [f"{name}/{cfg.basis}"
               for name, plant, cfg in benchmarks.table1_suite() if plant is None]

    def problems():
        out, seen = [], set()
        for name, plant, cfg in benchmarks.table1_suite():
            if plant is None:
                continue
            renders = [] if name in seen else _render_argvs(name)
            seen.add(name)
            out.append(Problem(f"{name}/{cfg.basis}", plant, [cfg], design=True, renders=renders))
        return out

    return Workload("table1", problems, rounds=6, samples=2, skipped=skipped)


def plant_design(seed: int, workdir: Path) -> Workload:
    """Planted n=4 plants solved from k0 = 0 in the scaled Lagrange basis."""
    plants = []
    count: dict = {}
    for n, m, p in DESIGN_SHAPES:
        i = count[(n, m, p)] = count.get((n, m, p), -1) + 1
        rng = np.random.default_rng([DESIGN_SUITE_SEED, n, m, p, i])
        plant, kstar = planted_plant(rng, n, m, p, f"planted-{n}x{m}x{p}-{i}")
        path = workdir / f"plant-design-{plant.name}.json"
        _write_instance(plant, path)
        plants.append((plant, kstar, _render_argvs(str(path))))

    def problems():
        return [
            Problem(
                plant.name, plant,
                [ExperimentConfig("lagrange", 1e-5, k0=[0.0] * plant.mp, target=MIRROR,
                                  part=_part(plant.n), solver=solver.SolveConfig())],
                design=True,
                renders=renders,
            )
            for plant, _, renders in plants
        ]

    inputs = {plant.name: {"K*": kstar.tolist()} for plant, kstar, _ in plants}
    return Workload("plant-design", problems, rounds=4, samples=2,
                    inputs={"suite_seed": DESIGN_SUITE_SEED, "plants": inputs})


def plant_build(seed: int, workdir: Path) -> Workload:
    """Seeded planted plants of growing size; both forms are built, compiled
    and rendered, and checked at probe gains.  Nothing is solved."""
    plants = []
    for n, m, p in BUILD_SHAPES:
        rng = np.random.default_rng([seed, n, m, p])
        plant, kstar = planted_plant(rng, n, m, p, f"random-{n}x{m}x{p}")
        path = workdir / f"plant-build-{seed}-{plant.name}.json"
        _write_instance(plant, path)
        plants.append((plant, kstar, _probes(rng, plant, kstar), _render_argvs(str(path))))

    def problems():
        return [
            Problem(
                plant.name, plant,
                [ExperimentConfig("power", 1e-5),
                 ExperimentConfig("lagrange", 1e-5, target=MIRROR, part=_part(plant.n))],
                design=False,
                probes=probes,
                renders=renders,
            )
            for plant, _, probes, renders in plants
        ]

    inputs = {
        plant.name: {"K*": kstar.tolist(), "probes": [[k.tolist(), mg] for k, mg in probes]}
        for plant, kstar, probes, _ in plants
    }
    return Workload("plant-build", problems, rounds=6, probe_samples=3,
                    inputs={"seed": seed, "plants": inputs})


WORKLOADS = {"table1": table1, "plant-build": plant_build, "plant-design": plant_design}


# -- one pass ----------------------------------------------------------------


def _monomials(H) -> int:
    """Distinct monomials over all entries of a Hermite form."""
    return len({m for row in H.entries for e in row for m in e.terms})


def _support(q, cap: int) -> tuple[int, int]:
    """(terms of q(k), terms inside the multi-affine support of degree
    <= cap = min(m, p))."""
    total = useful = 0
    for c in q.coeffs:
        for mono in c.terms:
            total += 1
            useful += max(mono, default=0) <= 1 and sum(mono) <= cap
    return total, useful


def _compiled_rows(prog) -> int:
    """Rows of the compiled tensors for H and every dH/dk_l; 0 once the
    program keeps no compiled monomial tensors."""
    hc, dhc = getattr(prog, "_hc", None), getattr(prog, "_dhc", None)
    if hc is None or dhc is None:
        return 0
    return int(hc[0].shape[0] + sum(E.shape[0] for E, _ in dhc))


@dataclass
class Built:
    q: object
    m: int
    p: int
    programs: list


def _setup(problem: Problem) -> Built:
    plant = problem.plant
    if isinstance(plant, SystemInstance):
        q, m, p = polynomials.char_poly(plant), plant.m, plant.p
    else:
        q, m, p = plant.q, plant.m, plant.p
    programs = []
    for cfg in problem.configs:
        if cfg.basis == "power":
            H = hermite.hermite_power(q)
        else:
            if cfg.target.mode == "explicit-roots":
                target = stability.build_target([], cfg.target)
            else:
                open_poles = stability.roots(q.at_gains(np.zeros(m * p)))
                target = stability.build_target(open_poles, cfg.target)
            nodes = stability.nodes_from_target(target, part=cfg.part)
            H = hermite.scaled_hermite(q, target, part=cfg.part, nodes=nodes)
        programs.append(solver.SofProgram(H, mu=cfg.mu, m=m, p=p))
    return Built(q, m, p, programs)


@dataclass
class PassResult:
    wall_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    render_s: float = 0.0
    objective_evals: int = 0
    ok: int = 0
    checked: int = 0  # design problems, or probe gains on plant-build
    attempted: int = 0
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    csv: str = ""  # Table-1 style CSV rows of the design problems

    @property
    def ok_frac(self) -> float:
        return self.ok / self.checked if self.checked else 0.0

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _solve(problem: Problem, built: Built, res: PassResult, row: dict, evals) -> str | None:
    """One design problem; returns a CSV row or None on error."""
    cfg = problem.configs[0]
    k0 = np.zeros(built.m * built.p) if cfg.k0 is None else np.asarray(cfg.k0, dtype=float)
    scfg = dataclasses.replace(cfg.solver or solver.SolveConfig(), k0=k0.copy(), lam0=cfg.lam0)
    before = evals()
    t0 = perf_counter()
    try:
        report = solver.solve_sof(built.programs[0], scfg)
        _, stable, margin = solver.verify_solution(built.q, report.K)
    except Exception:
        res.solve_s += perf_counter() - t0
        res.fail(f"{problem.name}: solve raised\n{traceback.format_exc()}")
        row.update(status="error", ok=False)
        return None
    seconds = perf_counter() - t0
    res.solve_s += seconds
    oracle = oracle_margin(problem.plant, report.k)
    ok = report.status == "converged" and oracle < 0
    res.ok += ok
    if stable != (oracle < 0):
        res.fail(
            f"{problem.name}: verify_solution says stable={stable} (margin {margin:.6g}) "
            f"but the oracle margin is {oracle:.6g}"
        )
    row.update(
        status=report.status, outer=report.outer_iters, inner=report.inner_iters,
        linesearch=report.linesearch_steps, evals=evals() - before, solve_s=seconds,
        stable=bool(stable), margin=margin, oracle_margin=oracle, ok=bool(ok),
    )
    csv_row = ExperimentRow(
        system=problem.name.split("/")[0], basis=cfg.basis, mu=cfg.mu,
        k0=benchmarks._fmt_vec(k0.reshape((built.m, built.p), order="F")),
        outer=report.outer_iters, inner=report.inner_iters, linesearch=report.linesearch_steps,
        K=benchmarks._fmt_vec(report.K), lam=report.lam, status=report.status, stable=bool(stable),
    )
    return benchmarks.rows_to_csv([csv_row]).splitlines()[1]


def _objective_agrees(prog, x, p: float, val: float, grad) -> bool:
    """augmented_objective's value and gradient at x = (k, lambda) for
    U = I/n against closed forms that use no eigen-decomposition.  With
    Z = lambda I - H(k) and R = I - Z/p, the value is
    mu |k| - lambda - (p/n) log det R, the k_l-derivative is
    mu k_l/|k| - tr(R^-1 dH/dk_l)/n and the lambda-derivative is
    -1 + tr(R^-1)/n; dH/dk_l is a central difference of H(k)."""
    k, lam = x[:-1], x[-1]
    n = prog.H.n
    R = np.eye(n) - (lam * np.eye(n) - prog.h_eval(k)) / p
    sign, logdet = np.linalg.slogdet(R)
    nk = float(np.linalg.norm(k))
    value = prog.mu * nk - lam - p / n * logdet
    Rinv = np.linalg.inv(R)
    expected = np.empty(x.size)
    for l in range(k.size):
        h = 1e-5 * max(1.0, abs(k[l]))
        up, down = k.copy(), k.copy()
        up[l] += h
        down[l] -= h
        dH = (prog.h_eval(up) - prog.h_eval(down)) / (2 * h)
        expected[l] = (prog.mu * k[l] / nk if nk > 0 else 0.0) - np.trace(Rinv @ dH) / n
    expected[-1] = -1.0 + np.trace(Rinv) / n
    return bool(sign > 0 and np.isclose(val, value, rtol=1e-9, atol=1e-9)
                and np.allclose(grad, expected, rtol=1e-6, atol=1e-9))


def _probe(problem: Problem, built: Built) -> tuple[float, list]:
    """Program-side calls at each probe gain: verify_solution's verdict,
    H(k) for every compiled form, and one augmented_objective evaluation per
    form at the interior point lambda = min eig H(k) - 1.  Returns the
    seconds spent and, per probe, (stable, [(program, x, lambda_min,
    (value, gradient)) per form])."""
    p0 = solver.SolveConfig().p0
    t0 = perf_counter()
    outs = []
    for k, _ in problem.probes:
        K = k.reshape((built.m, built.p), order="F")
        _, stable, _ = solver.verify_solution(built.q, K)
        forms = []
        for prog in built.programs:
            lam_min = float(np.linalg.eigvalsh(prog.h_eval(k)).min())
            n = prog.H.n
            x = np.append(k, lam_min - 1.0)
            forms.append((prog, x, lam_min, solver.augmented_objective(prog, x, np.eye(n) / n, p0)))
        outs.append((bool(stable), forms))
    return perf_counter() - t0, outs


def _render(argv: list[str], tracer: Tracer | None) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.hermite") if tracer else contextlib.nullcontext({})
    with span as attrs, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    attrs["bytes"] = len(text.encode())
    return rc, text + err.getvalue()


def _calls_per_sample(seconds: float) -> int:
    return min(MAX_CALLS, max(1, math.ceil(SAMPLE_S / max(seconds, 1e-9))))


def warm_up(wl: Workload) -> dict:
    """One untimed setup and render of every problem before the first pass,
    so that no timed sample pays the process's first-touch costs (the first
    rounds of a fresh process run up to 1.5x slower).  Returns the calls per
    setup and render sample of each problem, sized from these calls so that
    a sample lasts at least SAMPLE_S.  A failing call fails again, and is
    recorded, in the pass."""
    calls = {}
    for problem in wl.problems():
        t0 = perf_counter()
        with contextlib.suppress(Exception):
            _setup(problem)
        calls[("setup", problem.name)] = _calls_per_sample(perf_counter() - t0)
        if problem.renders:
            t0 = perf_counter()
            for argv in problem.renders:
                with contextlib.suppress(Exception):
                    _render(argv, None)
            calls[("render", problem.name)] = _calls_per_sample(perf_counter() - t0)
    return calls


def run_pass(wl: Workload, calls: dict | None = None, tracer: Tracer | None = None) -> PassResult:
    """One closed-loop pass over the workload.  With `calls` (from
    `warm_up`), it takes the workload's rounds and samples; without, one
    round with one call per sample.  With `tracer`, every public layer
    function is wrapped in a span for the pass; without, only
    augmented_objective is wrapped, by a counter that does no timing."""
    res = PassResult()
    replacements = layer_wrappers(tracer) if tracer else {}
    objective = solver.augmented_objective
    counter = counting(replacements.get(objective, objective))
    replacements[objective] = counter
    t_pass = perf_counter()
    with patched(replacements):
        _run_stages(wl, res, calls, tracer, lambda: counter.calls[0])
    res.wall_s = perf_counter() - t_pass
    res.objective_evals = counter.calls[0]
    return res


def _run_stages(wl: Workload, res: PassResult, calls: dict | None, tracer, evals) -> None:
    """`wl.rounds` rounds of setup, probe and render samples over every
    problem, with the design solves split between consecutive rounds.  A
    stage's time is the sum over problems of the mean of their samples.  On
    a shared host the speed switches between a fast and a slow mode within
    seconds; the rounds spread each stage's samples over the whole pass, and
    the mean weighs the two modes by the time spent in each, as a solve's
    time does, where a median jumps from one mode to the other."""
    rounds = wl.rounds if calls else 1
    samples: dict = {"setup": {}, "probe": {}, "render": {}}
    rows: dict = {}
    csv_rows = []
    for r in range(rounds):
        design = []
        for problem in wl.problems():  # fresh problem and config objects
            if tracer:
                tracer.set_problem(problem.name)
            row = rows.setdefault(problem.name, {"problem": problem.name})
            for _ in range(wl.samples if calls else 1):
                built = _setup_once(problem, res, samples["setup"], row,
                                    calls.get(("setup", problem.name), 1) if calls else 1)
            if built is not None and problem.probes:
                _probe_once(problem, built, res, wl.probe_samples if calls else 1,
                            PROBE_CALLS if calls else 1, samples["probe"], row)
            for _ in range(wl.samples if calls else 1):
                _render_once(problem, res, samples["render"], row, tracer,
                             calls.get(("render", problem.name), 1) if calls else 1)
            if problem.design:
                res.checked += r == 0
                design.append((problem, built, row))
        if rounds > 1 and r == rounds - 1:
            break
        for i in np.array_split(np.arange(len(design)), max(rounds - 1, 1))[r]:
            problem, built, row = design[i]
            if built is None:
                continue
            if tracer:
                tracer.set_problem(problem.name)
            res.attempted += 1
            csv_rows.append(_solve(problem, built, res, row, evals))
    res.rows = list(rows.values())
    for row in res.rows:
        for stage in samples:
            if row["problem"] in samples[stage]:
                row[f"{stage}_samples"] = samples[stage][row["problem"]]
                row[f"{stage}_s"] = statistics.fmean(row[f"{stage}_samples"])
    res.setup_s = sum(r.get("setup_s", 0.0) for r in res.rows)
    res.render_s = sum(r.get("render_s", 0.0) for r in res.rows)
    res.solve_s += sum(r.get("probe_s", 0.0) for r in res.rows)
    fp = res.fingerprint
    fp["csv_sha256"] = hashlib.sha256("\n".join(map(str, csv_rows)).encode()).hexdigest()
    fp["problems"] = [
        [r["problem"]] + [r.get(k) for k in ("status", "outer", "inner", "linesearch", "evals",
                                              "sizes", "probe_sha256", "render_sha256",
                                              "render_bytes")]
        for r in res.rows
    ]
    res.csv = "\n".join(r for r in csv_rows if r)


def _setup_once(problem: Problem, res: PassResult, samples: dict, row: dict,
                calls: int) -> Built | None:
    """One setup sample: `calls` setups back to back, timed as one block."""
    res.attempted += calls
    t0 = perf_counter()
    try:
        for _ in range(calls):
            built = _setup(problem)
    except Exception:
        res.fail(f"{problem.name}: setup raised\n{traceback.format_exc()}")
        return None
    samples.setdefault(problem.name, []).append((perf_counter() - t0) / calls)
    sizes = [list(_support(built.q, min(built.m, built.p))),
             [_monomials(prog.H) for prog in built.programs],
             [_compiled_rows(prog) for prog in built.programs]]
    if row.setdefault("sizes", sizes) != sizes:
        res.fail(f"{problem.name}: setup built programs of different sizes in two rounds")
    return built


def _probe_once(problem: Problem, built: Built, res: PassResult, count: int, calls: int,
                samples: dict, row: dict) -> None:
    """`count` probe samples of `calls` probe checks each (one check takes
    milliseconds).  The first check is scored against the oracle and the
    closed form; every later one must return the same numbers."""
    for _ in range(count):
        seconds = 0.0
        for _ in range(calls):
            took, outs = _probe(problem, built)
            seconds += took
            res.attempted += len(problem.probes)
            numbers = [(stable, [(lam, val, grad.tolist()) for _, _, lam, (val, grad) in forms])
                       for stable, forms in outs]
            sha = hashlib.sha256(repr(numbers).encode()).hexdigest()
            if "probe_sha256" in row:
                if row["probe_sha256"] != sha:
                    res.fail(f"{problem.name}: probe results changed between calls")
                continue
            row["probe_sha256"] = sha
            _score_probes(problem, outs, res, row)
        samples.setdefault(problem.name, []).append(seconds / calls)


def _score_probes(problem: Problem, outs: list, res: PassResult, row: dict) -> None:
    p0 = solver.SolveConfig().p0
    res.checked += len(problem.probes)
    row["probes"] = []
    for (k, oracle), (stable, forms) in zip(problem.probes, outs):
        pd = [(lam > 0, _objective_agrees(prog, x, p0, *out)) for prog, x, lam, out in forms]
        agree = stable == (oracle < 0) and all(
            ispd == (oracle < 0) and exact for ispd, exact in pd
        )
        res.ok += agree
        row["probes"].append({"oracle_margin": oracle, "stable": stable,
                              "pd": [bool(a) for a, _ in pd], "agree": bool(agree)})
        if not agree:
            res.fail(
                f"{problem.name}: at probe k={k.tolist()} the oracle margin is "
                f"{oracle:.6g} but verify_solution says stable={stable} and the "
                f"compiled forms say (PD, objective matches its closed form) = {pd}"
            )


def _render_once(problem: Problem, res: PassResult, samples: dict, row: dict, tracer,
                 calls: int) -> None:
    """One render sample: every render of the problem, `calls` times back
    to back.  Every call must print the same bytes."""
    if not problem.renders:
        return
    total = 0.0
    for _ in range(calls):
        sha, lengths = hashlib.sha256(), []
        for argv in problem.renders:
            res.attempted += 1
            t0 = perf_counter()
            try:
                rc, text = _render(argv, tracer)
            except Exception:
                rc, text = -1, traceback.format_exc()
            total += perf_counter() - t0
            sha.update(text.encode())
            lengths.append(len(text))
            if rc != 0:
                res.fail(f"hermitesof {' '.join(argv)} exited {rc}: {text[-2000:]}")
        if row.setdefault("render_sha256", sha.hexdigest()) != sha.hexdigest():
            res.fail(f"{problem.name}: render output changed between calls")
        row["render_bytes"] = lengths
    samples.setdefault(problem.name, []).append(total / calls)


# -- per-layer wrappers --------------------------------------------------------


def layer_wrappers(tracer: Tracer) -> dict:
    """Original function -> traced wrapper, for every layer boundary."""

    def char_poly_attrs(q, args, tr, idx):
        B, C = np.asarray(args[0].B), np.asarray(args[0].C)
        terms, useful = _support(q, min(B.shape[1], C.shape[0]))
        return {"terms": terms, "useful_terms": useful}

    def form_attrs(H, args, tr, idx):
        if tr.parent_name(idx).startswith("hermite."):
            return None  # a form built inside another hermite.* call
        return {"monomials": _monomials(H)}

    def program_attrs(prog, args, tr, idx):
        return {"monomials": _compiled_rows(prog)}

    def report_attrs(rep, args, tr, idx):
        return {"outer": rep.outer_iters, "inner": rep.inner_iters,
                "linesearch": rep.linesearch_steps}

    layers = [
        (polynomials, "char_poly", char_poly_attrs),
        (hermite, "hermite_power", form_attrs),
        (hermite, "scaled_hermite", form_attrs),
        (stability, "build_target", None),
        (stability, "nodes_from_target", None),
        (stability, "roots", None),
        (solver, "SofProgram", program_attrs),
        (solver, "augmented_objective", None),
        (solver, "constraint_eval", None),
        (solver, "solve_sof", report_attrs),
        (solver, "verify_solution", None),
    ]
    return {
        getattr(mod, attr): tracer.wrap(
            f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", getattr(mod, attr), measure
        )
        for mod, attr, measure in layers
    }
