"""Command-line driver: batch analyses with reproducible report files.

Usage::

    pssuq <command> --netlist <path> --config <path> --out <dir>
          [--seed N] [--order p] [--mode coupled|decoupled]

Commands: ``pss-forced``, ``pss-osc`` (deterministic solves), ``st-forced``,
``st-osc`` (intrusive chaos solves), ``mc`` (Monte Carlo baseline),
``compare`` (chaos vs Monte Carlo deltas), ``convergence`` (error vs chaos
order), ``speedup`` (coupled vs decoupled linear-solve timing). The config
file is JSON; see the README for the schema. Every run writes
``manifest.json`` (inputs, versions, seeds, wall-clock per phase, output
hashes) and ``summary.txt`` next to the analysis-specific CSV/JSON files.

Exit codes: 0 success, 2 config/netlist problems, 3 solver
non-convergence, 4 internal errors.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import timeit
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    METRICS,
    MIN_METRIC_SAMPLES,
    build_uq_report,
    draw_standardized,
    metric_distribution,
    monte_carlo,
    sample_periods,
    waveform_stats,
)
from .netlist import parse_netlist
from .shooting import (
    SHOOTING_TOL,
    STEPS_PER_PERIOD,
    OscillationError,
    nominal_start,
    shooting_jacobian,
    solve_nominal,
)
from .stpss import assemble_forced, solve_st, testing_set
from .transient import TRAPEZOIDAL, ConvergenceError, NewtonOptions, integrate, scheme_by_name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


# the shooting options default to the library's own defaults
_DEFAULTS = {
    "gpc_order": 3,
    "scheme": TRAPEZOIDAL.kind,
    "steps_per_period": STEPS_PER_PERIOD,
    "shooting_tol": SHOOTING_TOL,
    "newton_tol": NewtonOptions.tol,
    "mode": "decoupled",
    "seed": 0,
    "mc_samples": 1000,
    "metric_samples": 100_000,
    "metrics": [],
}

MAX_CONVERGENCE_ORDER = 6  # highest chaos order a convergence sweep solves


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_config(path, overrides=None):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    cfg.update({k: v for k, v in (overrides or {}).items() if v is not None})
    # a standard deviation needs two Monte Carlo samples
    bounds = (("seed", None), ("mc_samples", 2), ("metric_samples", MIN_METRIC_SAMPLES))
    for key, least in bounds:
        if not _is_int(cfg[key]):
            raise ConfigError(f"{key} must be an integer")
        if least is not None and cfg[key] < least:
            raise ConfigError(f"{key} must be at least {least}")
    for key in ("shooting_tol", "newton_tol"):
        if not (_is_number(cfg[key]) and cfg[key] > 0):
            raise ConfigError(f"{key} must be a positive number")
    for key in ("period", "phase_value"):
        if cfg.get(key) is not None and not _is_number(cfg[key]):
            raise ConfigError(f"{key} must be a number")
    if cfg.get("power_sign") is not None and not (
        _is_number(cfg["power_sign"]) and abs(cfg["power_sign"]) == 1
    ):
        raise ConfigError("power_sign must be 1 or -1")
    if cfg.get("period") is not None and cfg["period"] <= 0:
        raise ConfigError("period must be positive")
    if not (isinstance(cfg["metrics"], list) and all(isinstance(m, str) for m in cfg["metrics"])):
        raise ConfigError("metrics must be a list of strings")
    for metric in cfg["metrics"]:
        if metric not in METRICS:
            raise ConfigError(f"metrics: unknown metric {metric!r} (known: {', '.join(METRICS)})")
        for key in METRICS[metric][1]:
            _require(cfg, key, f"{metric} metric")
    if not (_is_int(cfg["gpc_order"]) and cfg["gpc_order"] >= 0):
        raise ConfigError("gpc_order must be an integer >= 0")
    if not (_is_int(cfg["steps_per_period"]) and cfg["steps_per_period"] >= 16):
        raise ConfigError("steps_per_period must be an integer >= 16")
    orders = cfg.get("orders")
    if orders is not None and not (
        isinstance(orders, list)
        and orders
        and all(_is_int(p) and 0 <= p <= MAX_CONVERGENCE_ORDER for p in orders)
    ):
        raise ConfigError(
            f"orders must be a non-empty list of integers from 0 to {MAX_CONVERGENCE_ORDER}"
        )
    if cfg["mode"] not in ("coupled", "decoupled"):
        raise ConfigError("mode must be 'coupled' or 'decoupled'")
    try:
        scheme_by_name(cfg["scheme"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _require(cfg, key, command):
    if cfg.get(key) is None:
        raise ConfigError(f"{command} needs config field {key!r}")
    return cfg[key]


class Reporter:
    """Collects output files, hashes, phase timings, and summary lines; makes
    the output directory at the first file, so a rejected run leaves none."""

    def __init__(self, out_dir):
        self.out = Path(out_dir)
        self.files = {}
        self.timings = {}
        self.lines = []
        self.manifest_extra = {}

    def say(self, text):
        self.lines.append(text)

    def phase(self, name):
        reporter = self

        class _Timer:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                reporter.timings[name] = time.perf_counter() - self.t0

        return _Timer()

    def write_text(self, name, text):
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        self.files[name] = _file_hash(path)
        return path

    def write_json(self, name, obj):
        return self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def write_csv(self, name, header, rows):
        # row by row: a coefficient file (n*K columns) is never held as text.
        # One printf format per layout of value types: "%d" for an integer
        # (str(int(v))), "%.17g" for anything else (17 digits: the float back)
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        formats = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                row = tuple(row)
                kinds = tuple(map(type, row))
                if (line := formats.get(kinds)) is None:
                    line = formats[kinds] = ",".join(
                        "%d" if issubclass(k, (int, np.integer)) else "%.17g" for k in kinds
                    ) + "\n"
                fh.write(line % row)
        self.files[name] = _file_hash(path)
        return path

    def finish(self, command, netlist_path, config):
        summary = "\n".join(self.lines) + "\n"
        self.write_text("summary.txt", summary)
        manifest = {
            "command": command,
            "netlist": str(netlist_path) if netlist_path else None,
            "netlist_sha256": _file_hash(netlist_path) if netlist_path else None,
            "config": config,
            "versions": {
                "pssuq": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "seed": config.get("seed"),
            "timings_s": self.timings,
            "outputs": self.files,
            **self.manifest_extra,
        }
        (self.out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return manifest


def _file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# shared pieces


def _load_circuit(netlist_path):
    p = Path(netlist_path)
    if not p.exists():
        raise ConfigError(f"netlist file not found: {netlist_path}")
    return parse_netlist(p.read_text(encoding="utf-8"))


def _solver_options(cfg):
    return {
        "tol": cfg["shooting_tol"],
        "scheme": scheme_by_name(cfg["scheme"]),
        "n_steps": cfg["steps_per_period"],
        "newton": NewtonOptions(tol=cfg["newton_tol"]),
    }


def _nominal_problem(circuit, cfg, kind=None):
    """``nominal_start``'s arguments for ``kind``, "forced" or "autonomous";
    by default the circuit's own, an oscillator when it has no time-varying
    source."""
    phase_index = None
    if kind == "autonomous" or (kind is None and circuit.is_autonomous):
        phase_index = circuit.state_index(str(_require(cfg, "phase_state", "oscillator analysis")))
    return circuit, cfg.get("period"), phase_index, cfg.get("phase_value")


def _solve_nominal(circuit, cfg, kind=None):
    """The converged nominal steady state, which pss-*, mc, compare and
    convergence keep; st-forced and st-osc need only its ``nominal_start``."""
    return solve_nominal(*_nominal_problem(circuit, cfg, kind), **_solver_options(cfg))


def _waveform_stats_rows(times, mean, std, names):
    header = ["time"] + [f"mean[{u}]" for u in names] + [f"std[{u}]" for u in names]
    rows = [[t, *mean[k], *std[k]] for k, t in enumerate(times)]
    return header, rows


def _write_distribution(rep, name, dist):
    rep.write_csv(
        f"metric_{name}_hist.csv",
        ["bin_lo", "bin_hi", "density"],
        [
            [dist.bin_edges[i], dist.bin_edges[i + 1], dist.density[i]]
            for i in range(dist.density.size)
        ],
    )
    if dist.kde_grid is not None:
        rep.write_csv(
            f"metric_{name}_kde.csv",
            ["value", "density"],
            list(zip(dist.kde_grid, dist.kde_density)),
        )
    rep.say(f"metric {name}: mean {dist.mean:.6g}, std {dist.std:.6g}")


def _st_metrics(circuit, cfg, kind):
    """The metric distributions an ``st-*`` run writes, each with the
    ``metric_distribution`` keywords of the states it reads, the labels
    resolved: an oscillator's period first, then the config's ``metrics``,
    each once."""
    if kind != "autonomous" and "period" in cfg["metrics"]:
        raise ConfigError("the period metric needs an oscillator (st-osc)")
    names = (["period"] if kind == "autonomous" else []) + cfg["metrics"]
    return {
        metric: {kw: circuit.state_index(str(cfg[f])) for f, kw in METRICS[metric][1].items()}
        for metric in dict.fromkeys(names)
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_pss(rep, circuit, cfg, kind):
    with rep.phase("solve"):
        sol = _solve_nominal(circuit, cfg, kind)
    rep.write_json("solution.json", sol.summary())
    _write_trajectory(rep, "trajectory.csv", circuit.state_names, sol.trajectory)
    if sol.phase is None:
        rep.say(
            f"forced PSS: period {sol.period:.6g} s, {sol.iterations} iterations, "
            f"residual {float(sol.residual_norm):.3e}"
        )
    else:
        rep.say(
            f"oscillator PSS: period {float(sol.period):.6g} s "
            f"(estimate {float(sol.period / sol.period_scale):.6g} s), {sol.iterations} iterations"
        )


def _write_trajectory(rep, name, header, traj):
    return rep.write_csv(
        name, ["time"] + header,
        ([t, *row.tolist()] for t, row in zip(traj.times.tolist(), traj.states)),
    )


def _solve_st(circuit, cfg, start):
    """``solve_st`` from ``start`` (a ``nominal_start`` or a nominal PSS)
    with the config's order, mode and shooting options."""
    return solve_st(circuit, start, cfg["gpc_order"], cfg["mode"], **_solver_options(cfg))


def _cmd_st(rep, circuit, cfg, kind):
    metrics = _st_metrics(circuit, cfg, kind)
    with rep.phase("start"):
        start = nominal_start(*_nominal_problem(circuit, cfg, kind))
    with rep.phase("chaos_solve"):
        sol = _solve_st(circuit, cfg, start)
    # sampled before any file is written: a metric fault leaves no output
    power_sign = float(cfg.get("power_sign", 1.0))
    dists = [metric_distribution(sol, metric, cfg["metric_samples"], cfg["seed"] + 1,
                                 power_sign=power_sign, **kw)
             for metric, kw in metrics.items()]
    _write_st_outputs(rep, circuit, sol)
    if kind == "forced":
        rep.say(
            f"chaos forced PSS: order {cfg['gpc_order']} ({sol.testing.size} basis functions), "
            f"{sol.iterations} iterations, residual {sol.residual_norm:.3e}, mode {sol.mode}"
        )
    else:
        mean, std = sol.period_moments()
        rep.say(
            f"chaos oscillator PSS: period mean {mean:.6g} s, std {std:.6g} s, "
            f"{sol.iterations} iterations, mode {sol.mode}"
        )
    for metric, dist in zip(metrics, dists):
        _write_distribution(rep, metric, dist)


def _write_st_outputs(rep, circuit, sol):
    rep.write_json("solution.json", sol.summary())
    rep.write_text("testing_nodes.json", sol.testing.to_json() + "\n")
    # column c<k>[<state>]: the k-th chaos coefficient (1-based, index-set
    # order) of that state, block-major like the coefficient stack
    header = [f"c{k + 1}[{nm}]" for k in range(sol.testing.size) for nm in circuit.state_names]
    _write_trajectory(rep, "coefficients.csv", header, sol.trajectory)
    mean, std = waveform_stats(sol)
    header, rows = _waveform_stats_rows(sol.trajectory.times, mean, std, circuit.state_names)
    rep.write_csv("waveform_stats.csv", header, rows)


def _cmd_mc(rep, circuit, cfg):
    with rep.phase("nominal_solve"):
        nominal = _solve_nominal(circuit, cfg)
    _run_mc(rep, circuit, cfg, nominal)


def _run_mc(rep, circuit, cfg, nominal):
    """Monte Carlo from the nominal solution, and its reports."""
    with rep.phase("monte_carlo"):
        run = monte_carlo(
            circuit, nominal, cfg["mc_samples"], cfg["seed"], **_solver_options(cfg)
        )
    kind = "forced" if nominal.phase is None else "autonomous"
    mean, std = run.waveform_mean_std()
    header, rows = _waveform_stats_rows(run.times, mean, std, circuit.state_names)
    rep.write_csv("mc_waveform_stats.csv", header, rows)
    info = {
        "samples": run.n_samples,
        "seed": run.seed,
        "failures": int(np.sum(run.failed)),
        "kind": kind,
        "iterations": run.iterations,
    }
    if kind == "autonomous":
        pm, ps = run.scalar_stats(run.period)
        info["period_mean"] = pm
        info["period_std"] = ps
        rep.write_csv(
            "mc_periods.csv", ["sample", "period"],
            [[i, p] for i, p in enumerate(np.asarray(run.period))],
        )
        text = f"period mean {pm:.6g} s, std {ps:.6g} s"
    else:
        text = f"{run.n_samples} samples, {info['failures']} failures"
    rep.say(f"Monte Carlo ({kind}): {text}, {run.iterations} iterations")
    rep.write_json("mc.json", info)
    return run


def _cmd_compare(rep, circuit, cfg):
    with rep.phase("nominal_solve"):
        nominal = _solve_nominal(circuit, cfg)
    with rep.phase("chaos_solve"):
        sol = _solve_st(circuit, cfg, nominal)
    _write_st_outputs(rep, circuit, sol)
    run = _run_mc(rep, circuit, cfg, nominal)

    surrogate = None
    if nominal.phase is not None:
        # independent equal-size surrogate sample for the CDF comparison
        n_ok = int(np.sum(run.ok()))
        xi_s = draw_standardized(sol.testing.basis.families, cfg["seed"] + 2, n_ok)
        surrogate = sample_periods(sol, xi_s)
    report = build_uq_report(sol, run, surrogate_periods=surrogate)
    rep.say(
        f"chaos vs Monte Carlo: max relative mean delta "
        f"{report['max_rel_mean_delta']:.3e}, std delta {report['max_rel_std_delta']:.3e}"
    )
    if surrogate is not None:
        rep.say(
            f"period: chaos {report['period_mean_chaos']:.6g} +- "
            f"{report['period_std_chaos']:.3g} s, "
            f"MC {report['period_mean_mc']:.6g} +- {report['period_std_mc']:.3g} s, "
            f"KS {report['period_ks_statistic']:.4f}"
        )
    rep.write_json("compare.json", report)


def _cmd_convergence(rep, circuit, cfg):
    orders = cfg.get("orders") or list(range(1, MAX_CONVERGENCE_ORDER + 1))
    with rep.phase("sweep"):
        rows = convergence_sweep(circuit, cfg, orders)
    rep.write_csv("convergence.csv", ["order", "n_basis", "rel_error"], rows)
    for p, K, err in rows:
        rep.say(f"order {p} (K={K}): relative error vs reference {err:.3e}")


def convergence_sweep(circuit, cfg, orders):
    """Coefficient error against the highest requested order.

    Solves the forced chaos problem at each order on a shared grid; the
    error is the relative infinity norm over the coefficient entries the
    two index sets share (lower orders prefix the reference ordering).
    """
    nominal = _solve_nominal(circuit, cfg, "forced")
    solutions = {}
    for p in sorted(set(orders)):
        solutions[p] = _solve_st(circuit, dict(cfg, gpc_order=p), nominal).coeffs
    p_ref = max(solutions)
    ref = solutions[p_ref]
    scale = np.max(np.abs(ref))
    rows = []
    for p in sorted(solutions):
        blocks = solutions[p]
        padded = np.zeros_like(ref)
        padded[: blocks.shape[0]] = blocks
        err = np.max(np.abs(padded - ref)) / scale
        rows.append([p, blocks.shape[0], err])
    return rows


def _speedup_options(cfg):
    """The ``speedup`` config options over their defaults, validated."""
    opts = cfg.get("speedup") or {}
    if not isinstance(opts, dict):
        raise ConfigError("config field 'speedup' must be a JSON object")
    opts = {"n": 100, "orders": [1, 2, 3, 4], "dim": 4, "steps": 40, "repeats": 3, **opts}

    for key in ("n", "dim", "steps", "repeats"):
        if not (_is_int(opts[key]) and opts[key] > 0):
            raise ConfigError(f"speedup option {key!r} must be a positive integer")
    orders = opts["orders"]
    if not (isinstance(orders, list) and orders and all(_is_int(p) and p >= 0 for p in orders)):
        raise ConfigError("speedup option 'orders' must be a non-empty list of integers >= 0")
    return opts


def _cmd_speedup(rep, circuit, cfg):
    opts = _speedup_options(cfg)
    with rep.phase("sweep"):
        rows, blas = speedup_sweep(
            n_nodes=opts["n"],
            orders=opts["orders"],
            dim=opts["dim"],
            n_steps=opts["steps"],
            repeats=opts["repeats"],
            seed=cfg["seed"],
        )
    rep.manifest_extra["blas"] = blas
    rep.write_csv(
        "speedup.csv", ["order", "n_basis", "t_coupled_s", "t_decoupled_s", "ratio"], rows
    )
    rep.say(
        f"timed in a child process: {blas['library']} {blas['version']}, "
        f"BLAS threads {blas['threads']}"
    )
    for p, K, tc, td, ratio in rows:
        rep.say(f"order {p} (K={K}): coupled {tc:.4g} s, decoupled {td:.4g} s, ratio {ratio:.1f}")
    ratios = [r[4] for r in rows]
    if len(ratios) > 1 and all(b > a for a, b in zip(ratios, ratios[1:])):
        rep.say("decoupling speedup grows with the basis size")


def synthetic_ladder(n_nodes, dim):
    """Linear RC ladder with ``dim`` randomized resistors (n_nodes states)."""
    lines = ["* synthetic linear ladder network"]
    for j in range(dim):
        kind = "uniform(900, 1100)" if j % 2 else "gauss(1000, 50)"
        lines.append(f".param p{j} = {kind}")
    slots = np.linspace(1, n_nodes - 1, dim).astype(int)
    lines.append("I1 0 n1 DC 1m")
    for k in range(1, n_nodes):
        value = "{p%d}" % np.where(slots == k)[0][0] if k in slots else "1k"
        lines.append(f"R{k} n{k} n{k + 1} {value}")
        lines.append(f"C{k} n{k} 0 1u")
    lines.append(f"C{n_nodes} n{n_nodes} 0 1u")
    lines.append(f"R{n_nodes} n{n_nodes} 0 1k")
    return parse_netlist("\n".join(lines))


_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

_CHILD_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from pssuq.cli import _sweep_child; _sweep_child()"
)


def speedup_sweep(n_nodes=100, orders=(1, 2, 3, 4), dim=4, n_steps=40, repeats=3, seed=0):
    """Per-iteration linear-solve times, coupled vs decoupled, vs basis size.

    Builds the per-node shooting Jacobians of a synthetic linear network
    once per order (outside the timed region), then times (a) one dense
    solve of the coupled system assembled by the congruence transform and
    (b) the K independent node solves plus the two V transforms, each as
    the best per-call time of ``repeats`` alternating batches of calls
    lasting at least 50 ms. Returns ``(rows, blas)``: rows ``[order, K,
    t_coupled, t_decoupled, ratio]`` and the BLAS record (library, version,
    thread count).

    The sweep runs in a fresh child interpreter whose environment sets every
    BLAS thread variable to 1 before numpy loads its BLAS, whatever the
    library and whatever the caller's environment: a multithreaded BLAS
    speeds up the large coupled solve but not the small block solves, which
    would flatten the measured scaling. An exception the child raises is
    raised again here by its class, so a bad option still maps to its exit
    code, with the child's traceback as its cause; a child that dies
    without a reply raises RuntimeError carrying its stderr.
    """
    options = {"n_nodes": n_nodes, "orders": list(orders), "dim": dim,
               "n_steps": n_steps, "repeats": repeats, "seed": seed}
    env = dict(os.environ, **{var: "1" for var in _BLAS_THREAD_VARS})
    package_parent = str(Path(__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_CODE, package_parent],
        input=json.dumps(options, default=int), capture_output=True, text=True, env=env,
    )
    try:
        reply = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise RuntimeError(
            f"speedup sweep child exited with code {proc.returncode}:\n{proc.stderr}"
        ) from None
    if "error" in reply:
        # the nearest class in the error's MRO that is loaded here; the MRO
        # ends in builtins, so a pssuq.cli error run as __main__ still maps
        for module, name in reply["error"]:
            cls = getattr(sys.modules.get(module), name, None)
            if cls is not None:
                raise cls(reply["message"]) from RuntimeError(proc.stderr)
    return reply["rows"], reply["blas"]


def _sweep_child():
    """Child side of `speedup_sweep`: JSON options on stdin, JSON reply on stdout."""
    try:
        rows = _sweep_rows(**json.load(sys.stdin))
    except Exception as exc:  # reported to the parent, which raises it again
        traceback.print_exc()
        reply = {
            "error": [[c.__module__, c.__qualname__] for c in type(exc).__mro__],
            "message": str(exc),
        }
    else:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        settings = {os.environ.get(var) for var in _BLAS_THREAD_VARS}
        reply = {
            "rows": rows,
            "blas": {
                "library": blas.get("name"),
                "version": blas.get("version"),
                "threads": int(settings.pop()) if len(settings) == 1 else None,
            },
        }
    json.dump(reply, sys.stdout)


def _sweep_rows(n_nodes, orders, dim, n_steps, repeats, seed):
    circuit = synthetic_ladder(n_nodes, dim)
    n = circuit.n_states
    rng = np.random.default_rng(seed)
    rows = []
    for p in orders:
        testing = testing_set(circuit, p)
        K = testing.size
        system = assemble_forced(circuit, testing, period=1e-3)
        # the network is linear, so the node systems integrate independently
        node_sys = system.node_dae()
        traj = integrate(
            node_sys, np.zeros((K, n)), 0.0, 1e-3, n_steps=n_steps, stabilized_start=True
        )
        J_nodes = shooting_jacobian(node_sys, traj)
        g = rng.standard_normal(n * K)

        # coupled Jacobian via the congruence transform (not timed); filled
        # block-row-wise to avoid a second (nK)^2 temporary
        V, Vi = testing.vandermonde, testing.v_inv
        weights = np.einsum("ik,kj->ijk", Vi, V)  # (K, K, K)
        J_big = np.empty((n * K, n * K))
        flat_nodes = J_nodes.reshape(K, n * n)
        for i in range(K):
            row = (weights[i] @ flat_nodes).reshape(K, n, n)  # (K, n, n)
            J_big[i * n : (i + 1) * n] = np.moveaxis(row, 0, 1).reshape(n, n * K)

        def decoupled():
            g_nodes = V @ g.reshape(K, n)
            delta = np.linalg.solve(J_nodes, g_nodes[..., None])[..., 0]
            return (Vi @ delta).ravel()

        calls = [lambda: np.linalg.solve(J_big, g), decoupled]
        t_c, t_d = _timed_alternately(calls, repeats)
        rows.append([p, int(K), t_c, t_d, t_c / t_d])
    return rows


TIMING_BATCH_S = 0.05  # shortest batch of calls `speedup` times


def _timed_alternately(fns, repeats):
    """Time per call of each of ``fns``: the best of ``repeats`` batches of
    its calls, the batch size doubled until a batch lasts
    ``TIMING_BATCH_S``. One call of a few milliseconds is at the mercy of
    the scheduler; a batch is not. The batches of the calls alternate, so
    a slow spell of the host reaches each of them."""
    timers = [timeit.Timer(fn) for fn in fns]
    numbers, best = [], []
    for timer in timers:
        number = 1
        while (elapsed := timer.timeit(number)) < TIMING_BATCH_S:
            number *= 2
        numbers.append(number)
        best.append(elapsed)
    for _ in range(repeats - 1):
        for i, timer in enumerate(timers):
            best[i] = min(best[i], timer.timeit(numbers[i]))
    return [b / n for b, n in zip(best, numbers)]


# ---------------------------------------------------------------------------
# entry point


_RUNNERS = {
    "pss-forced": lambda rep, circuit, cfg: _cmd_pss(rep, circuit, cfg, "forced"),
    "pss-osc": lambda rep, circuit, cfg: _cmd_pss(rep, circuit, cfg, "autonomous"),
    "st-forced": lambda rep, circuit, cfg: _cmd_st(rep, circuit, cfg, "forced"),
    "st-osc": lambda rep, circuit, cfg: _cmd_st(rep, circuit, cfg, "autonomous"),
    "mc": _cmd_mc,
    "compare": _cmd_compare,
    "convergence": _cmd_convergence,
    "speedup": _cmd_speedup,
}

COMMANDS = tuple(_RUNNERS)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pssuq",
        description="periodic steady-state analysis with polynomial-chaos UQ",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--netlist", help="netlist file (not needed for speedup)")
    ap.add_argument("--config", required=True, help="JSON analysis configuration")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    ap.add_argument("--order", type=int, default=None, help="override chaos order")
    ap.add_argument("--mode", choices=("coupled", "decoupled"), default=None)
    return ap


def run(command, netlist_path, config_path, out_dir, seed=None, order=None, mode=None):
    """Programmatic entry point; returns the process exit code."""
    t_start = time.perf_counter()
    try:
        cfg = load_config(
            config_path, {"seed": seed, "gpc_order": order, "mode": mode}
        )
        circuit = None
        if command != "speedup":
            if not netlist_path:
                raise ConfigError(f"{command} needs --netlist")
            circuit = _load_circuit(netlist_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rep = Reporter(out_dir)
    try:
        _RUNNERS[command](rep, circuit, cfg)
    except (ConvergenceError, OscillationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        rep.say(f"FAILED: {exc}")
        rep.finish(command, netlist_path, cfg)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    rep.timings["total"] = time.perf_counter() - t_start
    rep.finish(command, netlist_path, cfg)
    print("\n".join(rep.lines))
    print(f"outputs written to {rep.out}")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    return run(
        args.command,
        args.netlist,
        args.config,
        args.out,
        seed=args.seed,
        order=args.order,
        mode=args.mode,
    )


def entry():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
