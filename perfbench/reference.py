"""Independent correctness references, one per workload (run in a child).

    python3 perfbench/reference.py WORKLOAD NETLIST CONFIG OUT_DIR SEED

Prints one JSON object ``{"ok": bool, ...figures}`` and exits 0 when the
check ran (whatever its verdict), non-zero when it could not run.

* ``st-ladder``: the chaos surrogate of x(0), read back from the run's
  ``coefficients.csv``, against deterministic ``solve_forced`` at eight
  held-out points of xi drawn from the seed.
* ``st-colpitts``: the chaos period mean and std in ``solution.json``
  against a tensor Gauss-quadrature of deterministic oscillator solves
  (acceptance criterion 6: 0.2 % and 2 %).
* ``mc-rectifier``: the chaos vs Monte Carlo deltas in ``compare.json``
  (acceptance criterion 5: 1 % of the peak mean waveform).
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np

from pssuq import cli
from pssuq.gpc import build_basis, gauss_rule
from pssuq.shooting import PhaseCondition, estimate_period, solve_autonomous, solve_forced
from pssuq.transient import NewtonOptions, scheme_by_name

LADDER_POINTS = 8
# x(0) of the linear ladder is a smooth rational function of the resistors;
# at order 3 the error at held-out points is about 1e-6 of the peak state,
# and the shooting tolerance is 1e-5 (absolute, states of about 1 V)
LADDER_TOL = 1e-4
COLPITTS_POINTS = 5  # per random dimension
CRITERION_5 = 0.01
CRITERION_6_MEAN, CRITERION_6_STD = 0.002, 0.02


def _solver_options(cfg):
    return {
        "tol": cfg["shooting_tol"],
        "scheme": scheme_by_name(cfg["scheme"]),
        "n_steps": cfg["steps_per_period"],
        "newton": NewtonOptions(tol=cfg["newton_tol"]),
    }


def check_ladder(circuit, cfg, out, seed):
    dists = [s for _, s in circuit.random_params]
    basis = build_basis(dists, cfg["gpc_order"])
    with open(out / "coefficients.csv", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        first = np.array([float(v) for v in next(rows)])
    if first[0] != 0.0:
        raise ValueError("coefficients.csv does not start at t = 0")
    coeffs = first[1:].reshape(basis.size, circuit.n_states)
    rng = np.random.default_rng(seed)
    xi = np.column_stack([
        rng.standard_normal(LADDER_POINTS) if s.kind == "gaussian"
        else rng.uniform(-1.0, 1.0, LADDER_POINTS)
        for s in dists
    ])
    surrogate = basis.eval(xi) @ coeffs
    period = cfg.get("period") or circuit.fundamental_period()
    det = solve_forced(circuit.realize(xi), period, **_solver_options(cfg))
    err = float(np.max(np.abs(surrogate - det.y)) / np.max(np.abs(det.y)))
    return {"ok": bool(err <= LADDER_TOL) and bool(np.all(det.converged)),
            "max_rel_error": err, "tolerance": LADDER_TOL, "points": LADDER_POINTS}


def check_colpitts(circuit, cfg, out, seed):
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    opts = _solver_options(cfg)
    nominal = circuit.realize_nominal()
    idx = circuit.state_index(str(cfg["phase_state"]))
    est = estimate_period(nominal, idx)
    value = cfg.get("phase_value")
    phase = PhaseCondition(idx, est.level if value is None else float(value))
    det = solve_autonomous(nominal, phase, est.period, est.y0, **opts)
    rules = [gauss_rule("hermite" if s.kind == "gaussian" else "legendre", COLPITTS_POINTS)
             for _, s in circuit.random_params]
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    weights = np.ones(grids[0].size)
    for w in np.meshgrid(*[r[1] for r in rules], indexing="ij"):
        weights = weights * w.ravel()
    nodes = np.column_stack([g.ravel() for g in grids])
    batch = solve_autonomous(circuit.realize(nodes), phase, float(det.period), det.y, **opts)
    periods = np.asarray(batch.period)
    mean = float(weights @ periods)
    std = float(np.sqrt(weights @ (periods - mean) ** 2))
    d_mean = abs(sol["period_mean"] - mean) / mean
    d_std = abs(sol["period_std"] - std) / std
    return {"ok": bool(d_mean < CRITERION_6_MEAN and d_std < CRITERION_6_STD
                       and np.all(batch.converged)),
            "period_mean_rel_delta": d_mean, "period_std_rel_delta": d_std,
            "quadrature_points": int(nodes.shape[0])}


def check_rectifier(circuit, cfg, out, seed):
    rep = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    mc = json.loads((out / "mc.json").read_text(encoding="utf-8"))
    d_mean, d_std = rep["max_rel_mean_delta"], rep["max_rel_std_delta"]
    return {"ok": d_mean < CRITERION_5 and d_std < CRITERION_5
            and mc["samples"] == cfg["mc_samples"],
            "max_rel_mean_delta": d_mean, "max_rel_std_delta": d_std,
            "mc_failures": mc["failures"]}


CHECKS = {"st-ladder": check_ladder, "st-colpitts": check_colpitts,
          "mc-rectifier": check_rectifier}


def main(argv):
    if len(argv) != 5 or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    name, netlist, config, out, seed = argv
    cfg = cli.load_config(config)
    circuit = cli.parse_netlist(Path(netlist).read_text(encoding="utf-8"))
    print(json.dumps(CHECKS[name](circuit, cfg, Path(out), int(seed))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
