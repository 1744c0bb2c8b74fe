"""Command-line driver: exit codes, outputs, manifests, reproducibility."""

import hashlib
import inspect
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pssuq import cli, load_netlist, parse_netlist, shooting, stpss
from pssuq.analysis import METRICS
from pssuq.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    convergence_sweep,
    load_config,
    main,
    run,
    speedup_sweep,
    synthetic_ladder,
)
from pssuq.shooting import solve_nominal
from pssuq.transient import SHARED_ORDER_MIN_BATCH, NewtonOptions, integrate, scheme_by_name, shares_order

from conftest import CIRCUITS_DIR, SHORTED_AT_A_NODE, draws_with_short, newton_iterates


def _cfg(tmp_path, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kw))
    return path


def test_missing_netlist_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, gpc_order=2)
    code = run("pss-forced", tmp_path / "nope.cir", cfg, tmp_path / "out")
    assert code == EXIT_CONFIG
    assert "nope.cir" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run("pss-forced", CIRCUITS_DIR / "rc_lowpass.cir", bad, tmp_path / "out")
    assert code == EXIT_CONFIG


def test_config_defaults_are_the_library_defaults(tmp_path):
    """A config without shooting options solves with the library's own."""
    cfg = load_config(_cfg(tmp_path))
    shooting_defaults = inspect.signature(shooting.Shooting).parameters
    assert cfg["shooting_tol"] == shooting_defaults["tol"].default
    assert cfg["steps_per_period"] == shooting_defaults["n_steps"].default
    assert cfg["newton_tol"] == NewtonOptions().tol
    scheme = inspect.signature(integrate).parameters["scheme"].default
    assert scheme_by_name(cfg["scheme"]) is scheme


def test_config_validation(tmp_path):
    with pytest.raises(Exception, match="steps_per_period"):
        load_config(_cfg(tmp_path, steps_per_period=4))
    with pytest.raises(Exception, match="gpc_order"):
        load_config(_cfg(tmp_path, gpc_order=-1))
    with pytest.raises(Exception, match="mode"):
        load_config(_cfg(tmp_path, mode="sideways"))
    with pytest.raises(Exception, match="metric_samples"):
        load_config(_cfg(tmp_path, metric_samples=0))


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("st-forced", "gpc_order", "3"),
        ("st-forced", "gpc_order", 2.5),
        ("st-forced", "steps_per_period", None),
        ("mc", "mc_samples", "10"),
        ("convergence", "orders", ["x"]),
        ("st-forced", "period", "1e-3"),
        ("st-osc", "phase_value", "abc"),
        ("st-forced", "power_sign", "x"),
        ("st-forced", "metrics", "power"),
        # well typed but out of range
        ("pss-forced", "shooting_tol", -1),
        ("pss-forced", "newton_tol", 0),
        ("mc", "mc_samples", 0),
        ("mc", "mc_samples", 1),
        ("st-forced", "period", 0),
        ("st-forced", "period", -1e-3),
        ("convergence", "orders", []),
        ("convergence", "orders", [1, 7]),
        ("st-forced", "power_sign", 37.5),
        ("st-forced", "power_sign", 0),
        # below the fewest samples a metric distribution takes
        ("st-osc", "metric_samples", 500),
        # Python's json reads Infinity and NaN as numbers
        ("pss-forced", "shooting_tol", float("inf")),
        ("pss-forced", "newton_tol", float("inf")),
        ("st-forced", "period", float("inf")),
        ("st-osc", "phase_value", float("nan")),
    ],
)
def test_mistyped_config_values_exit_2(tmp_path, capsys, command, field, value):
    cfg = _cfg(tmp_path, **{field: value})
    code = run(command, CIRCUITS_DIR / "rectifier.cir", cfg, tmp_path / "out")
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any output


@pytest.mark.parametrize(
    "command, name, fields, error",
    [
        # config faults: rejected by load_config
        ("st-forced", "rc_lowpass", {"metrics": ["foo"]}, "metrics: unknown metric 'foo'"),
        ("st-forced", "rc_lowpass", {"metrics": ["power"]}, "'v_state'"),
        # faults only the circuit or the command shows: before the start
        ("st-forced", "rc_lowpass", {"metrics": ["thd"], "output_state": "nope"}, "'nope'"),
        ("st-forced", "rc_lowpass", {"metrics": ["period"]}, "period metric"),
        ("st-osc", "colpitts", {"phase_state": "nope"}, "'nope'"),
        # an oscillator command on a driven circuit
        ("pss-osc", "rc_lowpass", {}, "'phase_state'"),
        ("pss-osc", "rc_lowpass", {"phase_state": "out"}, "time-varying source"),
        # an oscillator's period distribution is written once
        ("st-osc", "vanderpol", {"metrics": ["period"], "phase_state": "1"}, None),
    ],
    ids=["unknown-name", "power-without-v_state", "unknown-label", "forced-period",
         "unknown-phase-label", "osc-on-driven", "osc-on-driven-with-phase-state", "osc-period"],
)
def test_metric_faults_exit_2_before_the_solve(
    tmp_path, monkeypatch, capsys, command, name, fields, error
):
    starts = []

    def spy(*args, _start=cli.nominal_start):
        starts.append(args)
        return _start(*args)

    monkeypatch.setattr(cli, "nominal_start", spy)
    cfg = _cfg(tmp_path, gpc_order=1, steps_per_period=100, metric_samples=1000, **fields)
    out = tmp_path / "out"
    code = run(command, CIRCUITS_DIR / f"{name}.cir", cfg, out)
    if error is None:
        assert code == EXIT_OK
        lines = (out / "summary.txt").read_text().splitlines()
        assert sum(line.startswith("metric period") for line in lines) == 1
        return
    assert code == EXIT_CONFIG and not starts
    assert error in capsys.readouterr().err
    assert not out.exists()  # no output directory either


@pytest.mark.parametrize("command, name", [("st-forced", "rc_lowpass"), ("st-osc", "vanderpol")])
@pytest.mark.parametrize(
    "metric, field", [(metric, field) for metric, (_, fields) in METRICS.items() for field in fields]
)
def test_every_state_field_a_metric_lists_is_required(
    tmp_path, capsys, command, name, metric, field
):
    """``analysis.METRICS`` drives the config check: a config naming a
    metric without one of the state fields the metric lists exits 2 naming
    that field, before it makes the output directory."""
    others = {f: "out" for f in METRICS[metric][1] if f != field}
    cfg = _cfg(tmp_path, phase_state="1", metrics=[metric], **others)
    out = tmp_path / "out"
    assert run(command, CIRCUITS_DIR / f"{name}.cir", cfg, out) == EXIT_CONFIG
    assert repr(field) in capsys.readouterr().err
    assert not out.exists()


def test_a_metric_fault_after_the_chaos_solve_leaves_no_output(tmp_path, capsys):
    """The THD of a DC node faults only once the chaos solve has converged:
    the run exits 2 before it writes any file, so it leaves no directory."""
    netlist = tmp_path / "dc.cir"
    netlist.write_text((CIRCUITS_DIR / "rc_lowpass.cir").read_text() + "V2 dc 0 DC 1\nR2 dc 0 1k\n")
    cfg = _cfg(tmp_path, gpc_order=1, steps_per_period=64, metrics=["thd"], output_state="dc")
    out = tmp_path / "out"
    assert run("st-forced", netlist, cfg, out) == EXIT_CONFIG
    assert "fundamental amplitude" in capsys.readouterr().err
    assert not out.exists()


def test_solution_and_compare_records_keep_their_keys(tmp_path):
    """The fields the chaos solution and the comparison derive when they are
    written, for a forced circuit and an oscillator (0.7 s on a 2-core
    machine)."""
    solution = {"kind", "mode", "iterations", "residual_norm", "per_node_residuals",
                "converged", "iteration_log"}
    compare = {"kind", "max_rel_mean_delta", "max_rel_std_delta", "normalization",
               "mc_samples"}
    oscillator_compare = {f"period_{k}" for k in (
        "mean_chaos", "mean_mc", "std_chaos", "std_mc", "mean_rel_delta", "std_rel_delta",
        "ks_statistic")}
    cases = [
        ("st-forced", "rc_lowpass", "solution.json", solution | {"period"}, "forced"),
        ("st-osc", "vanderpol", "solution.json",
         solution | {"reference_period", "scale_coefficients", "period_mean", "period_std"},
         "autonomous"),
        ("compare", "rc_lowpass", "compare.json", compare, "forced"),
        ("compare", "vanderpol", "compare.json", compare | oscillator_compare, "autonomous"),
    ]
    cfg = _cfg(tmp_path, gpc_order=1, steps_per_period=100, mc_samples=30,
               metric_samples=1000, phase_state="1")
    for i, (command, name, record, keys, kind) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert run(command, CIRCUITS_DIR / f"{name}.cir", cfg, out) == EXIT_OK
        got = json.loads((out / record).read_text())
        assert set(got) == keys and got["kind"] == kind
        assert got.get("converged", True) is True


def test_netlist_required_except_speedup(tmp_path, capsys):
    cfg = _cfg(tmp_path, gpc_order=1)
    assert run("st-forced", None, cfg, tmp_path / "out") == EXIT_CONFIG
    assert "--netlist" in capsys.readouterr().err


def test_pss_forced_on_rectifier(tmp_path):
    cfg = _cfg(tmp_path, steps_per_period=100)
    out = tmp_path / "out"
    code = run("pss-forced", CIRCUITS_DIR / "rectifier.cir", cfg, out)
    assert code == EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    assert max(np.atleast_1d(sol["residual_norm"])) <= 1e-5
    assert sol["iterations"] <= 10
    # one row per grid point, the last one the end state of the same solve
    circuit = load_netlist(CIRCUITS_DIR / "rectifier.cir")
    traj = solve_nominal(circuit, n_steps=100).trajectory
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(["time"] + circuit.state_names)
    assert len(lines) == traj.n_points + 1
    last = np.array(lines[-1].split(","), dtype=float)
    assert last[0] == pytest.approx(traj.times[-1]) and last[1:] == pytest.approx(traj.end)


def test_manifest_lists_all_outputs_with_hashes(tmp_path):
    out = tmp_path / "out"
    code = run(
        "st-forced",
        CIRCUITS_DIR / "rc_lowpass.cir",
        CIRCUITS_DIR / "rc_lowpass.json",
        out,
    )
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    produced = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == produced
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"]["library"] == blas["name"]
    assert manifest["blas"]["version"] == blas["version"]
    assert manifest["blas"]["cpu_count"] == os.cpu_count()


def test_cli_main_argv(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "st-forced",
            "--netlist", str(CIRCUITS_DIR / "rc_lowpass.cir"),
            "--config", str(CIRCUITS_DIR / "rc_lowpass.json"),
            "--out", str(out),
            "--order", "1",
        ]
    )
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["gpc_order"] == 1


def test_seeded_runs_are_byte_identical(tmp_path):
    """Same inputs, same seed: all outputs equal byte for byte (manifest
    differs only in its timing fields)."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run(
            "st-forced",
            CIRCUITS_DIR / "rc_lowpass.cir",
            CIRCUITS_DIR / "rc_lowpass.json",
            out,
            seed=99,
        )
        assert code == EXIT_OK
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name == "manifest.json":
            a = json.loads((outs[0] / name).read_text())
            b = json.loads((outs[1] / name).read_text())
            a.pop("timings_s"), b.pop("timings_s")
            assert a == b
        else:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_mc_command(tmp_path, rc_circuit):
    cfg = _cfg(tmp_path, mc_samples=64, steps_per_period=64)
    out = tmp_path / "out"
    code = run("mc", CIRCUITS_DIR / "rc_lowpass.cir", cfg, out)
    assert code == EXIT_OK
    info = json.loads((out / "mc.json").read_text())
    assert info["samples"] == 64 and info["failures"] == 0


@pytest.mark.parametrize("name, iterations", [("rectifier", 1), ("colpitts", 2)])
def test_bundled_monte_carlo_iterations_from_the_linear_start(tmp_path, name, iterations):
    """From the linear start the bundled 2,000-sample rectifier and 500-sample
    Colpitts Monte Carlo runs take 1 and 2 shooting iterations (2 and 3 from
    the nominal orbit); ``mc.json`` and the summary line report them."""
    out = tmp_path / "out"
    assert run("mc", CIRCUITS_DIR / f"{name}.cir", CIRCUITS_DIR / f"{name}.json", out) == EXIT_OK
    info = json.loads((out / "mc.json").read_text())
    assert info["iterations"] == iterations and info["failures"] == 0
    assert f", {iterations} iterations" in (out / "summary.txt").read_text()


def test_mc_past_its_failure_limit_exits_3(tmp_path, monkeypatch, capsys):
    # one shorted sample of 50 is 2% failed, over the 1% a run tolerates
    netlist = tmp_path / "shorted.cir"
    netlist.write_text(SHORTED_AT_A_NODE)
    draws_with_short(monkeypatch, [7])
    cfg = _cfg(tmp_path, mc_samples=50, steps_per_period=64)
    out = tmp_path / "out"
    with np.errstate(divide="ignore", invalid="ignore"):
        assert run("mc", netlist, cfg, out) == 3
    assert "Monte Carlo samples failed" in capsys.readouterr().err
    assert "FAILED: 2.0% of Monte Carlo samples failed" in (out / "summary.txt").read_text()
    assert "summary.txt" in json.loads((out / "manifest.json").read_text())["outputs"]


def test_compare_command_structure(tmp_path):
    cfg = _cfg(
        tmp_path, gpc_order=2, mc_samples=256,
        steps_per_period=64, seed=1,
    )
    out = tmp_path / "out"
    code = run("compare", CIRCUITS_DIR / "rectifier.cir", cfg, out)
    assert code == EXIT_OK
    rep = json.loads((out / "compare.json").read_text())
    assert rep["max_rel_mean_delta"] < 0.05  # loose: only 256 MC samples here
    assert rep["max_rel_std_delta"] < 0.2


def test_compare_anchors_both_halves_at_the_phase_value(tmp_path, monkeypatch):
    # one nominal solve, with its phase condition, starts the chaos and the
    # Monte Carlo half alike, so both share the grid and the anchor
    estimates = []
    estimate = shooting.estimate_period
    monkeypatch.setattr(
        shooting, "estimate_period", lambda *a, **kw: estimates.append(1) or estimate(*a, **kw)
    )
    cfg = _cfg(
        tmp_path, gpc_order=1, steps_per_period=100, mc_samples=50,
        phase_state="1", phase_value=1.0,
    )
    out = tmp_path / "out"
    assert run("compare", CIRCUITS_DIR / "vanderpol.cir", cfg, out) == EXIT_OK
    assert len(estimates) == 1
    for name in ("mc_waveform_stats.csv", "waveform_stats.csv"):
        header, first = (out / name).read_text().splitlines()[:2]
        start = dict(zip(header.split(","), map(float, first.split(","))))
        assert start["mean[v(1)]"] == pytest.approx(1.0, abs=1e-5)


def _bundled(name, **overrides):
    return load_netlist(CIRCUITS_DIR / f"{name}.cir"), load_config(
        CIRCUITS_DIR / f"{name}.json", overrides
    )


def _seeded_ladder(seed, sections=6):
    """Sine-driven RC ladder with seeded values and two random resistors."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(500.0, 2000.0, sections + 1)
    lines = [
        "* seeded RC ladder",
        f".param p0 = gauss({r[0]:.6g}, {0.05 * r[0]:.6g})",
        f".param p1 = uniform({0.9 * r[2]:.6g}, {1.1 * r[2]:.6g})",
        "V1 n0 0 SIN(0 1 1k)",
    ]
    for k in range(sections):
        value = {0: "{p0}", 2: "{p1}"}.get(k, f"{r[k]:.6g}")
        lines.append(f"R{k} n{k} n{k + 1} {value}")
        lines.append(f"C{k} n{k + 1} 0 {rng.uniform(0.2, 1.0):.6g}u")
    lines.append(f"R{sections} n{sections} 0 {r[sections]:.6g}")
    return parse_netlist("\n".join(lines) + "\n")


@pytest.mark.parametrize("which", ["rc_lowpass", "ladder"])
def test_st_forced_from_the_dc_point_equals_the_nominal_started_solve(tmp_path, which):
    # a linear circuit's chaos solve lands on the same coefficients from the
    # DC point as from the converged nominal (measured: 3.9e-15 of the peak
    # coefficient on rc_lowpass, 3.2e-16 on the ladder)
    if which == "rc_lowpass":
        circuit, cfg = _bundled("rc_lowpass")
    else:
        circuit, cfg = _seeded_ladder(7), load_config(_cfg(tmp_path, gpc_order=3, steps_per_period=64))
    start = shooting.nominal_start(*cli._nominal_problem(circuit, cfg, "forced"))
    from_start = cli._solve_st(circuit, cfg, start)
    from_nominal = cli._solve_st(circuit, cfg, cli._solve_nominal(circuit, cfg, "forced"))
    a, b = from_start.trajectory.states, from_nominal.trajectory.states
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize(
    # measured deltas (relative): Colpitts 7.3e-10 (mean) and 2.6e-7 (std),
    # bounded at about 4x; van der Pol 3.4e-8 and 1.7e-3, where either run
    # stops within the shooting tolerance after one iteration (residual
    # 8.3e-6 and 2.0e-6)
    "name, mean_rtol, std_rtol", [("colpitts", 3e-9, 1e-6), ("vanderpol", 1e-7, 3e-3)]
)
def test_st_osc_from_the_estimate_matches_the_nominal_started_solve(name, mean_rtol, std_rtol):
    circuit, cfg = _bundled(name)
    start = shooting.nominal_start(*cli._nominal_problem(circuit, cfg, "autonomous"))
    from_start = cli._solve_st(circuit, cfg, start)
    nominal = cli._solve_nominal(circuit, cfg, "autonomous")
    from_nominal = cli._solve_st(circuit, cfg, nominal)
    assert from_start.horizon == start.period != float(nominal.period)
    (mean, std), (ref_mean, ref_std) = from_start.period_moments(), from_nominal.period_moments()
    assert mean == pytest.approx(ref_mean, rel=mean_rtol, abs=0)
    assert std == pytest.approx(ref_std, rel=std_rtol, abs=0)


def test_st_osc_starts_each_colpitts_node_from_its_linearized_period(tmp_path):
    """The bundled Colpitts chaos solve starts node k at omega(0) / omega(xi_k),
    within 1 % of the converged node scales (0.39 % measured), and takes 2
    shooting iterations (3 from a = 1); the coupled solve's iterates equal
    the decoupled ones within criterion 4's 1e-8 (1.2e-11 measured)."""
    out = tmp_path / "out"
    assert run("st-osc", CIRCUITS_DIR / "colpitts.cir", CIRCUITS_DIR / "colpitts.json", out) == EXIT_OK
    assert json.loads((out / "solution.json").read_text())["iterations"] == 2
    circuit, cfg = _bundled("colpitts")
    start = shooting.nominal_start(*cli._nominal_problem(circuit, cfg, "autonomous"))
    decoupled, iterates_d = newton_iterates(cli._solve_st, circuit, cfg, start)
    testing = decoupled.testing
    guess = shooting.linearized_period_scales(circuit, testing.nodes)
    node_scales = testing.vandermonde @ decoupled.scale_coeffs
    assert np.max(np.abs(guess / node_scales - 1.0)) < 0.01
    coupled, iterates_c = newton_iterates(cli._solve_st, circuit, dict(cfg, mode="coupled"), start)
    assert coupled.iterations == decoupled.iterations == 2
    scale = np.abs(iterates_d[-1]).max()
    for a, b in zip(iterates_d, iterates_c):
        assert np.abs(a - b).max() / scale < 1e-8


@pytest.mark.parametrize(
    "command, name, unbatched",
    [("st-forced", "rc_lowpass", 0), ("st-osc", "vanderpol", 0), ("compare", "rc_lowpass", 1)],
)
def test_only_commands_that_keep_the_nominal_solve_it(tmp_path, monkeypatch, command, name, unbatched):
    # the chaos commands start the node batch from the DC point or the
    # period estimate; compare solves the nominal once, for both halves
    sizes = []
    for solver in ("solve_forced", "solve_autonomous"):
        def spy(instance, *args, _solve=getattr(shooting, solver), **kwargs):
            sizes.append(instance.batch_size)
            return _solve(instance, *args, **kwargs)

        monkeypatch.setattr(shooting, solver, spy)
    cfg = _cfg(tmp_path, gpc_order=2, steps_per_period=100, mc_samples=20, phase_state="1")
    out = tmp_path / "out"
    assert run(command, CIRCUITS_DIR / f"{name}.cir", cfg, out) == EXIT_OK
    assert sizes.count(1) == unbatched
    assert len(sizes) == (2 if command == "compare" else 0)  # and the Monte Carlo batch
    timings = json.loads((out / "manifest.json").read_text())["timings_s"]
    if command != "compare":
        assert set(timings) == {"start", "chaos_solve", "total", "peak_rss_mb", "minor_faults"}


@pytest.mark.parametrize(
    "command, name, solves",
    [("st-forced", "rc_lowpass", 1), ("st-osc", "vanderpol", 1), ("compare", "rc_lowpass", 1),
     ("convergence", "rc_lowpass", 2)],
)
def test_chaos_commands_assemble_and_shoot_through_the_stpss_module(
    tmp_path, monkeypatch, command, name, solves
):
    # a tracer wraps stpss.assemble_* and stpss.shoot_* where stpss looks
    # them up, so each chaos solve keeps its spans
    calls = []
    for step in ("assemble_forced", "assemble_autonomous", "shoot_forced", "shoot_autonomous"):
        def spy(*args, _step=getattr(stpss, step), _name=step, **kwargs):
            calls.append(_name)
            return _step(*args, **kwargs)

        monkeypatch.setattr(stpss, step, spy)
    cfg = _cfg(
        tmp_path, gpc_order=2, steps_per_period=100, mc_samples=20, phase_state="1", orders=[1, 2]
    )
    assert run(command, CIRCUITS_DIR / f"{name}.cir", cfg, tmp_path / "out") == EXIT_OK
    kind = "autonomous" if command == "st-osc" else "forced"
    assert calls == [f"assemble_{kind}", f"shoot_{kind}"] * solves


@pytest.mark.parametrize("command", ["st-osc", "pss-osc"])
def test_oscillator_command_on_a_driven_circuit_names_its_source(
    tmp_path, monkeypatch, capsys, command
):
    # the source is named before any estimate runs: a fault of the input
    monkeypatch.setattr(shooting, "estimate_period", None)
    cfg = _cfg(tmp_path, phase_state="out", steps_per_period=64)
    assert run(command, CIRCUITS_DIR / "rectifier.cir", cfg, tmp_path / "out") == EXIT_CONFIG
    assert "circuit has a time-varying source" in capsys.readouterr().err


def test_convergence_sweep_properties(tmp_path, rectifier):
    cfg = load_config(_cfg(tmp_path, steps_per_period=100))
    rows = convergence_sweep(rectifier, cfg, [1, 2, 3, 4])
    errors = [r[2] for r in rows]
    assert errors[-1] == 0.0  # reference order against itself
    assert all(b <= a * 1.001 for a, b in zip(errors[:-2], errors[1:-1]))


def test_convergence_rejects_order_beyond_six(tmp_path):
    cfg = _cfg(tmp_path, orders=[1, 7])
    code = run("convergence", CIRCUITS_DIR / "rectifier.cir", cfg, tmp_path / "out")
    assert code == EXIT_CONFIG


def test_synthetic_ladder_structure():
    c = synthetic_ladder(30, 4)
    assert c.n == 30
    assert c.dim == 4


def test_speedup_small_sizes(tmp_path):
    rows, _ = speedup_sweep(n_nodes=40, orders=[0, 1, 2], dim=2, n_steps=16, repeats=5)
    by_K = {r[1]: r for r in rows}
    assert 1 in by_K  # order 0 collapses to one basis function
    ratio_k1 = by_K[1][4]
    assert 0.5 <= ratio_k1 <= 2.0
    ratios = [r[4] for r in rows]
    assert ratios[-1] > ratios[0]


def test_speedup_command_writes_csv(tmp_path):
    cfg = _cfg(tmp_path, speedup={"n": 30, "orders": [1, 2], "dim": 2, "steps": 16, "repeats": 2})
    out = tmp_path / "out"
    code = run("speedup", None, cfg, out)
    assert code == EXIT_OK
    lines = (out / "speedup.csv").read_text().strip().splitlines()
    assert lines[0].startswith("order,")
    assert len(lines) == 3


def test_speedup_times_single_threaded_whatever_the_parent_env(tmp_path, monkeypatch):
    # the parent asks for two BLAS threads and has no path to the package
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("PYTHONPATH", raising=False)
    cfg = _cfg(tmp_path, speedup={"n": 30, "orders": [1, 2], "dim": 2, "steps": 16, "repeats": 2})
    out = tmp_path / "out"
    assert run("speedup", None, cfg, out) == EXIT_OK
    assert len((out / "speedup.csv").read_text().strip().splitlines()) == 3
    blas = json.loads((out / "manifest.json").read_text())["blas"]
    assert blas["threads"] == 1
    assert blas["library"]
    assert "BLAS threads 1" in (out / "summary.txt").read_text()


def test_speedup_child_failures(monkeypatch):
    # an error raised in the child keeps its class
    with pytest.raises(ValueError, match="order must be >= 0"):
        speedup_sweep(n_nodes=30, orders=[-1], dim=2, n_steps=16)
    # a child that dies without a reply surfaces its stderr
    monkeypatch.setattr(cli, "_CHILD_CODE", "import sys; sys.exit('child died')")
    with pytest.raises(RuntimeError, match="child died"):
        speedup_sweep(n_nodes=30, orders=[1], dim=2, n_steps=16)


@pytest.mark.parametrize(
    "option, value",
    [("orders", ["x"]), ("orders", [-1]), ("orders", []), ("repeats", 0), ("steps", 0)],
)
def test_speedup_rejects_bad_options(tmp_path, capsys, option, value):
    opts = {"n": 30, "orders": [1], "dim": 2, "steps": 16, "repeats": 1, option: value}
    cfg = _cfg(tmp_path, speedup=opts)
    assert run("speedup", None, cfg, tmp_path / "out") == EXIT_CONFIG
    assert f"speedup option {option!r}" in capsys.readouterr().err


def test_st_osc_command(tmp_path):
    cfg = _cfg(
        tmp_path, gpc_order=2, steps_per_period=200, phase_state="1",
        metric_samples=2000, seed=2,
    )
    out = tmp_path / "out"
    code = run("st-osc", CIRCUITS_DIR / "vanderpol.cir", cfg, out)
    assert code == EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    assert sol["converged"]
    assert sol["period_mean"] == pytest.approx(6.287, rel=1e-3)
    assert (out / "metric_period_hist.csv").exists()


@pytest.mark.parametrize("mode", ["coupled", "decoupled"])
def test_singular_stochastic_jacobian_exits_3(tmp_path, monkeypatch, capsys, mode):
    # identity monodromies make every stochastic shooting Jacobian M - I
    # zero, at the testing nodes and for the stacked system; an unbatched
    # chain would keep its own, but st-forced starts from the DC point and
    # runs none
    chain = shooting.transition_chain

    def identity_chain(system, traj, *args, **kwargs):
        if traj.states.ndim == 2 and not isinstance(system, stpss.StackedSystem):
            return chain(system, traj, *args, **kwargs)
        n = traj.states.shape[-1]
        return np.broadcast_to(np.eye(n), traj.states.shape[1:-1] + (n, n)).copy(), None

    monkeypatch.setattr(shooting, "transition_chain", identity_chain)
    cfg = _cfg(tmp_path, gpc_order=1, steps_per_period=64, mode=mode)
    assert run("st-forced", CIRCUITS_DIR / "rc_lowpass.cir", cfg, tmp_path / "out") == 3
    assert "singular shooting Jacobian" in capsys.readouterr().err


def test_failing_testing_node_exits_3(tmp_path, capsys):
    netlist = tmp_path / "shorted.cir"
    netlist.write_text(SHORTED_AT_A_NODE)
    cfg = _cfg(tmp_path, gpc_order=1, steps_per_period=64)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert run("st-forced", netlist, cfg, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "testing node 0 (xi = [-1.])" in err and "element R1" in err


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats is most of the import time; only the KS and KDE helpers use it
    code = "import sys, pssuq.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_the_speedup_modules():
    # subprocess, timeit and traceback serve only the speedup sweep and its child
    code = "import sys, pssuq.cli; print([m for m in ('subprocess', 'timeit', 'traceback') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_heap_policy_leaves_the_outputs_unchanged(tmp_path):
    """A compare run from ``main``, which sets the heap policy, writes the
    same files as one with the policy a no-op, and its manifest reports
    the process's peak memory and page faults: with glibc, fewer of them."""
    cfg = _cfg(tmp_path, gpc_order=2, steps_per_period=100, mc_samples=1000, seed=3)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    manifests = []
    for tag, patch in (("policy", ""), ("no_policy", "cli.keep_freed_heap_mapped = lambda: None; ")):
        out = tmp_path / tag
        code = (
            f"import sys; from pssuq import cli; {patch}"
            "sys.exit(cli.main(['compare', '--netlist', sys.argv[1], '--config', sys.argv[2], "
            "'--out', sys.argv[3]]))"
        )
        subprocess.run(
            [sys.executable, "-c", code, str(CIRCUITS_DIR / "rectifier.cir"), str(cfg), str(out)],
            capture_output=True, env=env, check=True,
        )
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert "summary.txt" in manifests[0]["outputs"]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]
    for manifest in manifests:
        timings = manifest["timings_s"]
        assert timings["peak_rss_mb"] > 0 and isinstance(timings["peak_rss_mb"], float)
        assert timings["minor_faults"] > 0 and isinstance(timings["minor_faults"], int)
    if platform.libc_ver()[0] == "glibc":  # 6,700 against 11,000 when measured
        assert manifests[0]["timings_s"]["minor_faults"] < manifests[1]["timings_s"]["minor_faults"]


def test_state_major_stamps_leave_the_mc_outputs_unchanged(tmp_path, monkeypatch):
    """An ``mc`` run whose batch is stamped state-major, the layout the
    solver eliminates it in, writes the same files as one with every batch
    stamped batch-major."""
    settings = json.loads((CIRCUITS_DIR / "rectifier.json").read_text())
    cfg = _cfg(tmp_path, **dict(settings, mc_samples=SHARED_ORDER_MIN_BATCH, steps_per_period=50))
    stamped = []

    def gate(batch, m):
        stamped.append(shares_order(batch, m))
        return stamped[-1]

    monkeypatch.setattr("pssuq.circuit.shares_order", gate)
    runs = []
    for tag in ("state_major", "batch_major"):
        out = tmp_path / tag
        argv = ["mc", "--netlist", str(CIRCUITS_DIR / "rectifier.cir"), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_OK
        runs.append((json.loads((out / "manifest.json").read_text())["outputs"], (out / "summary.txt").read_text()))
        monkeypatch.setattr("pssuq.circuit.shares_order", lambda batch, m: False)
    assert any(stamped)
    assert runs[0] == runs[1]


def test_solver_failure_exits_3(tmp_path, capsys):
    # an RC low-pass cannot oscillate: the estimate raises, mapped to exit 3
    netlist = tmp_path / "rc.cir"
    netlist.write_text("* autonomous RC\nV1 1 0 DC 1\nR1 1 2 1k\nC1 2 0 1u\n")
    cfg = _cfg(tmp_path, phase_state="2")
    out = tmp_path / "out"
    code = run("pss-osc", netlist, cfg, out)
    assert code == 3
    assert "FAILED" in (out / "summary.txt").read_text()
    assert "summary.txt" in json.loads((out / "manifest.json").read_text())["outputs"]
    assert "no oscillatory mode" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy():
    # parsing, device evaluation, chaos set-up and the statistics run on numpy
    code = "import sys, pssuq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_st_osc_run_leaves_out_scipy(tmp_path):
    # the oscillator start-up eigenvalues are numpy too: no scipy in a run
    cfg = _cfg(tmp_path, gpc_order=1, steps_per_period=100, phase_state="1", metric_samples=1000)
    code = (
        "import sys; from pssuq.cli import run; "
        "code = run('st-osc', *sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(CIRCUITS_DIR / "vanderpol.cir"), str(cfg),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 []"


def _fmt(v):
    """One CSV value as ``Reporter.write_csv`` printed it value by value:
    the reference its row formats must reproduce byte for byte."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def test_csv_rows_print_as_the_per_value_format(tmp_path):
    """Float rows (from ``tolist`` or as numpy scalars) over random bit
    patterns and the edge cases, and the integer columns of
    ``mc_periods.csv`` and ``convergence.csv``, print as ``_fmt`` does."""
    rng = np.random.default_rng(31)
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, np.finfo(float).tiny,
             np.finfo(float).max, -np.finfo(float).max, 1e16, 1e17, 0.1, -1.0 / 3.0]
    values = np.concatenate([rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float), edges])
    wide = values[: values.size // 500 * 500].reshape(-1, 500)
    files = {
        "floats.csv": [row.tolist() for row in wide] + [list(values[-len(edges):])],
        "mc_periods.csv": [[i, p] for i, p in enumerate(values[:2000])],
        "convergence.csv": [[1, 3, 0.25], [np.int64(2), np.int64(6), np.float64(1e-3)],
                            (3, 10, 0.0), [True, np.uint64(2**64 - 1), np.float32(0.1)]],
    }
    rep = cli.Reporter(tmp_path)
    for name, rows in files.items():
        text = rep.write_csv(name, ["a", "b"], iter(rows)).read_text(encoding="utf-8")
        assert text == "a,b\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
