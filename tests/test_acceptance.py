"""Acceptance criteria: one test per criterion, with its runtime budget.

Each test prints a single PASS line (visible with ``pytest -v -s`` or in
the captured output); a failed assertion is the FAIL signal. Tolerances
are fixed here, not calibrated elsewhere.
"""

import itertools
import json
import time

import numpy as np
import pytest

from pssuq.analysis import (
    draw_standardized,
    ks_statistic,
    metric_distribution,
    monte_carlo,
    sample_periods,
    thd,
    waveform_stats,
)
from pssuq.circuit import DistributionSpec
from pssuq.cli import EXIT_OK, convergence_sweep, load_config, run, speedup_sweep
from pssuq.gpc import (
    basis_size,
    build_basis,
    gauss_rule,
    select_testing_nodes,
    tensor_rule,
)
from pssuq.shooting import CircuitDae, solve_autonomous, solve_forced, solve_nominal
from pssuq.stpss import (
    assemble_autonomous,
    assemble_forced,
    shoot_autonomous,
    shoot_forced,
)
from pssuq.transient import integrate, transition_chain

from conftest import CIRCUITS_DIR, gram_matrix, newton_iterates, nominal_start, period_map

G = DistributionSpec.gaussian(0.0, 1.0)
U = DistributionSpec.uniform(-1.0, 1.0)

VDP_PERIOD = 2 * np.pi * (1 + 0.1**2 / 16)


import conftest


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            conftest.criterion_lines.append(f"FAIL {self.name} ({self.elapsed:.1f} s)")
            return
        if self.elapsed >= self.seconds:
            conftest.criterion_lines.append(
                f"FAIL {self.name}: over the {self.seconds:.0f} s budget "
                f"({self.elapsed:.1f} s)"
            )
            raise AssertionError(
                f"{self.name} exceeded its {self.seconds:.0f} s budget"
            )
        line = f"PASS {self.name} ({self.elapsed:.1f} s)"
        conftest.criterion_lines.append(line)
        print(line)


def test_criterion_1_gpc_correctness():
    with _Budget("criterion 1: chaos basis correctness", 5.0):
        assert basis_size(3, 4) == 35
        for d in (1, 2, 3):
            for fams in itertools.product([G, U], repeat=d):
                for p in range(5):
                    basis = build_basis(list(fams), p)
                    rule = tensor_rule(basis, p + 1)
                    err = np.abs(gram_matrix(basis, rule) - np.eye(basis.size)).max()
                    assert err < 1e-8, (fams, p, err)


def test_criterion_2_deterministic_shooting(vdp_nominal, rectifier):
    with _Budget("criterion 2: deterministic shooting", 30.0):
        _, _, vdp_sol = vdp_nominal
        assert abs(float(vdp_sol.period) - VDP_PERIOD) / VDP_PERIOD < 1e-3

        inst = rectifier.realize_nominal()
        sol = solve_forced(inst, 1e-3, n_steps=200)
        sys = CircuitDae(inst)
        y = np.zeros(rectifier.n)
        for _ in range(50):
            y = integrate(sys, y, 0.0, 1e-3, n_steps=200, stabilized_start=True).end
        traj_bf = integrate(sys, y, 0.0, 1e-3, n_steps=200, stabilized_start=True)
        assert np.abs(sol.trajectory.states - traj_bf.states).max() < 1e-4


def _fd_columns(f, x0, cols, h=1e-6):
    out = []
    for j in cols:
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        out.append((f(xp) - f(xm)) / (2 * h))
    return np.stack(out, axis=-1)


def test_criterion_3_jacobian_fidelity(rectifier, colpitts, colpitts_nominal):
    with _Budget("criterion 3: monodromy and scaling-sensitivity fidelity", 120.0):
        # forced: stacked rectifier, d=2, p=2
        basis = build_basis([s for _, s in rectifier.random_params], 2)
        testing = select_testing_nodes(basis, tensor_rule(basis, 3))
        fsys = assemble_forced(rectifier, testing)
        fsol = shoot_forced(fsys, nominal_start(fsys, n_steps=100), n_steps=100)
        y = fsol.coeffs.ravel()

        def forced_end(w):
            return period_map(fsys, w, n_steps=100)[0].end

        M, _ = transition_chain(fsys, fsol.trajectory)
        fd = _fd_columns(forced_end, y, range(y.size))
        assert np.abs(M - fd).max() / np.abs(fd).max() < 1e-4

        # autonomous: stacked oscillator, d=2, p=2
        est, phase, det = colpitts_nominal
        basis_a = build_basis([s for _, s in colpitts.random_params], 2)
        testing_a = select_testing_nodes(basis_a, tensor_rule(basis_a, 3))
        T0 = float(det.period)
        asys = assemble_autonomous(colpitts, testing_a, T0)
        K, n = basis_a.size, colpitts.n
        z0 = np.zeros((K, n))
        z0[0] = det.y
        z0 = z0.ravel()
        a_hat = np.zeros(K)
        a_hat[0] = 1.0
        asys.scale_coeffs = a_hat

        def aut_end(w):
            return period_map(asys, w, n_steps=150)[0].end

        traj, _ = period_map(asys, z0, n_steps=150)
        Ma, Sa = transition_chain(asys, traj, with_scale_columns=True)
        fd_m = _fd_columns(aut_end, z0, range(z0.size), h=1e-7)
        assert np.abs(Ma - fd_m).max() / np.abs(fd_m).max() < 1e-4

        def aut_end_scale(a):
            asys.scale_coeffs = a
            end = period_map(asys, z0, n_steps=150)[0].end
            return end

        fd_s = _fd_columns(aut_end_scale, a_hat, range(K), h=1e-7)
        assert np.abs(Sa - fd_s).max() / np.abs(fd_s).max() < 1e-4


def test_criterion_4_coupled_equals_decoupled(rectifier, colpitts, colpitts_nominal):
    with _Budget("criterion 4: coupled and decoupled Newton agree", 300.0):
        basis = build_basis([s for _, s in rectifier.random_params], 3)
        testing = select_testing_nodes(basis, tensor_rule(basis, 4))
        assert basis.size == 10
        sys_f = assemble_forced(rectifier, testing)
        guess_f = nominal_start(sys_f)
        sol_d, iterates_d = newton_iterates(
            shoot_forced, sys_f, guess_f, mode="decoupled", n_steps=200
        )
        sol_c, iterates_c = newton_iterates(
            shoot_forced, sys_f, guess_f, mode="coupled", n_steps=200
        )
        assert sol_d.iterations == sol_c.iterations
        scale = np.abs(iterates_d[-1]).max()
        for a, b in zip(iterates_d, iterates_c):
            assert np.abs(a - b).max() / scale < 1e-8

        est, phase, det = colpitts_nominal
        basis_a = build_basis([s for _, s in colpitts.random_params], 2)
        testing_a = select_testing_nodes(basis_a, tensor_rule(basis_a, 3))
        assert basis_a.size == 6
        sys_a = assemble_autonomous(colpitts, testing_a, float(det.period))
        guess = np.zeros((6, colpitts.n))
        guess[0] = det.y
        scale0 = np.zeros(6)
        scale0[0] = 1.0
        kw = dict(n_steps=300)
        sol_ad, iterates_ad = newton_iterates(
            shoot_autonomous, sys_a, phase, guess, scale0, mode="decoupled", **kw
        )
        sol_ac, iterates_ac = newton_iterates(
            shoot_autonomous, sys_a, phase, guess, scale0, mode="coupled", **kw
        )
        assert sol_ad.iterations == sol_ac.iterations
        scale_a = np.abs(iterates_ad[-1]).max()
        for a, b in zip(iterates_ad, iterates_ac):
            assert np.abs(a - b).max() / scale_a < 1e-8


def test_criterion_5_st_vs_mc_forced(rectifier):
    with _Budget("criterion 5: chaos vs Monte Carlo, driven circuit", 600.0):
        basis = build_basis([s for _, s in rectifier.random_params], 3)
        testing = select_testing_nodes(basis, tensor_rule(basis, 4))
        sys_f = assemble_forced(rectifier, testing)
        sol = shoot_forced(sys_f, nominal_start(sys_f), n_steps=200)
        mean, std = waveform_stats(sol)
        nominal = solve_nominal(rectifier, n_steps=200)
        run_ = monte_carlo(rectifier, nominal, 10_000, seed=101, n_steps=200)
        mc_mean, mc_std = run_.waveform_mean_std()
        peak = np.max(np.abs(mc_mean), axis=0)
        assert np.max(np.abs(mean - mc_mean) / peak) < 0.01
        assert np.max(np.abs(std - mc_std) / peak) < 0.01

        # harmonic-distortion distributions agree as well (same sample size)
        out = rectifier.node_state("out")
        mc_thd = thd(run_.waveforms[run_.ok()][:, :, out])
        st_dist = metric_distribution(sol, "thd", run_.n_samples, seed=202, state=out)
        assert ks_statistic(st_dist.samples, mc_thd) < 0.02


def test_criterion_6_st_vs_mc_autonomous(vdp_random, vdp_nominal):
    with _Budget("criterion 6: chaos vs Monte Carlo, oscillator", 900.0):
        est, phase, det = vdp_nominal
        basis = build_basis([s for _, s in vdp_random.random_params], 3)
        testing = select_testing_nodes(basis, tensor_rule(basis, 4))
        T0 = float(det.period)
        sys_a = assemble_autonomous(vdp_random, testing, T0)
        guess = np.zeros((basis.size, 2))
        guess[0] = det.y
        scale0 = np.zeros(basis.size)
        scale0[0] = 1.0
        sol = shoot_autonomous(sys_a, phase, guess, scale0, n_steps=400)
        mean, std = sol.period_moments()

        nominal = solve_nominal(vdp_random, phase_index=0, n_steps=400)
        run_ = monte_carlo(vdp_random, nominal, 2000, seed=33, n_steps=400)
        pm, ps = run_.scalar_stats(run_.period)
        assert abs(mean - pm) / pm < 0.002
        assert abs(std - ps) / ps < 0.02

        nodes, wts = gauss_rule("legendre", 10)
        det_map = solve_autonomous(
            vdp_random.realize(nodes[:, None]), phase, T0, det.y, n_steps=400
        )
        periods = np.asarray(det_map.period)
        mean_q = wts @ periods
        std_q = np.sqrt(wts @ (periods - mean_q) ** 2)
        assert abs(mean - mean_q) / mean_q < 0.002
        assert abs(std - std_q) / std_q < 0.02

        n_ok = int(np.sum(run_.ok()))
        xi_s = draw_standardized(sol.testing.basis.families, 44, n_ok)
        surrogate = sample_periods(sol, xi_s)
        ks = ks_statistic(surrogate, np.asarray(run_.period)[run_.ok()])
        assert ks < 0.05


def test_criterion_7_convergence_in_order(rectifier, tmp_path):
    with _Budget("criterion 7: convergence with chaos order", 600.0):
        cfg = load_config(_write_cfg(tmp_path, {"steps_per_period": 200}))
        rows = convergence_sweep(rectifier, cfg, [1, 2, 3, 4, 5, 6])
        errors = {p: e for p, _, e in rows}
        # monotone decrease above the Newton floor
        seq = [errors[p] for p in (1, 2, 3, 4, 5)]
        for a, b in zip(seq, seq[1:]):
            assert b <= a or a < 1e-4
        assert errors[3] < 1e-4
        assert errors[5] < 5e-5  # floors near the 1e-5 shooting threshold
        assert errors[6] == 0.0


def _write_cfg(tmp_path, obj):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(obj))
    return p


def test_criterion_8_decoupling_speedup():
    with _Budget("criterion 8: decoupled solve cost scaling", 600.0):
        rows, _ = speedup_sweep(
            n_nodes=100, orders=[1, 2, 3, 4], dim=4, n_steps=40, repeats=3, seed=0
        )
        K = np.array([r[1] for r in rows], dtype=float)
        ratio = np.array([r[4] for r in rows])
        t_coupled = np.array([r[2] for r in rows])
        slope = np.polyfit(np.log(K), np.log(ratio), 1)[0]
        assert slope >= 1.5
        coupled_slope = np.polyfit(np.log(K), np.log(t_coupled), 1)[0]
        assert coupled_slope >= 2.5
        assert np.all(np.diff(ratio) > 0)


BUNDLED = [
    ("st-forced", "rc_lowpass"),
    ("compare", "rectifier"),
    ("st-forced", "lna"),
    ("st-osc", "vanderpol"),
    ("st-osc", "colpitts"),
]


def test_criterion_9_reproducibility(tmp_path):
    with _Budget("criterion 9: seeded reruns are byte-identical", 1200.0):
        _check_reproducibility(tmp_path)


def _check_reproducibility(tmp_path):
    for command, stem in BUNDLED:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{stem}_{tag}"
            code = run(
                command,
                CIRCUITS_DIR / f"{stem}.cir",
                CIRCUITS_DIR / f"{stem}.json",
                out,
            )
            assert code == EXIT_OK, stem
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for fname in names:
            a_bytes = (outs[0] / fname).read_bytes()
            b_bytes = (outs[1] / fname).read_bytes()
            if fname == "manifest.json":
                a = json.loads(a_bytes)
                b = json.loads(b_bytes)
                a.pop("timings_s"), b.pop("timings_s")
                assert a == b, (stem, fname)
            else:
                assert a_bytes == b_bytes, (stem, fname)
    # the timing experiment reproduces its structure (its numbers are timings)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"speedup_{tag}"
        code = run("speedup", None, CIRCUITS_DIR / "speedup.json", out)
        assert code == EXIT_OK
        outs.append(out)
    for out in outs:
        lines = (out / "speedup.csv").read_text().strip().splitlines()
        assert [ln.split(",")[:2] for ln in lines] == [
            ["order", "n_basis"], ["1", "5"], ["2", "15"], ["3", "35"], ["4", "70"]
        ]
