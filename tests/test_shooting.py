"""Deterministic shooting: transition maps, monodromy, forced/autonomous."""

import numpy as np
import pytest

import pssuq.shooting as shooting
import pssuq.transient as transient
from pssuq import parse_netlist
from pssuq.circuit import CircuitInstance, dc_operating_point
from pssuq.shooting import (
    CircuitDae,
    OscillationError,
    PhaseCondition,
    estimate_period,
    floor_failure,
    nominal_start,
    solve_at,
    solve_autonomous,
    solve_forced,
    solve_nominal,
)
from pssuq.transient import TRAPEZOIDAL, ConvergenceError, integrate, transition_chain

from conftest import SHORTED_AT_A_NODE

RC_FIXED = "V1 in 0 SIN(0 1 1k)\nR1 in out 1k\nC1 out 0 1u\n"


def rc_phasor_initial_state():
    """Analytic periodic initial state of the driven RC low-pass."""
    w = 2 * np.pi * 1e3
    H = 1.0 / (1.0 + 1j * w * 1e3 * 1e-6)
    v_in0 = 0.0
    v_out0 = H.imag  # amplitude 1, sin drive
    i_v0 = -(1.0 - H).imag / 1e3
    return np.array([v_in0, v_out0, i_v0])


def test_transition_identity():
    c = parse_netlist(RC_FIXED)
    y = np.array([0.3, -0.2, 1e-4])
    traj = integrate(CircuitDae(c.realize_nominal()), y, 0.0, 0.0, n_steps=1)
    assert np.array_equal(traj.end, y)
    assert traj.n_points == 1


def test_transition_returns_to_phasor_start():
    c = parse_netlist(RC_FIXED)
    y = rc_phasor_initial_state()
    end = integrate(CircuitDae(c.realize_nominal()), y, 0.0, 1e-3, n_steps=30000).end
    assert np.abs(end - y).max() < 1e-8


def test_scaled_transition_equals_time_change():
    c = parse_netlist("I1 0 1 DC 0\nR1 1 0 1k\nC1 1 0 1u\n")
    inst = c.realize_nominal()
    y = np.array([1.0])
    scaled = integrate(CircuitDae(inst, scale=2.0), y, 0.0, 1e-3, n_steps=400)
    plain = integrate(CircuitDae(inst), y, 0.0, 2e-3, n_steps=400)
    assert np.abs(scaled.end - plain.end).max() < 1e-8


def test_monodromy_scalar_decay_circuit():
    c = parse_netlist("I1 0 1 DC 0\nR1 1 0 1k\nC1 1 0 1u\n")  # tau = 1 ms
    sys = CircuitDae(c.realize_nominal())
    traj = integrate(sys, np.array([1.0]), 0.0, 1e-3, TRAPEZOIDAL, n_steps=500)
    M, _ = transition_chain(sys, traj)
    assert M[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-5)


def test_monodromy_matches_finite_differences_on_rectifier(rectifier):
    inst = rectifier.realize_nominal()
    sys = CircuitDae(inst)
    sol = solve_forced(inst, 1e-3, n_steps=200)
    M, _ = transition_chain(sys, sol.trajectory)

    def endpoint(y):
        traj = integrate(sys, y, 0.0, 1e-3, n_steps=200, stabilized_start=True)
        return traj.end

    n = rectifier.n
    fd = np.empty((n, n))
    for i in range(n):
        h = 1e-6 * (1.0 + abs(sol.y[i]))
        yp, ym = sol.y.copy(), sol.y.copy()
        yp[i] += h
        ym[i] -= h
        fd[:, i] = (endpoint(yp) - endpoint(ym)) / (2 * h)
    assert np.abs(M - fd).max() / (np.abs(fd).max() + 1e-30) < 1e-4


def test_forced_linear_converges_in_one_iteration():
    c = parse_netlist(RC_FIXED)
    rng = np.random.default_rng(0)
    for _ in range(3):
        y0 = rng.normal(size=c.n)
        sol = solve_forced(c.realize_nominal(), 1e-3, y0=y0, n_steps=200)
        assert sol.iterations == 1
        assert float(sol.residual_norm) < 1e-10


def test_forced_dc_only_equals_operating_point():
    c = parse_netlist("V1 1 0 DC 2\nR1 1 2 1k\nC1 2 0 1u\nR2 2 0 1k\n")
    inst = c.realize_nominal()
    sol = solve_forced(inst, 1e-3, n_steps=64)
    assert float(sol.residual_norm) < 1e-10
    assert np.abs(sol.y - dc_operating_point(inst)).max() < 1e-9


def test_forced_rectifier_matches_brute_force(rectifier):
    inst = rectifier.realize_nominal()
    sol = solve_forced(inst, 1e-3, n_steps=200)
    # brute-force oracle: iterate the same one-period map from rest until
    # the transient has died out (load time constant ~ one period)
    y = np.zeros(rectifier.n)
    sys = CircuitDae(inst)
    for _ in range(50):
        y = integrate(sys, y, 0.0, 1e-3, n_steps=200, stabilized_start=True).end
    assert np.abs(sol.y - y).max() < 1e-4
    traj_bf = integrate(sys, y, 0.0, 1e-3, n_steps=200, stabilized_start=True)
    assert np.abs(sol.trajectory.states - traj_bf.states).max() < 1e-4


def test_forced_solution_survives_grid_refinement(rectifier):
    inst = rectifier.realize_nominal()
    tol = 1e-5
    sol = solve_forced(inst, 1e-3, tol=tol, n_steps=200)
    sys = CircuitDae(inst)
    fine = integrate(sys, sol.y, 0.0, 1e-3, n_steps=400, stabilized_start=True)
    assert np.abs(fine.end - sol.y).max() < 10 * tol


def test_forced_linear_monodromy_is_stable():
    c = parse_netlist(RC_FIXED)
    inst = c.realize_nominal()
    sol = solve_forced(inst, 1e-3, n_steps=200)
    M, _ = transition_chain(CircuitDae(inst), sol.trajectory)
    rho = np.max(np.abs(np.linalg.eigvals(M)))
    assert rho < 1.0


def test_batched_forced_matches_individual(rc_circuit):
    xi = np.array([[-0.7], [0.2], [1.0]])
    batch = solve_forced(rc_circuit.realize(xi), 1e-3, n_steps=100)
    assert np.all(batch.converged)
    for k in range(3):
        one = solve_forced(rc_circuit.realize(xi[k]), 1e-3, n_steps=100)
        assert np.abs(batch.y[k] - one.y).max() < 1e-9


def _staggered_rectifier_batch(rectifier):
    """Four rectifier samples and starts that converge after different
    iteration counts, the first one converged from the start."""
    xi = np.array([[0.0, 0.0], [-1.0, 2.0], [1.0, -2.0], [0.5, 1.0]])
    nominal = solve_forced(rectifier.realize(xi[0]), 1e-3, n_steps=100).y
    y0 = np.stack([
        nominal,
        nominal,
        dc_operating_point(rectifier.realize(xi[2])),
        np.zeros(rectifier.n),
    ])
    return xi, y0


def _recording_integrate(monkeypatch, batch_theta):
    """Record, per shooting run, the batch rows of ``batch_theta`` it integrates."""
    runs = []
    integrate_ = shooting.integrate

    def recording(system, *args, **kwargs):
        theta = system.instance.theta
        runs.append([int(np.flatnonzero((batch_theta == row).all(axis=1))[0]) for row in theta])
        return integrate_(system, *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", recording)
    return runs


def test_batched_forced_newton_matches_individual(rectifier):
    """A batch whose members need different iteration counts, one of them
    converged from the start, ends where each member ends when solved alone."""
    xi, y0 = _staggered_rectifier_batch(rectifier)
    batch = solve_forced(rectifier.realize(xi), 1e-3, y0=y0, n_steps=100)
    iterations = []
    for k in range(len(xi)):
        one = solve_forced(rectifier.realize(xi[k]), 1e-3, y0=y0[k], n_steps=100)
        iterations.append(one.iterations)
        assert batch.converged[k] == one.converged
        assert np.abs(batch.y[k] - one.y).max() <= 1e-12 * np.abs(one.y).max()
    assert iterations[0] == 0 and len(set(iterations)) >= 3
    assert batch.iterations == max(iterations)


def test_forced_batch_retires_converged_samples(rectifier, monkeypatch):
    """After the first run only the pending samples are integrated, so the
    runs shrink as samples converge; the kept trajectory rows still hold
    each sample's own converged period."""
    xi, y0 = _staggered_rectifier_batch(rectifier)
    inst = rectifier.realize(xi)
    runs = _recording_integrate(monkeypatch, inst.theta)
    batch = solve_forced(inst, 1e-3, y0=y0, n_steps=100)
    assert runs[0] == [0, 1, 2, 3]
    assert 0 not in runs[1] and len(runs[-1]) < len(runs[1])
    assert all(set(later) <= set(earlier) for earlier, later in zip(runs[1:], runs[2:]))
    monkeypatch.undo()
    for k in range(len(xi)):
        one = solve_forced(rectifier.realize(xi[k]), 1e-3, y0=y0[k], n_steps=100)
        assert np.abs(batch.y[k] - one.y).max() <= 1e-12 * np.abs(one.y).max()
        if np.array_equal(one.trajectory.times, batch.trajectory.times):
            gap = np.abs(batch.trajectory.states[:, k] - one.trajectory.states).max()
            assert gap <= 1e-12 * np.abs(one.trajectory.states).max()


def test_batched_newton_idles_a_sample_that_cannot_be_integrated(monkeypatch):
    """A sample whose first run fails is flagged once and left out of every
    later run; the others converge as they do alone."""
    c = parse_netlist(SHORTED_AT_A_NODE)
    xi = np.array([[0.5], [-1.0], [1.0]])  # the middle one is shorted
    inst = c.realize(xi)
    runs = _recording_integrate(monkeypatch, inst.theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        batch = solve_forced(inst, 1e-3, y0=np.zeros((3, c.n)), n_steps=64)
    assert batch.converged.tolist() == [True, False, True]
    assert batch.residual_norm[1] == np.inf
    assert runs[0] == [0, 1, 2]
    assert len(runs) > 1 and all(1 not in rows for rows in runs[1:])
    monkeypatch.undo()
    for k in (0, 2):
        one = solve_forced(c.realize(xi[k]), 1e-3, y0=np.zeros(c.n), n_steps=64)
        assert np.abs(batch.y[k] - one.y).max() <= 1e-12 * np.abs(one.y).max()


def test_floor_failure_names_the_first_flagged_row():
    c = parse_netlist(SHORTED_AT_A_NODE)
    inst = c.realize(np.array([[0.5], [-1.0]]))  # the second one is shorted
    with np.errstate(divide="ignore", invalid="ignore"):
        traj = integrate(CircuitDae(inst), np.zeros((2, c.n)), 0.0, 1e-3, n_steps=16)
        assert floor_failure(inst, traj) == (1, (
            "implicit step at t=0 did not converge at the bisection floor "
            "(non-finite contribution from element R1)"
        ))
    sound = integrate(CircuitDae(c.realize([0.5])), np.zeros(c.n), 0.0, 1e-3, n_steps=16)
    assert floor_failure(c.realize([0.5]), sound) is None


def test_a_lone_solve_failing_at_the_floor_names_the_element_and_time():
    c = parse_netlist(SHORTED_AT_A_NODE.replace("gauss(1k, 1k)", "const(0)"))
    expect = (
        r"^implicit step at t=0 did not converge at the bisection floor "
        r"\(non-finite contribution from element R1\)$"
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match=expect):
            solve_forced(c.realize_nominal(), 1e-3, y0=np.zeros(c.n), n_steps=16)


def test_a_run_whose_every_sample_is_flagged_stops_evaluating():
    """Once the lone sample freezes at t = 0, the later grid steps keep its
    state without evaluating the circuit: the solve raises as before after
    the floor failure's own evaluations, and the run keeps its grid."""
    c = parse_netlist(SHORTED_AT_A_NODE.replace("gauss(1k, 1k)", "const(0)"))

    def counted():
        inst = c.realize_nominal()
        calls, eval_dae = [], inst.eval_dae

        def counting(x, t):
            calls.append(t)
            return eval_dae(x, t)

        inst.eval_dae = counting
        return inst, calls

    expect = (
        r"^implicit step at t=0 did not converge at the bisection floor "
        r"\(non-finite contribution from element R1\)$"
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        inst, calls = counted()
        with pytest.raises(ConvergenceError, match=expect):
            solve_forced(inst, 1e-3, y0=np.zeros(c.n), n_steps=200)
        assert len(calls) <= 40
        inst, calls = counted()
        traj = integrate(CircuitDae(inst), np.zeros(c.n), 0.0, 1e-3, n_steps=200)
    assert len(calls) <= 40
    assert np.array_equal(traj.times, np.linspace(0.0, 1e-3, 201))
    assert np.all(traj.states == 0.0) and traj.gammas.shape == (200, 2)
    assert traj.failed and traj.fail_times == 0.0


def test_retired_batch_equals_the_lockstep_batch_through_a_bisection(lna_perturbed, monkeypatch):
    """The amplifier's testing-node circuits, one started on its periodic
    state: the first run bisects a step for the perturbed members, the run
    of the five pending ones does not, so it is repeated for all six, and
    the result is bit for bit that of running every sample in every run."""
    system, w0 = lna_perturbed
    starts = system.node_states(w0)
    first = solve_forced(system.instances, system.period, y0=starts, n_steps=200)
    starts[0] = first.y[0]
    runs = _recording_integrate(monkeypatch, system.instances.theta)
    retired = solve_forced(system.instances, system.period, y0=starts, n_steps=200)
    assert runs == [list(range(6)), [1, 2, 3, 4, 5], list(range(6))]
    monkeypatch.setattr(shooting, "_rows", lambda mask: Ellipsis)  # every run takes every row
    lockstep = solve_forced(system.instances, system.period, y0=starts, n_steps=200)
    assert np.all(retired.converged) and retired.iterations == lockstep.iterations
    assert np.array_equal(retired.y, lockstep.y)
    assert np.array_equal(retired.residual_norm, lockstep.residual_norm)
    assert np.array_equal(retired.trajectory.times, lockstep.trajectory.times)
    assert np.array_equal(retired.trajectory.states, lockstep.trajectory.states)


def test_a_line_search_run_that_bisects_equals_the_lockstep_batch(rectifier, monkeypatch):
    """The staggered rectifier batch with the whole step from mid-period
    refused to its last member once its output passes 0.29 V: the first
    run keeps the uniform grid; the line-search run of the three pending
    members writes into the live trajectory's rows, bisects that step,
    goes on in a buffer of its own and is repeated for all four. The
    result is bit for bit that of running every sample in every run,
    with the same flags and the same grid."""
    xi, y0 = _staggered_rectifier_batch(rectifier)
    inst = rectifier.realize(xi)
    out = rectifier.state_names.index("v(out)")
    grid = np.linspace(0.0, 1e-3, 101)
    step = transient._newton_step

    def refusing(system, w, t, h, *args, **kwargs):
        w_new, ev, conv = step(system, w, t, h, *args, **kwargs)
        if t == grid[50] and h == grid[51] - grid[50]:
            last = (system.instance.theta == inst.theta[3]).all(axis=-1)
            conv = conv & ~(last & (w[..., out] > 0.29))
        return w_new, ev, conv

    monkeypatch.setattr(transient, "_newton_step", refusing)
    runs, integrate_ = [], shooting.integrate

    def recording(system, *args, into=None, **kwargs):
        traj = integrate_(system, *args, into=into, **kwargs)
        shared = into is not None and traj.states is into.states
        runs.append((system.instance.theta[:, 0].size, into is not None, shared, traj.n_points))
        return traj

    monkeypatch.setattr(shooting, "integrate", recording)
    retired = solve_forced(inst, 1e-3, y0=y0, n_steps=100)
    assert runs[:3] == [(4, False, False, 101), (3, True, False, 102), (4, False, False, 102)]
    monkeypatch.setattr(shooting, "_rows", lambda mask: Ellipsis)  # every run takes every row
    lockstep = solve_forced(inst, 1e-3, y0=y0, n_steps=100)
    assert np.all(retired.converged) and retired.iterations == lockstep.iterations
    assert np.array_equal(retired.y, lockstep.y)
    assert np.array_equal(retired.residual_norm, lockstep.residual_norm)
    a, b = retired.trajectory, lockstep.trajectory
    assert np.array_equal(a.times, b.times) and a.n_points == 102
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.failed, b.failed) and not a.failed.any()
    assert np.array_equal(a.fail_times, b.fail_times, equal_nan=True)


# -- autonomous ---------------------------------------------------------------

VDP_ANALYTIC_PERIOD = 2 * np.pi * (1 + 0.1**2 / 16)  # 6.28711...


def test_estimate_period_van_der_pol(vdp_circuit):
    est = estimate_period(vdp_circuit.realize_nominal(), 0)
    assert abs(est.period - VDP_ANALYTIC_PERIOD) / VDP_ANALYTIC_PERIOD < 0.01


def test_estimate_period_corrects_the_trapezoidal_lag(vdp_nominal):
    # 50 steps per period lengthen the transient's period by about
    # (2 pi / 50)^2 / 12 = 1.3e-3; corrected, the estimate is within 5.4e-5
    # of the converged period on 400 steps, and one shooting iteration does
    est, _, sol = vdp_nominal
    assert abs(est.period / float(sol.period) - 1.0) < 2e-4
    assert sol.iterations == 1


@pytest.mark.parametrize("circuit", ["vdp_circuit", "colpitts"])
def test_oscillation_frequency_matches_the_scipy_pencil(circuit, request):
    """The least-damped oscillatory mode equals scipy's generalized
    eigenvalue solve of the pencil (-G, C), which returns the infinite
    modes of the algebraic states as inf. The returned shape is the real
    part of its eigenvector, rotated so the largest entry is real and
    scaled to a largest entry of 1."""
    import scipy.linalg

    inst = request.getfixturevalue(circuit).realize_nominal()
    x_dc = dc_operating_point(inst)
    ev = inst.eval_dae(x_dc, 0.0)
    lam, vecs = scipy.linalg.eig(-ev.df_dx, ev.dq_dx)
    osc = np.nonzero(np.isfinite(lam) & (lam.imag != 0))[0]
    j = osc[np.argmax(lam[osc].real / np.abs(lam[osc]))]
    omega, v = shooting._oscillation_frequency(inst, x_dc)
    assert omega == pytest.approx(abs(lam[j].imag), rel=1e-12)
    w = vecs[:, j] / vecs[np.argmax(np.abs(vecs[:, j])), j]
    scale = np.abs(ev.df_dx).max() + abs(lam[j]) * np.abs(ev.dq_dx).max()
    assert np.abs(-ev.df_dx @ w - lam[j] * (ev.dq_dx @ w)).max() <= 1e-12 * scale
    assert v.dtype == float and np.max(np.abs(v)) == 1.0
    assert v[np.argmax(np.abs(w))] == 1.0
    assert np.abs(v - w.real).max() <= 1e-9


def test_estimate_period_rejects_rc():
    c = parse_netlist("V1 1 0 DC 1\nR1 1 2 1k\nC1 2 0 1u\n")
    with pytest.raises(OscillationError):
        estimate_period(c.realize_nominal(), c.node_state("2"))


def test_estimate_period_colpitts_sanity(colpitts_nominal):
    est, _, _ = colpitts_nominal
    t_lc = 2 * np.pi * np.sqrt(150e-9 * 50e-12)  # L1 with C1 in series with C2
    assert t_lc / 3 < est.period < 3 * t_lc


def test_autonomous_van_der_pol_period(vdp_nominal):
    _, _, sol = vdp_nominal
    assert abs(sol.period - VDP_ANALYTIC_PERIOD) / VDP_ANALYTIC_PERIOD < 1e-3
    assert float(sol.residual_norm) <= 1e-5


def test_autonomous_dual_residual(vdp_circuit, vdp_nominal):
    est, phase, sol = vdp_nominal
    inst = vdp_circuit.realize_nominal()
    # stabilized-start grid is what the solver used
    sys = CircuitDae(inst, scale=float(sol.period_scale))
    traj = integrate(
        sys, sol.y, 0.0, float(sol.period) / float(sol.period_scale),
        n_steps=400, stabilized_start=True,
    )
    assert np.abs(traj.end - sol.y).max() <= 1e-5
    assert abs(sol.y[phase.index] - phase.value) <= 1e-5


def test_autonomous_colpitts(colpitts_nominal):
    est, phase, sol = colpitts_nominal
    assert bool(sol.converged)
    # the settled start-up's crossing oracle agrees with the solved period
    assert abs(float(sol.period) - est.period) / est.period < 1e-3


@pytest.mark.parametrize(
    "circuit, nominal, state",
    [("vdp_circuit", "vdp_nominal", "1"), ("colpitts", "colpitts_nominal", "coll")],
)
def test_estimated_period_is_near_the_converged_period(circuit, nominal, state, request):
    c = request.getfixturevalue(circuit)
    est = estimate_period(c.realize_nominal(), c.node_state(state))
    _, _, sol = request.getfixturevalue(nominal)
    assert abs(est.period - float(sol.period)) / float(sol.period) < 5e-3


def test_oscillator_jacobian_evaluates_each_grid_point_once(colpitts, colpitts_nominal, monkeypatch):
    """E, A and the period-scaling column of a grid point come from one evaluation."""
    _, phase, sol = colpitts_nominal
    system = CircuitDae(colpitts.realize_nominal(), sol.period_scale)
    calls = []
    eval_dae = CircuitInstance.eval_dae

    def counted(self, x, t):
        calls.append(t)
        return eval_dae(self, x, t)

    monkeypatch.setattr(CircuitInstance, "eval_dae", counted)
    J = shooting.shooting_jacobian(system, sol.trajectory, [phase.index])
    assert len(calls) == sol.trajectory.n_points == 301
    assert np.all(np.isfinite(J))


@pytest.mark.parametrize("scaled", [False, True])
def test_circuit_dae_jacobians_are_those_of_its_full_evaluation(colpitts, colpitts_nominal, scaled):
    """Unscaled from the instance's Jacobian-only evaluation, scaled from
    the full one: either way the bits of ``eval_with_jac``."""
    _, _, sol = colpitts_nominal
    system = CircuitDae(colpitts.realize_nominal(), sol.period_scale if scaled else None)
    dq, dF = system.jacobians(sol.y, 1e-7)
    _, _, dq_ref, dF_ref = system.eval_with_jac(sol.y, 1e-7)
    assert dq.tobytes() == dq_ref.tobytes() and dF.tobytes() == dF_ref.tobytes()


def test_colpitts_estimate_stops_once_the_cycle_settles(colpitts, monkeypatch):
    """The start-up transient ends within 16 linearized periods."""
    inst = colpitts.realize_nominal()
    spans = []
    integrate_ = shooting.integrate

    def counting(system, w0, t0, t1, *args, **kwargs):
        spans.append(t1 - t0)
        return integrate_(system, w0, t0, t1, *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", counting)
    estimate_period(inst, colpitts.node_state("coll"))
    omega, _ = shooting._oscillation_frequency(inst, dc_operating_point(inst))
    assert sum(spans) * omega / (2 * np.pi) <= 16


def test_estimate_settles_a_cycle_longer_than_the_linearized_period(
    colpitts, colpitts_nominal, monkeypatch
):
    """The settling window is four measured cycles, not four linearized
    periods: with the linearized frequency raised by a fifth the cycle is
    1.43 linearized periods long, and the estimate still settles on it."""
    _, _, sol = colpitts_nominal
    frequency = shooting._oscillation_frequency

    def faster(instance, x_dc):
        omega, *rest = frequency(instance, x_dc)
        return (1.2 * omega, *rest)

    monkeypatch.setattr(shooting, "_oscillation_frequency", faster)
    est = estimate_period(colpitts.realize_nominal(), colpitts.node_state("coll"))
    assert abs(est.period - float(sol.period)) / float(sol.period) < 5e-3


@pytest.mark.parametrize("batch", [1, 2])
def test_autonomous_solve_rejects_the_dc_equilibrium(colpitts, batch):
    """The DC point solves the oscillator residual for every period; a
    batch whose every sample settles there raises as one circuit does."""
    xi = np.zeros((batch, len(colpitts.random_params)))
    inst = colpitts.realize(xi[0] if batch == 1 else xi)
    idx = colpitts.node_state("coll")
    x_dc = dc_operating_point(colpitts.realize_nominal())
    with pytest.raises(OscillationError, match="stationary orbit"):
        solve_autonomous(inst, PhaseCondition(idx, x_dc[idx]), 1.6e-8, x_dc, tol=1e-5, n_steps=300)


def test_batched_autonomous_solve_flags_the_dc_equilibrium(colpitts, colpitts_nominal):
    _, _, sol = colpitts_nominal
    idx = colpitts.node_state("coll")
    x_dc = dc_operating_point(colpitts.realize_nominal())
    batch = colpitts.realize(np.zeros((2, len(colpitts.random_params))))
    out = solve_autonomous(
        batch, PhaseCondition(idx, x_dc[idx]), float(sol.period), np.stack([x_dc, sol.y]),
        tol=1e-5, n_steps=300,
    )
    assert out.converged.tolist() == [False, True]
    assert np.ptp(out.trajectory.states[:, 1, idx]) > 0.5


@pytest.mark.parametrize(
    "circuit, state, spread", [("vdp_random", "1", 0.05), ("colpitts", "coll", 0.0)]
)
def test_oscillator_batch_retires_converged_samples(circuit, state, spread, request, monkeypatch):
    """Samples of an oscillator batch that converge early leave the later
    runs, whose sub-batch is scaled and chained with its own samples'
    period scales: each sample still takes the iterates it takes alone."""
    c = request.getfixturevalue(circuit)
    nominal = solve_nominal(c, phase_index=c.node_state(state), n_steps=100)
    xi = np.linspace(-1.0, 1.0, 4)[:, None] * np.ones((1, c.dim))
    y0 = nominal.y * (1.0 + spread * np.arange(4))[:, None]
    y0[:, nominal.phase.index] = nominal.phase.value
    inst = c.realize(xi)
    runs = _recording_integrate(monkeypatch, inst.theta)
    batch = solve_autonomous(inst, nominal.phase, float(nominal.period), y0, n_steps=100)
    monkeypatch.undo()
    iterations = []
    for k in range(len(xi)):
        one = solve_autonomous(
            c.realize(xi[k]), nominal.phase, float(nominal.period), y0[k], n_steps=100
        )
        iterations.append(one.iterations)
        assert batch.converged[k] and one.converged
        assert np.abs(batch.y[k] - one.y).max() <= 1e-12 * np.abs(one.y).max()
        assert batch.period[k] == pytest.approx(one.period, rel=1e-12)
    assert len(set(iterations)) >= 2 and batch.iterations == max(iterations)
    assert runs[0] == [0, 1, 2, 3] and len(runs[-1]) < 4
    assert [len(rows) for rows in runs] == sorted((len(rows) for rows in runs), reverse=True)


@pytest.mark.parametrize("name, phase_index", [("rectifier", None), ("vdp_random", 0)])
def test_solve_at_the_origin_is_the_nominal_solve(request, name, phase_index):
    c = request.getfixturevalue(name)
    nominal = solve_nominal(c, phase_index=phase_index, n_steps=100)
    start = nominal_start(c, phase_index=phase_index)
    at = solve_at(c, start, np.zeros(c.dim), n_steps=100)
    assert np.array_equal(at.y, nominal.y) and np.array_equal(at.period, nominal.period)
    assert np.array_equal(at.trajectory.states, nominal.trajectory.states)
    assert at.iterations == nominal.iterations


def test_solve_at_a_batch_is_the_oscillator_solve_of_its_realization(vdp_random):
    nominal = solve_nominal(vdp_random, phase_index=0, n_steps=100)
    xi = np.linspace(-1.0, 1.0, 3)[:, None]
    at = solve_at(vdp_random, nominal, xi, n_steps=100)
    direct = solve_autonomous(
        vdp_random.realize(xi), nominal.phase, float(nominal.period), nominal.y, n_steps=100
    )
    assert at.y.shape == (3, vdp_random.n)
    assert np.array_equal(at.y, direct.y) and np.array_equal(at.period, direct.period)
    assert np.array_equal(at.trajectory.states, direct.trajectory.states)
