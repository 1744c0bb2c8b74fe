"""Implicit integrator: step values, accuracy orders, grids, chains."""

import gc
import tracemalloc

import numpy as np
import pytest

from pssuq import cli, parse_netlist, transient
from pssuq.analysis import draw_standardized
from pssuq.circuit import dc_operating_point
from pssuq.gpc import build_basis, family_for, select_testing_nodes, tensor_rule
from pssuq.shooting import CircuitDae, shooting_jacobian, solve_nominal
from pssuq.stpss import assemble_forced
from pssuq.transient import (
    BACKWARD_EULER,
    SHARED_ORDER_BLOCK,
    SHARED_ORDER_MAX_ORDER,
    SHARED_ORDER_MIN_BATCH,
    STEP_MAX_ITER,
    Dae,
    NewtonOptions,
    TRAPEZOIDAL,
    Trajectory,
    _evaluate,
    _newton_step,
    batched_solve,
    integrate,
    scheme_by_name,
    transition_chain,
)

from conftest import RECTIFIER, SHORTED_AT_A_NODE, nominal_start


class ScalarDecay(Dae):
    """Q = w, F = w: the unit linear decay dw/dt = -w."""

    def linearize(self, w, t):
        return w

    def terms(self, w, t=None):
        eye = np.broadcast_to(np.eye(1), w.shape + (1,)).copy()
        return w.copy(), w.copy(), eye, eye


class ConstantCharge(Dae):
    """F = 0: the state must not move."""

    def linearize(self, w, t):
        return w

    def terms(self, w, t=None):
        eye = np.broadcast_to(np.eye(2), w.shape + (2,)).copy()
        return w.copy(), np.zeros_like(w), eye, np.zeros_like(eye)


def _one_step(system, w0, h, scheme):
    return integrate(system, w0, 0.0, h, scheme, n_steps=1).end


def test_backward_euler_step_value():
    w = _one_step(ScalarDecay(), np.array([1.0]), 0.1, BACKWARD_EULER)
    assert w[0] == pytest.approx(1.0 / 1.1, rel=1e-12)


def test_trapezoidal_step_value():
    w = _one_step(ScalarDecay(), np.array([1.0]), 0.1, TRAPEZOIDAL)
    assert w[0] == pytest.approx(0.95 / 1.05, rel=1e-12)


def test_zero_rhs_keeps_state():
    w0 = np.array([1.5, -2.0])
    w = _one_step(ConstantCharge(), w0, 0.3, TRAPEZOIDAL)
    assert np.allclose(w, w0)


def test_exponential_decay_accuracy():
    traj = integrate(ScalarDecay(), np.array([1.0]), 0.0, 1.0, TRAPEZOIDAL, n_steps=1000)
    assert abs(traj.end[0] - np.exp(-1.0)) < 1e-6


def test_zero_length_interval():
    traj = integrate(ScalarDecay(), np.array([2.0]), 1.0, 1.0, TRAPEZOIDAL, n_steps=10)
    assert traj.n_points == 1
    assert traj.end[0] == 2.0


def test_order_of_accuracy():
    """Global error slope: 1 for backward Euler, 2 for trapezoidal."""
    for scheme, expect in ((BACKWARD_EULER, 1.0), (TRAPEZOIDAL, 2.0)):
        errs = []
        ns = np.array([100, 1000, 10000])
        for n in ns:
            traj = integrate(ScalarDecay(), np.array([1.0]), 0.0, 1.0, scheme, n_steps=n)
            errs.append(abs(traj.end[0] - np.exp(-1.0)))
        slope = np.polyfit(np.log(1.0 / ns), np.log(errs), 1)[0]
        assert abs(slope - expect) < 0.15


def test_lc_energy_conservation():
    """Trapezoidal keeps the quadratic invariant of a lossless LC tank."""
    c = parse_netlist("C1 1 0 1\nL1 1 0 1\n")
    sys = CircuitDae(c.realize_nominal())
    w0 = np.array([1.0, 0.0])
    T = 2 * np.pi
    traj = integrate(sys, w0, 0.0, T, TRAPEZOIDAL, n_steps=512)
    energy = 0.5 * traj.states[:, 0] ** 2 + 0.5 * traj.states[:, 1] ** 2
    drift = np.abs(energy - energy[0]).max() / energy[0]
    assert drift < 1e-8


def test_scheme_lookup():
    assert scheme_by_name("trapezoidal") is TRAPEZOIDAL
    assert scheme_by_name("backward_euler") is BACKWARD_EULER
    with pytest.raises(ValueError):
        scheme_by_name("rk4")


def test_fixed_grid_deterministic():
    c = parse_netlist("V1 in 0 SIN(0 1 1k)\nR1 in out 1k\nC1 out 0 1u\n")
    sys = CircuitDae(c.realize_nominal())
    w0 = np.zeros(c.n)
    a = integrate(sys, w0, 0.0, 1e-3, TRAPEZOIDAL, n_steps=200)
    b = integrate(sys, w0, 0.0, 1e-3, TRAPEZOIDAL, n_steps=200)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_batched_matches_scalar_runs():
    c = parse_netlist(".param r = uniform(800, 1200)\nV1 in 0 SIN(0 1 1k)\nR1 in out {r}\nC1 out 0 1u\n")
    xi = np.array([[-0.5], [0.0], [0.9]])
    batch = CircuitDae(c.realize(xi))
    traj = integrate(batch, np.zeros((3, c.n)), 0.0, 1e-3, n_steps=100)
    assert traj.failed is not None and not traj.failed.any()
    for k in range(3):
        one = CircuitDae(c.realize(xi[k]))
        tk = integrate(one, np.zeros(c.n), 0.0, 1e-3, n_steps=100)
        assert np.allclose(traj.states[:, k], tk.states, atol=1e-12)


def test_stacked_batch_shares_grid():
    """A batch integrates on one grid; per-member states match solo runs."""
    c = parse_netlist(".param r = uniform(500, 1500)\nI1 0 1 DC 1m\nR1 1 0 {r}\nC1 1 0 1u\n")
    xi = np.array([[-1.0], [1.0]])
    batch = CircuitDae(c.realize(xi))
    traj = integrate(batch, np.zeros((2, 1)), 0.0, 1e-3, n_steps=64)
    assert traj.states.shape == (65, 2, 1)


def test_monodromy_of_scalar_decay():
    traj = integrate(ScalarDecay(), np.array([1.0]), 0.0, 2.0, TRAPEZOIDAL, n_steps=2000)
    M, _ = transition_chain(ScalarDecay(), traj)
    assert M[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-6)


def test_chain_identity_for_zero_rhs():
    sys = ConstantCharge()
    traj = integrate(sys, np.array([1.0, 2.0]), 0.0, 1.0, TRAPEZOIDAL, n_steps=50)
    M, _ = transition_chain(sys, traj)
    assert np.allclose(M, np.eye(2))


def _dense_chain(system, trajectory, with_scale_columns=False):
    """``transition_chain`` over every column of M, each grid point evaluated
    by ``eval_with_jac`` (and ``dF_dscale``): the chain's reference."""
    times, states, gam = trajectory.times, trajectory.states, trajectory.gammas
    n = states.shape[-1]
    batch = states.shape[1:-1]
    M = np.broadcast_to(np.eye(n), batch + (n, n)).copy()
    S = P_prev = None
    _, _, E_prev, A_prev = system.eval_with_jac(states[0], times[0])
    if with_scale_columns:
        P_prev = system.dF_dscale(states[0], times[0])
        S = np.zeros(batch + (n, P_prev.shape[-1]))
    for k in range(1, times.size):
        h = times[k] - times[k - 1]
        g1, g2 = gam[k - 1]
        _, _, E_k, A_k = system.eval_with_jac(states[k], times[k])
        lhs = E_k + (g1 * h) * A_k
        rhs_m = (E_prev - (g2 * h) * A_prev) @ M
        if with_scale_columns:
            P_k = system.dF_dscale(states[k], times[k])
            rhs_s = (E_prev - (g2 * h) * A_prev) @ S - h * (g1 * P_k + g2 * P_prev)
            sol = batched_solve(lhs, np.concatenate([rhs_m, rhs_s], axis=-1))
            M, S = sol[..., :n], sol[..., n:]
            P_prev = P_k
        else:
            M = batched_solve(lhs, rhs_m)
        E_prev, A_prev = E_k, A_k
    return M, S


def _chain_case(case, request):
    """(system, trajectory, with_scale_columns, charge states) of one chain test case."""
    if case == "rectifier":
        inst = request.getfixturevalue("rectifier").realize_nominal()
        system, y, horizon, scaled = CircuitDae(inst), dc_operating_point(inst), 1e-3, False
    elif case == "colpitts":
        est, _, sol = request.getfixturevalue("colpitts_nominal")
        inst = request.getfixturevalue("colpitts").realize_nominal()
        system, y, horizon, scaled = CircuitDae(inst, sol.period_scale), sol.y, est.period, True
    elif case == "lna-nodes":
        stacked, guess = request.getfixturevalue("lna_perturbed")
        system, y, horizon, scaled = stacked.node_dae(), stacked.node_states(guess), stacked.horizon, False
    else:
        rect = request.getfixturevalue("rectifier")
        basis = build_basis([s for _, s in rect.random_params], 2)
        system = assemble_forced(rect, select_testing_nodes(basis, tensor_rule(basis, 3)))
        y, horizon, scaled = nominal_start(system).ravel(), system.horizon, False
    traj = integrate(system, y, 0.0, horizon, n_steps=200, stabilized_start=True)
    _, _, E0, _ = system.eval_with_jac(traj.states[0], traj.times[0])
    charge = np.any(E0 != 0, axis=tuple(range(E0.ndim - 1)))
    return system, traj, scaled, charge


@pytest.mark.parametrize("case, memory", [
    ("rectifier", 1), ("colpitts", 4), ("lna-nodes", 5), ("stacked-rectifier", 6),
])
def test_chain_runs_over_the_charge_columns(case, memory, request):
    """After the backward-Euler first step only the charge and flux columns
    of M are nonzero; they equal the dense all-column chain's."""
    system, traj, scaled, charge = _chain_case(case, request)
    assert charge.sum() == memory < charge.size
    M, S = transition_chain(system, traj, with_scale_columns=scaled)
    M_ref, S_ref = _dense_chain(system, traj, with_scale_columns=scaled)
    assert np.all(M[..., ~charge] == 0) and np.all(M_ref[..., ~charge] == 0)
    assert np.all(np.any(M[..., charge] != 0, axis=-2))
    assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max()
    if scaled:
        assert np.abs(S - S_ref).max() <= 1e-13 * np.abs(S_ref).max()


class FullEvaluation(Dae):
    """``system`` with the base class's ``jacobians``: each grid point of a
    chain evaluated in full, the reference for its bits."""

    def __init__(self, system):
        self.system = system

    def linearize(self, w, t):
        return self.system.linearize(w, t)

    def terms(self, lin, t=None):
        return self.system.terms(lin, t)


@pytest.mark.parametrize("case", ["rectifier-2000", "lna-nodes"])
def test_an_unscaled_chain_evaluates_jacobians_only_with_the_same_bits(case, request, monkeypatch):
    """An unscaled chain stamps each grid point's Jacobians without q, f
    and B u, calling no ``eval_dae``, and gives the bits of the chain that
    evaluates every point in full; both agree with the dense chain."""
    if case == "lna-nodes":
        stacked, guess = request.getfixturevalue("lna_perturbed")
        system, y, horizon = stacked.node_dae(), stacked.node_states(guess), stacked.horizon
    else:
        rect = request.getfixturevalue("rectifier")
        nominal = solve_nominal(rect, n_steps=200)
        system = CircuitDae(_random_draws(rect, 2000))
        y, horizon = np.broadcast_to(nominal.y, (2000, rect.n)), nominal.period
    traj = integrate(system, y, 0.0, horizon, n_steps=200, stabilized_start=True)
    M_full, _ = transition_chain(FullEvaluation(system), traj)
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(type(system.instance), "eval_dae", lambda *args: calls.append(args))
        M, _ = transition_chain(system, traj)
    assert calls == [] and M.tobytes() == M_full.tobytes()
    M_ref, _ = _dense_chain(system, traj)
    assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max()


def test_chain_keeps_every_column_after_a_trapezoidal_first_step(rectifier):
    system = CircuitDae(rectifier.realize_nominal())
    traj = integrate(system, dc_operating_point(system.instance), 0.0, 1e-3, n_steps=200)
    M, _ = transition_chain(system, traj)
    M_ref, _ = _dense_chain(system, traj)
    assert np.all(np.any(M != 0, axis=-2))
    assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max()


def test_chain_of_a_one_point_trajectory_is_the_identity(colpitts, colpitts_nominal):
    _, _, sol = colpitts_nominal
    system = CircuitDae(colpitts.realize_nominal(), sol.period_scale)
    traj = integrate(system, sol.y, 0.0, 0.0, n_steps=1)
    M, S = transition_chain(system, traj, with_scale_columns=True)
    assert np.array_equal(M, np.eye(colpitts.n)) and np.array_equal(S, np.zeros((colpitts.n, 1)))


def test_csv_export(tmp_path):
    traj = integrate(ScalarDecay(), np.array([1.0]), 0.0, 0.1, TRAPEZOIDAL, n_steps=4)
    path = cli._write_trajectory(cli.Reporter(tmp_path), "traj.csv", ["w"], traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,w"
    assert len(lines) == 6
    t, w = map(float, lines[-1].split(","))
    assert t == pytest.approx(0.1) and w == pytest.approx(traj.end[0])


class Explodes(Dae):
    def linearize(self, w, t):
        return w

    def terms(self, w, t=None):
        eye = np.broadcast_to(np.eye(1), w.shape + (1,)).copy()
        return w.copy(), np.full_like(w, np.nan), eye, eye


def test_a_lone_run_failing_at_the_floor_is_flagged():
    """One circuit's run is flagged like a batch sample, not raised: it
    freezes where the failing grid step began and keeps the grid."""
    traj = integrate(Explodes(), np.array([1.0]), 0.0, 1.0, n_steps=4)
    assert traj.failed.shape == traj.fail_times.shape == ()
    assert traj.failed and traj.fail_times == 0.0
    assert traj.n_points == 5 and np.all(traj.states == 1.0)


def test_batch_member_matches_solo_run_through_bisection(lna_perturbed):
    """A step one member cannot take whole is bisected for the whole batch:
    no member is flagged, each ends where it ends alone to discretization
    accuracy, and a member whose solo run takes the batch grid matches it."""
    system, w0 = lna_perturbed
    starts = system.node_states(w0)
    batch = integrate(
        system.node_dae(), starts, 0.0, system.horizon, n_steps=200, stabilized_start=True
    )
    assert batch.n_points > 201  # the batch bisected
    assert not batch.failed.any()
    on_batch_grid = 0
    for k in range(system.K):
        solo = integrate(
            CircuitDae(system.circuit.realize(system.testing.nodes[k])),
            starts[k], 0.0, system.horizon, n_steps=200, stabilized_start=True,
        )
        assert np.abs(batch.end[k] - solo.end).max() < 1e-6
        if np.array_equal(solo.times, batch.times):
            on_batch_grid += 1
            assert np.abs(batch.states[:, k] - solo.states).max() < 1e-12
    assert on_batch_grid >= 1


def test_batch_freezes_only_samples_failing_at_the_floor():
    """The sample that fails at the floor is frozen and the step taken again
    for the rest, so the batch keeps the grid the sound sample takes alone."""
    c = parse_netlist(SHORTED_AT_A_NODE)
    xi = np.array([[-1.0], [1.0]])  # a shorted resistor, a sound one
    with np.errstate(divide="ignore", invalid="ignore"):
        traj = integrate(CircuitDae(c.realize(xi)), np.zeros((2, c.n)), 0.0, 1e-3, n_steps=64)
    assert traj.failed.tolist() == [True, False]
    assert traj.fail_times[0] == 0.0 and np.isnan(traj.fail_times[1])
    assert np.array_equal(traj.end[0], np.zeros(c.n))  # frozen where it failed
    solo = integrate(CircuitDae(c.realize(xi[1])), np.zeros(c.n), 0.0, 1e-3, n_steps=64)
    assert np.array_equal(traj.times, solo.times) and traj.n_points == 65
    assert np.abs(traj.states[:, 1] - solo.states).max() < 1e-12


def test_a_run_holds_one_copy_of_its_trajectory():
    """A 500-sample rectifier batch writes its states into one buffer: the
    run leaves nothing for the collector to free, keeps no more than its
    trajectory once it returns, and never holds a second copy of it."""
    c = parse_netlist(RECTIFIER)
    xi = np.random.default_rng(0).uniform(-1.0, 1.0, (500, c.dim))
    system, w0 = CircuitDae(c.realize(xi)), np.zeros((500, c.n))
    integrate(system, w0, 0.0, 1e-3, n_steps=200)  # first-call allocations
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        traj = integrate(system, w0, 0.0, 1e-3, n_steps=200)
        end, peak = tracemalloc.get_traced_memory()
        unreachable = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    size = traj.states.nbytes
    assert unreachable == 0
    assert end - start <= size + 2**20
    assert peak - start < 1.5 * size


def test_a_run_of_some_rows_is_written_into_the_batch_run(rc_circuit):
    """A run of some batch rows on the batch's grid is written into those
    rows in place and equals them bit for bit; a run on another grid is
    refused; written into a blank buffer of the batch (grown here past its
    three points) and spread to it, a run leaves the other rows NaN and
    failed from its start, on that buffer."""
    xi = np.array([[-0.7], [0.2], [1.0]])
    w0 = np.full((3, rc_circuit.n), 0.1)
    whole = integrate(CircuitDae(rc_circuit.realize(xi)), w0, 0.0, 1e-3, n_steps=16)
    rows = np.array([0, 2])
    part = integrate(CircuitDae(rc_circuit.realize(xi[rows])), w0[rows], 0.0, 1e-3, n_steps=16)
    assert np.array_equal(part.states, whole.states[:, rows])
    kept = whole.states[:, 1].copy()
    whole.states[:, rows] = 0.0
    assert whole.put(rows, part)
    assert np.array_equal(whole.states[:, rows], part.states)
    assert np.array_equal(whole.states[:, 1], kept) and not whole.failed.any()
    finer = integrate(CircuitDae(rc_circuit.realize(xi[rows])), w0[rows], 0.0, 1e-3, n_steps=17)
    assert not whole.put(rows, finer)
    assert np.array_equal(whole.states[:, rows], part.states)
    blank = Trajectory(None, np.full((3, 3, rc_circuit.n), np.nan), None, rows=rows)
    dae = CircuitDae(rc_circuit.realize(xi[rows]))
    spread = integrate(dae, w0[rows], 0.0, 1e-3, n_steps=16, into=blank).spread(rows, 3)
    assert spread.states is blank.states and spread.states.shape == (17, 3, rc_circuit.n)
    assert np.array_equal(spread.times, part.times)
    assert np.array_equal(spread.states[:, rows], part.states)
    assert np.isnan(spread.states[:, 1]).all()
    assert spread.failed.tolist() == [False, True, False]
    assert spread.fail_times[1] == 0.0 and np.isnan(spread.fail_times[rows]).all()


@pytest.mark.parametrize("rows", [np.array([0, 2]), ...])
def test_a_run_into_live_rows_writes_them_until_it_leaves_their_grid(rc_circuit, rows):
    """A run given rows of a live run on its grid overwrites them in place
    and shares the live buffer, bit for bit the run on a buffer of its own,
    the other rows untouched, and the chain reads them as it reads that
    run; a run off the live grid goes on in a buffer of its own."""
    xi = np.array([[-0.7], [0.2], [1.0]])
    w0 = np.full((3, rc_circuit.n), 0.1)
    live = integrate(CircuitDae(rc_circuit.realize(xi)), w0, 0.0, 1e-3, n_steps=16)
    sub, start = CircuitDae(rc_circuit.realize(xi[rows])), 0.5 * w0[rows]
    own = integrate(sub, start, 0.0, 1e-3, n_steps=16)
    kept = live.states[:, 1].copy()
    part = integrate(sub, start, 0.0, 1e-3, n_steps=16, into=live.take(rows))
    assert part.states is live.states and live.put(rows, part)
    assert np.array_equal(live.states[:, rows], own.states) and np.array_equal(part.end, own.end)
    if rows is not Ellipsis:
        assert np.array_equal(live.states[:, 1], kept)
    assert np.array_equal(transition_chain(sub, live.take(rows))[0], transition_chain(sub, own)[0])
    finer = integrate(sub, start, 0.0, 1e-3, n_steps=17, into=live.take(rows))
    alone = integrate(sub, start, 0.0, 1e-3, n_steps=17)
    assert finer.states is not live.states and finer.states.flags.owndata
    assert np.array_equal(finer.times, alone.times) and np.array_equal(finer.states, alone.states)
    assert not live.put(rows, finer)


class Quirks(Dae):
    """Four samples of Q = C w, F = G w - s(t) with their own C and G: a
    plain decay, a source with an infinite entry (a non-finite residual), a
    step matrix with a subnormal pivot (one infinite step entry) and a zero
    step matrix (a singular step, all NaN). Its linearization is (w, t), so
    ``terms`` at a new time evaluates the source there, as the circuit
    adapter's does."""

    C = np.array([np.eye(2), np.eye(2), np.diag([0.0, 1.0]), np.zeros((2, 2))])
    G = np.array([np.eye(2), np.eye(2), np.diag([1e-319, 0.0]), np.zeros((2, 2))])
    s0 = np.array([[0.0, 0.0], [np.inf, 1.0], [1.0, 1.0], [1.0, 1.0]])

    def linearize(self, w, t):
        return w, t

    def terms(self, lin, t=None):
        w, t = lin[0], lin[1] if t is None else t
        q = (self.C @ w[..., None])[..., 0]
        f = (self.G @ w[..., None])[..., 0] - self.s0 * (1.0 + t)
        return q, f, self.C.copy(), self.G.copy()


def _plain_newton_step(system, w, t_prev, h, scheme, tol, ignore):
    """The step Newton's rules written out: every iterate evaluated afresh,
    the residual cleaned and the converged samples' step zeroed at every
    iteration, finiteness and norms reduced along the state axis."""
    g1, g2 = scheme.gamma1, scheme.gamma2
    q_prev, f_prev = system.eval(w, t_prev)
    ref = np.max(np.abs(q_prev), axis=-1) + abs(h) * np.max(np.abs(f_prev), axis=-1)
    converged = ignore.copy()
    for _ in range(STEP_MAX_ITER):
        q, f, dq, df = system.eval_with_jac(w, t_prev + h)
        r = q - q_prev + h * (g1 * f + g2 * f_prev)
        r = np.where(np.isfinite(r), r, 1e300)
        delta = batched_solve(dq + (g1 * h) * df, r[..., None])[..., 0]
        finite = np.isfinite(delta)
        bad = ~np.all(finite, axis=-1)
        delta = np.where(finite, delta, 0.0)
        w = w - np.where(converged[..., None], 0.0, delta)
        small_r = np.max(np.abs(r), axis=-1) <= tol * (1.0 + ref)
        small_u = np.max(np.abs(delta), axis=-1) <= tol * (1.0 + np.max(np.abs(w), axis=-1))
        converged = ignore | ((converged | (small_r & small_u)) & ~bad)
        if np.all(converged | bad):
            break
    return w, converged


@pytest.mark.parametrize("scheme, at_rest", [
    pytest.param(BACKWARD_EULER, False, id="scheme0"),
    pytest.param(TRAPEZOIDAL, False, id="scheme1"),
    pytest.param(BACKWARD_EULER, True, id="at-rest-and-ignored-scheme0"),
    pytest.param(TRAPEZOIDAL, True, id="at-rest-and-ignored-scheme1"),
])
def test_step_newton_bookkeeping_of_non_finite_samples(scheme, at_rest):
    """A sample with a non-finite residual, one with a partly non-finite
    step and one with a singular step end with the converged mask and the
    iterates the plain rules give, next to a sample that converges: after
    one Newton move, or (at rest) at its first iterate while a sample
    flagged in ``ignore`` stays put."""
    system = Quirks()
    w0 = np.array([[1.0, -2.0], [0.5, 0.5], [2.0, 3.0], [1.0, 1.0]])
    ignore = np.zeros(4, bool)
    if at_rest:
        w0[0] = 0.0  # no source: the first iterate already solves the step
        ignore[2] = True
    opts = NewtonOptions()
    with np.errstate(all="ignore"):
        w, (q, f, lin), converged = _newton_step(
            system, w0, 0.25, 0.1, scheme, opts, _evaluate(system, w0, 0.25), ignore
        )
        w_ref, converged_ref = _plain_newton_step(system, w0, 0.25, 0.1, scheme, opts.tol, ignore)
        q_ref, f_ref = system.eval(w_ref, 0.35)
    assert converged.tolist() == converged_ref.tolist() == [True, False, bool(ignore[2]), False]
    assert np.array_equal(w, w_ref, equal_nan=True)
    assert np.array_equal(q, q_ref, equal_nan=True) and np.array_equal(f, f_ref, equal_nan=True)
    assert lin[0] is w and lin[1] == 0.25 + 0.1  # the linearization at the new state
    assert np.array_equal(w[3], w0[3])  # a singular step moves nothing
    if ignore[2]:
        assert np.array_equal(w[[0, 2]], w0[[0, 2]])  # at rest, and ignored
    else:
        assert w[2, 0] == w0[2, 0] and w[2, 1] != w0[2, 1]  # only the finite entry moves


@pytest.fixture
def lapack_calls(monkeypatch):
    """Batch sizes of the LAPACK calls ``batched_solve`` makes, in order."""
    calls = []
    lapack = transient._lapack_solve

    def spy(J, R):
        calls.append(J.shape[0] if J.ndim == 3 else None)
        return lapack(J, R)

    monkeypatch.setattr(transient, "_lapack_solve", spy)
    return calls


def _random_draws(circuit, count, seed=0):
    return circuit.realize(draw_standardized([family_for(s) for _, s in circuit.random_params], seed, count))


@pytest.fixture(scope="module")
def rectifier_steps(rectifier):
    """Trapezoidal step matrices dq + h/2 df of 2 ``SHARED_ORDER_BLOCK`` + 1
    rectifier samples (three blocks) at ten points of the nominal orbit,
    diode on and off."""
    count = 2 * SHARED_ORDER_BLOCK + 1
    nominal = solve_nominal(rectifier, n_steps=200)
    system, h = CircuitDae(_random_draws(rectifier, count)), nominal.period / 200
    out = []
    for k in range(0, 200, 20):
        w = np.broadcast_to(nominal.trajectory.states[k], (count, rectifier.n))
        _, _, dq, df = system.eval_with_jac(w, nominal.trajectory.times[k])
        out.append(dq + 0.5 * h * df)
    return np.array(out)


@pytest.fixture(scope="module")
def colpitts_jacobians(colpitts, colpitts_nominal):
    """Bordered shooting Jacobians of ``SHARED_ORDER_MIN_BATCH`` Colpitts
    samples at the nominal orbit; the phase row has a zero diagonal."""
    est, phase, sol = colpitts_nominal
    B = SHARED_ORDER_MIN_BATCH
    system = CircuitDae(_random_draws(colpitts, B), np.full(B, float(sol.period_scale)))
    y = np.broadcast_to(sol.y, (B, colpitts.n))
    traj = integrate(system, y, 0.0, est.period, n_steps=300, stabilized_start=True)
    return shooting_jacobian(system, traj, [phase.index])


def _normwise_error(X, Y):
    return np.linalg.norm(X - Y, axis=(-2, -1)) / np.linalg.norm(Y, axis=(-2, -1))


def test_shared_order_solve_of_rectifier_step_matrices(rectifier_steps, lapack_calls):
    """Above the crossover batches of real step matrices, one block and
    three, are eliminated in a shared row order, none falling back, each
    sample within 1e-12 of LAPACK's solution of it alone."""
    R = np.random.default_rng(3).standard_normal(rectifier_steps.shape[1:-1] + (2,))
    for J in rectifier_steps:
        for B in (SHARED_ORDER_MIN_BATCH, len(J)):
            X = batched_solve(J[:B], R[:B])
            Y = np.array([np.linalg.solve(a, b) for a, b in zip(J[:B], R[:B])])
            assert X.shape == R[:B].shape and X.flags.c_contiguous
            assert _normwise_error(X, Y).max() <= 1e-12
    assert lapack_calls == []


def test_shared_order_solve_of_bordered_oscillator_jacobians(colpitts_jacobians, lapack_calls):
    """Bordered Colpitts shooting Jacobians, whose phase row has a zero
    diagonal, are solved within 1e-12 of LAPACK sample by sample; the few
    samples whose pivots fail the threshold test under the shared order are
    solved again by LAPACK in one call."""
    J = colpitts_jacobians
    B, m = J.shape[:2]
    assert np.all(J[:, -1, -1] == 0)
    R = np.random.default_rng(4).standard_normal((B, m, 1))
    X = batched_solve(J, R)
    Y = np.array([np.linalg.solve(a, b) for a, b in zip(J, R)])
    assert _normwise_error(X, Y).max() <= 1e-12
    assert len(lapack_calls) <= 1 and sum(lapack_calls) < B // 100


def test_a_sample_failing_the_threshold_test_is_solved_by_lapack(rectifier_steps, lapack_calls):
    """A sample whose first column has its two largest rows swapped against
    sample 0's gets a multiplier above 10 under sample 0's order; it alone
    is solved again, bit-equal to LAPACK on that sample."""
    J = rectifier_steps[0, :SHARED_ORDER_MIN_BATCH].copy()
    R = np.random.default_rng(5).standard_normal(J.shape[:-1] + (1,))
    i, j = np.argsort(np.abs(J[0, :, 0]))[::-1][:2]
    assert np.abs(J[0, i, 0]) > 10 * np.abs(J[0, j, 0])
    J[17, [i, j]] = J[17, [j, i]]
    X = batched_solve(J, R)
    assert lapack_calls == [1]
    assert np.array_equal(X[17], np.linalg.solve(J[17], R[17]))
    assert _normwise_error(X, np.linalg.solve(J, R)).max() <= 1e-12


@pytest.mark.parametrize("batch", [SHARED_ORDER_MIN_BATCH + 1, 2 * SHARED_ORDER_BLOCK + 1])
def test_shared_order_gives_nan_for_singular_and_non_finite_samples(rectifier_steps, lapack_calls, batch):
    """A NaN matrix (the first sample: the order comes from the next one)
    and a singular one, in the first and the last block, give NaN rows;
    the others keep the values they have in the batch with those two
    replaced by sound matrices, sample 0 by a copy of sample 1."""
    J = rectifier_steps[3, :batch].copy()
    R = np.random.default_rng(6).standard_normal(J.shape[:-1] + (1,))
    bad = [0, batch - 2]
    J[0] = J[1]
    clean = batched_solve(J, R)
    J[0, 2, 1] = np.nan
    J[batch - 2, 1] = 0.0
    X = batched_solve(J, R)
    assert lapack_calls == ([2] if batch <= SHARED_ORDER_BLOCK else [1, 1])
    assert np.isnan(X[0]).any() and np.isnan(X[batch - 2]).all()
    keep = np.ones(batch, dtype=bool)
    keep[bad] = False
    assert np.array_equal(X[keep], clean[keep])


@pytest.mark.parametrize("shape", [
    (35, 12, 12), (6, 7, 7), (10, 4, 4), (4, 4),
    (SHARED_ORDER_MIN_BATCH - 1, 4, 4),
    (SHARED_ORDER_MIN_BATCH, SHARED_ORDER_MAX_ORDER + 1, SHARED_ORDER_MAX_ORDER + 1),
])
def test_below_the_crossover_the_solve_is_lapack_bit_for_bit(shape, lapack_calls):
    """Node batches, single circuits and batches just below the crossover
    in size or above it in order keep LAPACK's bits."""
    rng = np.random.default_rng(7)
    m = shape[-1]
    J = rng.standard_normal(shape) + m * np.eye(m)
    R = rng.standard_normal(shape[:-1] + (3,))
    assert np.array_equal(batched_solve(J, R), np.linalg.solve(J, R))
    assert len(lapack_calls) == 1


def _numpy_pivot_rows(a):
    """The numpy form of ``_pivot_rows`` that the Python-float one replaced:
    its reference."""
    a = a.copy()
    swaps = []
    with np.errstate(all="ignore"):
        for p in range(a.shape[0] - 1):
            i = p + int(np.argmax(np.abs(a[p:, p])))
            a[[p, i]] = a[[i, p]]
            swaps.append(i)
            if a[p, p] != 0:
                a[p + 1 :] -= np.outer(a[p + 1 :, p] / a[p, p], a[p])
    return swaps


@pytest.mark.parametrize("m", range(1, 8))
def test_pivot_rows_match_numpys_on_random_matrices(m):
    """Normal entries, and small integers, which tie column maxima and
    zero whole columns."""
    rng = np.random.default_rng(m)
    for a in (*rng.standard_normal((300, m, m)), *rng.integers(-2, 3, (300, m, m)).astype(float)):
        assert transient._pivot_rows(a) == _numpy_pivot_rows(a)


@pytest.mark.parametrize("a, swaps", [
    ([[1.0, 2.0], [-1.0, 3.0]], [0]),  # tied column maximum: the first wins
    ([[0.5, 1.0, 0.0], [-2.0, 0.0, 1.0], [2.0, 1.0, 1.0]], [1, 1]),  # ties before and after a step
    ([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]], [0, 2]),  # zero pivot column
    # finite, but the elimination overflows: step 2's column reads (-inf,
    # NaN), and the pivot is the NaN's row, as np.argmax picks it
    ([[1.0, 0.0, -1e308, 0.0], [1.0, 2.0, 1e308, 0.0],
      [1.0, 1.0, -1e308, 0.0], [1.0, 0.0, -1e308, 1.0]], [0, 1, 3]),
])
def test_pivot_rows_of_ties_zero_columns_and_overflow(a, swaps):
    a = np.array(a)
    assert np.isfinite(a).all()
    assert transient._pivot_rows(a) == _numpy_pivot_rows(a) == swaps


def test_pivot_rows_match_numpys_on_step_matrices(rectifier_steps, colpitts, colpitts_nominal):
    """Rectifier and Colpitts trapezoidal step matrices along the nominal orbit."""
    _, _, sol = colpitts_nominal
    system = CircuitDae(_random_draws(colpitts, 200), np.full(200, float(sol.period_scale)))
    traj = sol.trajectory
    colpitts_steps = []
    for k in range(0, traj.n_points, 30):
        _, _, dq, df = system.eval_with_jac(np.broadcast_to(traj.states[k], (200, colpitts.n)), traj.times[k])
        colpitts_steps.append(dq + 0.5 * (traj.times[1] - traj.times[0]) * df)
    for steps in (rectifier_steps[:, ::41], colpitts_steps):
        for a in np.reshape(steps, (-1,) + np.shape(steps)[-2:]):
            assert transient._pivot_rows(a) == _numpy_pivot_rows(a)
