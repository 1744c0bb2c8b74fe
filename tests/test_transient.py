"""Implicit integrator: step values, accuracy orders, grids, chains."""

import numpy as np
import pytest

from pssuq import cli, parse_netlist
from pssuq.circuit import dc_operating_point
from pssuq.gpc import build_basis, select_testing_nodes, tensor_rule
from pssuq.shooting import CircuitDae
from pssuq.stpss import assemble_forced
from pssuq.transient import (
    BACKWARD_EULER,
    STEP_MAX_ITER,
    ConvergenceError,
    NewtonOptions,
    TRAPEZOIDAL,
    _evaluate,
    _newton_step,
    batched_solve,
    integrate,
    scheme_by_name,
    transition_chain,
)

from conftest import SHORTED_AT_A_NODE, nominal_start


class ScalarDecay:
    """Q = w, F = w: the unit linear decay dw/dt = -w."""

    def eval(self, w, t):
        return w.copy(), w.copy()

    def eval_with_jac(self, w, t):
        eye = np.broadcast_to(np.eye(1), w.shape + (1,)).copy()
        return w.copy(), w.copy(), eye, eye


class ConstantCharge:
    """F = 0: the state must not move."""

    def eval(self, w, t):
        return w.copy(), np.zeros_like(w)

    def eval_with_jac(self, w, t):
        q, f = self.eval(w, t)
        eye = np.broadcast_to(np.eye(2), w.shape + (2,)).copy()
        return q, f, eye, np.zeros_like(eye)


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
        system, y, horizon, scaled = stacked.node_dae(), stacked.node_states(guess), stacked.period, False
    else:
        rect = request.getfixturevalue("rectifier")
        basis = build_basis([s for _, s in rect.random_params], 2)
        system = assemble_forced(rect, basis, select_testing_nodes(basis, tensor_rule(basis, 3)))
        y, horizon, scaled = nominal_start(system).ravel(), system.period, False
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


class Explodes:
    def eval(self, w, t):
        return w.copy(), np.full_like(w, np.nan)

    def eval_with_jac(self, w, t):
        q, f = self.eval(w, t)
        eye = np.broadcast_to(np.eye(1), w.shape + (1,)).copy()
        return q, f, eye, eye


def test_nonfinite_residual_raises():
    with pytest.raises(ConvergenceError):
        integrate(Explodes(), np.array([1.0]), 0.0, 1.0, n_steps=4)


def test_batch_member_matches_solo_run_through_bisection(lna_perturbed):
    """A step one member cannot take whole is bisected for the whole batch:
    no member is flagged, each ends where it ends alone to discretization
    accuracy, and a member whose solo run takes the batch grid matches it."""
    system, w0 = lna_perturbed
    starts = system.node_states(w0)
    batch = integrate(
        system.node_dae(), starts, 0.0, system.period, n_steps=200, stabilized_start=True
    )
    assert batch.n_points > 201  # the batch bisected
    assert not batch.failed.any()
    on_batch_grid = 0
    for k in range(system.K):
        solo = integrate(
            CircuitDae(system.circuit.realize(system.testing.nodes[k])),
            starts[k], 0.0, system.period, n_steps=200, stabilized_start=True,
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


def test_a_run_of_some_rows_is_written_into_the_batch_run(rc_circuit):
    """A run of some batch rows on the batch's grid is written into those
    rows in place and equals them bit for bit; a run on another grid is
    refused; spread to the batch, a run leaves the other rows NaN and
    failed from its start."""
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
    spread = part.spread(rows, 3)
    assert np.array_equal(spread.times, part.times)
    assert np.array_equal(spread.states[:, rows], part.states)
    assert np.isnan(spread.states[:, 1]).all()
    assert spread.failed.tolist() == [False, True, False]
    assert spread.fail_times[1] == 0.0 and np.isnan(spread.fail_times[rows]).all()


class Quirks:
    """Four samples of Q = C w, F = G w - s(t) with their own C and G: a
    plain decay, a source with an infinite entry (a non-finite residual), a
    step matrix with a subnormal pivot (one infinite step entry) and a zero
    step matrix (a singular step, all NaN). With ``carry`` it offers the
    linearization the circuit adapter offers."""

    C = np.array([np.eye(2), np.eye(2), np.diag([0.0, 1.0]), np.zeros((2, 2))])
    G = np.array([np.eye(2), np.eye(2), np.diag([1e-319, 0.0]), np.zeros((2, 2))])
    s0 = np.array([[0.0, 0.0], [np.inf, 1.0], [1.0, 1.0], [1.0, 1.0]])

    def __init__(self, carry):
        if carry:
            self.linearize = lambda w, t: (w, t)
            self.terms = lambda lin, t=None: self.eval_with_jac(lin[0], lin[1] if t is None else t)

    def eval(self, w, t):
        return self.eval_with_jac(w, t)[:2]

    def eval_with_jac(self, w, t):
        q = (self.C @ w[..., None])[..., 0]
        f = (self.G @ w[..., None])[..., 0] - self.s0 * (1.0 + t)
        return q, f, self.C.copy(), self.G.copy()


def _plain_newton_step(system, w, t_prev, h, scheme, tol):
    """The step Newton's rules written out: every iterate evaluated afresh,
    finiteness and norms reduced along the state axis."""
    g1, g2 = scheme.gamma1, scheme.gamma2
    q_prev, f_prev = system.eval(w, t_prev)
    ref = np.max(np.abs(q_prev), axis=-1) + abs(h) * np.max(np.abs(f_prev), axis=-1)
    converged = np.zeros(w.shape[:-1], dtype=bool)
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
        converged = (converged | (small_r & small_u)) & ~bad
        if np.all(converged | bad):
            break
    return w, converged


@pytest.mark.parametrize("carry", [False, True])
@pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
def test_step_newton_bookkeeping_of_non_finite_samples(carry, scheme):
    """A sample with a non-finite residual, one with a partly non-finite
    step and one with a singular step end with the converged mask and the
    iterates the plain rules give, next to a sample that converges."""
    system = Quirks(carry)
    w0 = np.array([[1.0, -2.0], [0.5, 0.5], [2.0, 3.0], [1.0, 1.0]])
    opts = NewtonOptions()
    with np.errstate(all="ignore"):
        w, (q, f, lin), converged = _newton_step(
            system, w0, 0.25, 0.1, scheme, opts, _evaluate(system, w0, 0.25), np.zeros(4, bool)
        )
        w_ref, converged_ref = _plain_newton_step(system, w0, 0.25, 0.1, scheme, opts.tol)
        q_ref, f_ref = system.eval(w_ref, 0.35)
    assert converged.tolist() == converged_ref.tolist() == [True, False, False, False]
    assert np.array_equal(w, w_ref, equal_nan=True)
    assert np.array_equal(q, q_ref, equal_nan=True) and np.array_equal(f, f_ref, equal_nan=True)
    assert (lin is None) != carry
    assert np.array_equal(w[3], w0[3])  # a singular step moves nothing
    assert w[2, 0] == w0[2, 0] and w[2, 1] != w0[2, 1]  # only the finite entry moves