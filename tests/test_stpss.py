"""Stacked collocation systems and the intrusive stochastic solvers."""

import numpy as np
import pytest

from pssuq import parse_netlist
from pssuq.cli import synthetic_ladder
from pssuq.gpc import build_basis, gauss_rule, moments, select_testing_nodes, tensor_rule
from pssuq.circuit import CircuitInstance, dc_operating_point
from pssuq.shooting import (
    CircuitDae,
    OscillationError,
    PhaseCondition,
    linearized_period_scales,
    nominal_start as start_of,
    solve_autonomous,
    solve_forced,
    solve_nominal,
)
from pssuq.stpss import (
    assemble_autonomous,
    assemble_forced,
    nominal_guess,
    shoot_autonomous,
    shoot_forced,
    solve_st,
)
from pssuq.transient import (
    BACKWARD_EULER,
    ConvergenceError,
    Dae,
    TRAPEZOIDAL,
    Trajectory,
    integrate,
    transition_chain,
)

from conftest import SHORTED_AT_A_NODE, nominal_start, period_map


def _setup(circuit, order):
    basis = build_basis([s for _, s in circuit.random_params], order)
    testing = select_testing_nodes(basis, tensor_rule(basis, order + 1))
    return basis, testing


# -- the testing-node identity ---------------------------------------------------


def test_decoupled_forced_solve_is_the_batch_at_the_testing_nodes(rectifier):
    """V maps the stochastic shooting onto the K deterministic problems at
    the testing nodes: the batched solve from V @ guess, mapped back by
    V^{-1}, is the decoupled solve."""
    tol = 1e-10
    basis, testing = _setup(rectifier, 3)
    sys = assemble_forced(rectifier, basis, testing)
    guess = nominal_guess(sys, solve_nominal(rectifier, tol=tol))
    sol = shoot_forced(sys, guess, tol=tol)
    batch = solve_forced(
        rectifier.realize(testing.nodes), sys.period, y0=testing.vandermonde @ guess, tol=tol
    )
    blocks = sol.coeffs.blocks
    assert np.abs(testing.v_inv @ batch.y - blocks).max() <= 1e-12 * np.abs(blocks).max()
    assert batch.iterations == sol.iterations


def test_decoupled_autonomous_solve_is_the_batch_at_the_testing_nodes(vdp_random, vdp_nominal):
    tol = 1e-10
    _, phase, det = vdp_nominal
    basis, testing = _setup(vdp_random, 2)
    T0 = float(det.period)
    sys = assemble_autonomous(vdp_random, basis, testing, T0)
    guess = nominal_guess(sys, det)
    sol = shoot_autonomous(sys, phase, guess, np.eye(basis.size)[0], tol=tol, n_steps=300)
    batch = solve_autonomous(
        vdp_random.realize(testing.nodes), phase, T0, testing.vandermonde @ guess,
        tol=tol, n_steps=300,
    )
    blocks = sol.coeffs.blocks
    assert np.abs(testing.v_inv @ batch.y - blocks).max() <= 1e-12 * np.abs(blocks).max()
    scale = testing.v_inv @ batch.period_scale
    assert np.abs(scale - sol.scale_coeffs.blocks).max() <= 1e-12
    assert batch.iterations == sol.iterations


# -- stacked system assembly ---------------------------------------------------


def test_stacked_equals_deterministic_for_k1(rc_circuit):
    basis, testing = _setup(rc_circuit, 0)
    sys = assemble_forced(rc_circuit, basis, testing)
    inst = rc_circuit.realize(testing.nodes[0])
    rng = np.random.default_rng(2)
    w = rng.normal(size=rc_circuit.n)
    q, F = sys.eval(w, 3e-4)
    ev = inst.eval_dae(w, 3e-4)
    assert np.allclose(q, ev.q) and np.allclose(F, ev.f - ev.bu)


def test_stacked_residual_is_per_node_residual(rc_circuit):
    """Block k of the stacked DAE residual is the deterministic residual at
    node k with the surrogate state, for random coefficient vectors."""
    basis, testing = _setup(rc_circuit, 1)
    sys = assemble_forced(rc_circuit, basis, testing)
    rng = np.random.default_rng(3)
    n, K = rc_circuit.n, basis.size
    for _ in range(100):
        w = rng.normal(size=n * K)
        t = rng.uniform(0, 1e-3)
        q, F = sys.eval(w, t)
        states = testing.vandermonde @ w.reshape(K, n)
        for k in range(K):
            ev = rc_circuit.realize(testing.nodes[k]).eval_dae(states[k], t)
            assert np.abs(q.reshape(K, n)[k] - ev.q).max() < 1e-12
            assert np.abs(F.reshape(K, n)[k] - (ev.f - ev.bu)).max() < 1e-12


def test_hand_stacked_rc_d1_p1(rc_circuit):
    """d=1, p=1: V is the 2x2 matrix [[1,-1],[1,1]]; check the assembly."""
    basis, testing = _setup(rc_circuit, 1)
    assert np.allclose(testing.vandermonde, [[1, -1], [1, 1]])
    sys = assemble_forced(rc_circuit, basis, testing)
    rng = np.random.default_rng(4)
    w = rng.normal(size=2 * rc_circuit.n)
    c1, c2 = w[: rc_circuit.n], w[rc_circuit.n :]
    q, F = sys.eval(w, 2e-4)
    for k in range(2):
        x_node = testing.vandermonde[k, 0] * c1 + testing.vandermonde[k, 1] * c2
        ev = rc_circuit.realize(testing.nodes[k]).eval_dae(x_node, 2e-4)
        assert np.allclose(q.reshape(2, -1)[k], ev.q)
        assert np.allclose(F.reshape(2, -1)[k], ev.f - ev.bu)


def test_stacked_jacobian_matches_finite_differences(rectifier):
    basis, testing = _setup(rectifier, 2)
    sys = assemble_forced(rectifier, basis, testing)
    rng = np.random.default_rng(5)
    w = rng.normal(size=sys.ndim) * 0.3
    t = 1e-4
    _, _, dQ, dF = sys.eval_with_jac(w, t)
    for J, pick in ((dQ, 0), (dF, 1)):
        fd = np.empty_like(J)
        for i in range(sys.ndim):
            h = 1e-6
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[:, i] = (sys.eval(wp, t)[pick] - sys.eval(wm, t)[pick]) / (2 * h)
        assert np.abs(J - fd).max() / (np.abs(J).max() + 1e-30) < 1e-6


def test_autonomous_scale_sensitivity_matches_fd(vdp_random):
    basis, testing = _setup(vdp_random, 2)
    sys = assemble_autonomous(vdp_random, basis, testing, 6.28)
    rng = np.random.default_rng(6)
    a_hat = np.array([1.0, 0.05, -0.02])
    sys.scale_coeffs = a_hat
    w = rng.normal(size=sys.ndim)
    P = sys.dF_dscale(w, 0.0)
    fd = np.empty_like(P)
    for j in range(basis.size):
        h = 1e-6
        ap, am = a_hat.copy(), a_hat.copy()
        ap[j] += h
        am[j] -= h
        sys.scale_coeffs = ap
        Fp = sys.eval(w, 0.0)[1]
        sys.scale_coeffs = am
        Fm = sys.eval(w, 0.0)[1]
        fd[:, j] = (Fp - Fm) / (2 * h)
        sys.scale_coeffs = a_hat
    assert np.abs(P - fd).max() / (np.abs(P).max() + 1e-30) < 1e-6


def test_nominal_scaling_gives_independent_systems(vdp_random):
    """With the scaling expansion at [1, 0, ...] every node runs at scale 1."""
    basis, testing = _setup(vdp_random, 2)
    sys = assemble_autonomous(vdp_random, basis, testing, 6.28)
    assert np.allclose(sys.node_scales(), 1.0)


# -- sensitivity recursion ------------------------------------------------------


def test_j12_zero_when_rhs_vanishes(vdp_random):
    """A trajectory resting at the origin has f = 0, so the sensitivity is 0."""
    basis, testing = _setup(vdp_random, 1)
    sys = assemble_autonomous(vdp_random, basis, testing, 1.0)
    traj, _ = period_map(sys, np.zeros(sys.ndim), n_steps=20)
    _, S = transition_chain(sys, traj, with_scale_columns=True)
    assert np.abs(S).max() < 1e-12


class _ScaledConstant(Dae):
    """Q = w, F = -c * a: hand-checkable one-step scaling sensitivity."""

    def __init__(self, c):
        self.c = c

    def linearize(self, w, t):
        return w

    def terms(self, w, t=None):
        return w.copy(), np.full_like(w, 0.0), np.eye(1), np.zeros((1, 1))

    def scale_columns(self, w):
        return np.array([[-self.c]])


@pytest.mark.parametrize("scheme", [BACKWARD_EULER, TRAPEZOIDAL])
def test_one_step_scale_sensitivity_hand_value(scheme):
    """One step of size h: d(endpoint)/d(scale) = h*c*(g1+g2)."""
    c, h = 0.7, 0.01
    sys = _ScaledConstant(c)
    traj = Trajectory(
        np.array([0.0, h]), np.zeros((2, 1)), np.array([[scheme.gamma1, scheme.gamma2]])
    )
    _, S = transition_chain(sys, traj, with_scale_columns=True)
    assert S[0, 0] == pytest.approx(h * c * (scheme.gamma1 + scheme.gamma2), rel=1e-12)


def test_j12_matches_finite_differences_vdp(vdp_random, vdp_nominal):
    est, phase, det = vdp_nominal
    basis, testing = _setup(vdp_random, 1)
    T0 = float(det.period)
    sys = assemble_autonomous(vdp_random, basis, testing, T0)
    a_hat = np.array([1.0, 0.02])
    z0 = np.concatenate([det.y, 0.1 * det.y])

    def endpoint(a):
        sys.scale_coeffs = a
        return period_map(sys, z0, n_steps=200)[0]

    sys.scale_coeffs = a_hat
    traj = endpoint(a_hat)
    _, S = transition_chain(sys, traj, with_scale_columns=True)
    fd = np.empty_like(S)
    for j in range(basis.size):
        h = 1e-6
        ap, am = a_hat.copy(), a_hat.copy()
        ap[j] += h
        am[j] -= h
        fd[:, j] = (endpoint(ap).end - endpoint(am).end) / (2 * h)
    assert np.abs(S - fd).max() / np.abs(fd).max() < 1e-4


def test_stacked_chain_evaluates_each_grid_point_once(vdp_random, vdp_nominal, monkeypatch):
    """The coupled reference's Jacobians and scaling columns at a grid
    point come from one node-batch evaluation."""
    _, _, det = vdp_nominal
    basis, testing = _setup(vdp_random, 1)
    sys = assemble_autonomous(vdp_random, basis, testing, float(det.period))
    sys.scale_coeffs = np.array([1.0, 0.02])
    traj = period_map(sys, np.concatenate([det.y, 0.1 * det.y]), n_steps=100)[0]
    calls = []
    eval_dae = CircuitInstance.eval_dae

    def counted(self, x, t):
        calls.append(t)
        return eval_dae(self, x, t)

    monkeypatch.setattr(CircuitInstance, "eval_dae", counted)
    M, S = transition_chain(sys, traj, with_scale_columns=True)
    assert len(calls) == traj.n_points == 101
    assert np.all(np.isfinite(M)) and np.all(np.isfinite(S))


# -- forced solves ---------------------------------------------------------------


def test_shoot_forced_p0_equals_deterministic(rc_circuit):
    basis, testing = _setup(rc_circuit, 0)
    sys = assemble_forced(rc_circuit, basis, testing)
    sol = shoot_forced(sys, nominal_start(sys), n_steps=200)
    det = solve_forced(rc_circuit.realize(testing.nodes[0]), 1e-3, n_steps=200)
    assert np.abs(sol.coeffs.blocks[0] - det.y).max() < 1e-12


def test_shoot_forced_rc_matches_phasor_quadrature(rc_circuit):
    basis, testing = _setup(rc_circuit, 3)
    sys = assemble_forced(rc_circuit, basis, testing)
    sol = shoot_forced(sys, nominal_start(sys, n_steps=4000), n_steps=4000)
    m = moments(sol.coeffs)
    # quadrature of the closed-form phasor solution over the resistance
    nodes, wts = gauss_rule("legendre", 10)
    w = 2 * np.pi * 1e3
    vals = []
    for xi in nodes:
        R = 1000.0 + 200.0 * xi
        H = 1.0 / (1.0 + 1j * w * R * 1e-6)
        vals.append([0.0, H.imag, -(1 - H).imag / R])
    vals = np.array(vals)
    mean_o = wts @ vals
    std_o = np.sqrt(wts @ (vals - mean_o) ** 2)
    assert np.abs(m.mean - mean_o).max() < 1e-6
    assert np.abs(m.std - std_o).max() < 1e-6


def test_coupled_equals_decoupled_rectifier(rectifier):
    basis, testing = _setup(rectifier, 3)
    assert basis.size == 10
    sys = assemble_forced(rectifier, basis, testing)
    guess = nominal_start(sys)
    sol_d = shoot_forced(sys, guess, mode="decoupled", n_steps=200)
    sol_c = shoot_forced(sys, guess, mode="coupled", n_steps=200)
    assert sol_d.iterations == sol_c.iterations
    scale = np.abs(sol_d.iterates[-1]).max()
    for a, b in zip(sol_d.iterates, sol_c.iterates):
        assert np.abs(a - b).max() / scale < 1e-8


def test_per_node_residuals_reported(rectifier):
    basis, testing = _setup(rectifier, 2)
    sys = assemble_forced(rectifier, basis, testing)
    sol = shoot_forced(sys, nominal_start(sys), n_steps=200)
    assert sol.per_node_residuals.shape == (basis.size,)
    assert np.all(sol.per_node_residuals < 1e-4)


def test_surrogate_reproduces_deterministic_pss(rectifier):
    """At any testing node the surrogate equals the per-node PSS (10x tol)."""
    tol = 1e-5
    basis, testing = _setup(rectifier, 2)
    sys = assemble_forced(rectifier, basis, testing)
    sol = shoot_forced(sys, nominal_start(sys, tol=tol), tol=tol, n_steps=200)
    for k in (0, basis.size - 1):
        xi = testing.nodes[k]
        surro = sol.coeffs.basis.eval(xi) @ sol.coeffs.blocks
        det = solve_forced(rectifier.realize(xi), 1e-3, tol=tol, n_steps=200)
        assert np.abs(surro - det.y).max() < 10 * tol


# -- autonomous solves -------------------------------------------------------------


def test_shoot_autonomous_p0_equals_deterministic(vdp_random, vdp_nominal):
    est, phase, det_nom = vdp_nominal
    basis, testing = _setup(vdp_random, 0)
    T0 = float(det_nom.period)
    sys = assemble_autonomous(vdp_random, basis, testing, T0)
    det = solve_autonomous(
        vdp_random.realize(testing.nodes[0]), phase, T0, det_nom.y, n_steps=400
    )
    guess = det_nom.y[None, :].copy()
    sol = shoot_autonomous(
        sys, phase, guess, np.array([1.0]), n_steps=400, mode="decoupled"
    )
    assert np.abs(sol.coeffs.blocks[0] - det.y).max() < 1e-10
    assert float(sol.scale_coeffs.blocks[0]) == pytest.approx(
        float(det.period_scale), abs=1e-10
    )


def test_coupled_equals_decoupled_autonomous(vdp_random, vdp_nominal):
    est, phase, det = vdp_nominal
    basis, testing = _setup(vdp_random, 2)
    T0 = float(det.period)
    sys = assemble_autonomous(vdp_random, basis, testing, T0)
    guess = np.zeros((basis.size, 2))
    guess[0] = det.y
    scale = np.zeros(basis.size)
    scale[0] = 1.0
    sol_d = shoot_autonomous(sys, phase, guess, scale, mode="decoupled", n_steps=300)
    sol_c = shoot_autonomous(sys, phase, guess, scale, mode="coupled", n_steps=300)
    assert sol_d.iterations == sol_c.iterations
    scale_ref = np.abs(sol_d.iterates[-1]).max()
    for a, b in zip(sol_d.iterates, sol_c.iterates):
        assert np.abs(a - b).max() / scale_ref < 1e-8


def test_autonomous_phase_structure(vdp_random, vdp_nominal):
    """Mean coefficient of the pinned state equals the anchor; others vanish."""
    est, phase, det = vdp_nominal
    basis, testing = _setup(vdp_random, 3)
    sys = assemble_autonomous(vdp_random, basis, testing, float(det.period))
    guess = np.zeros((basis.size, 2))
    guess[0] = det.y
    scale = np.zeros(basis.size)
    scale[0] = 1.0
    sol = shoot_autonomous(sys, phase, guess, scale, n_steps=400)
    tol = 1e-5
    blocks = sol.coeffs.blocks
    assert abs(blocks[0, phase.index] - phase.value) <= tol
    assert np.abs(blocks[1:, phase.index]).max() <= tol
    # the scaling stays positive at every testing node
    assert np.all(testing.vandermonde @ sol.scale_coeffs.blocks > 0)


def test_autonomous_period_matches_quadrature_oracle(vdp_random, vdp_nominal):
    est, phase, det = vdp_nominal
    basis, testing = _setup(vdp_random, 3)
    T0 = float(det.period)
    sys = assemble_autonomous(vdp_random, basis, testing, T0)
    guess = np.zeros((basis.size, 2))
    guess[0] = det.y
    scale = np.zeros(basis.size)
    scale[0] = 1.0
    sol = shoot_autonomous(sys, phase, guess, scale, n_steps=400)
    mean, std = sol.period_moments()
    # 10-point quadrature of the deterministic period map
    nodes, wts = gauss_rule("legendre", 10)
    batch = vdp_random.realize(nodes[:, None])
    det_map = solve_autonomous(batch, phase, T0, det.y, n_steps=400)
    periods = np.asarray(det_map.period)
    mean_o = wts @ periods
    std_o = np.sqrt(wts @ (periods - mean_o) ** 2)
    assert abs(mean - mean_o) / mean_o < 0.002
    assert abs(std - std_o) / std_o < 0.01


def test_stacked_scaling_matches_time_change_per_node():
    """Fixed scaling expansion, linear circuit: the coefficient map over the
    nominal horizon equals per-node unscaled runs over scaled horizons."""
    c = parse_netlist(
        ".param r = uniform(500, 1500)\nI1 0 1 DC 1m\nR1 1 0 {r}\nC1 1 0 1u\n"
    )
    basis, testing = _setup(c, 1)
    T0 = 1e-3
    sys = assemble_autonomous(c, basis, testing, T0)
    a_hat = np.array([1.2, 0.0])  # constant scaling a(xi) = 1.2
    sys.scale_coeffs = a_hat
    w0 = np.array([0.5, 0.25])  # coefficients: mean 0.5, spread 0.25
    traj, _ = period_map(sys, w0, n_steps=400)
    node_end = testing.vandermonde @ traj.end.reshape(2, 1)
    node_start = testing.vandermonde @ w0.reshape(2, 1)
    for k in range(2):
        inst = c.realize(testing.nodes[k])
        end = integrate(
            CircuitDae(inst), node_start[k], 0.0, 1.2 * T0, n_steps=400, stabilized_start=True
        ).end
        assert np.abs(node_end[k] - end).max() < 1e-8


def test_stacked_grid_shared_with_deterministic_runs(rc_circuit):
    """Extracting node k from the coefficient map of a linear circuit
    reproduces a deterministic integration at that node on the same grid."""
    basis, testing = _setup(rc_circuit, 2)
    sys = assemble_forced(rc_circuit, basis, testing)
    K, n = basis.size, rc_circuit.n
    rng = np.random.default_rng(8)
    w0 = rng.normal(size=K * n) * 0.1
    traj, _ = period_map(sys, w0, n_steps=128)
    node_states = np.einsum(
        "ij,pjn->pin", testing.vandermonde, traj.states.reshape(-1, K, n)
    )
    for k in (0, K - 1):
        det = integrate(
            CircuitDae(rc_circuit.realize(testing.nodes[k])),
            node_states[0, k],
            0.0,
            1e-3,
            n_steps=128,
            stabilized_start=True,
        )
        assert np.array_equal(det.times, traj.times)
        assert np.abs(det.states - node_states[:, k]).max() < 1e-8


# -- the node-space forward run --------------------------------------------------


def test_node_batch_recovers_like_the_stacked_run(lna_perturbed):
    """A step one testing node cannot take whole is bisected for the whole
    node batch: no node is flagged, the grid is the one the stacked DAE
    takes, and the end states agree."""
    system, w0 = lna_perturbed
    coeff_traj, node_traj = period_map(system, w0, n_steps=200)
    stacked = integrate(system, w0, 0.0, system.period, n_steps=200, stabilized_start=True)
    assert stacked.n_points > 201  # the stacked run bisected too
    assert not node_traj.failed.any()
    assert np.array_equal(node_traj.times, stacked.times)
    assert np.array_equal(coeff_traj.times, stacked.times)
    assert np.abs(node_traj.end - system.node_states(stacked.end)).max() < 1e-10
    assert np.abs(coeff_traj.end - stacked.end).max() < 1e-10


@pytest.mark.parametrize("mode", ["coupled", "decoupled"])
def test_failing_testing_node_names_its_cause(mode):
    c = parse_netlist(SHORTED_AT_A_NODE)
    basis, testing = _setup(c, 1)
    assert testing.nodes[0, 0] == -1.0
    sys = assemble_forced(c, basis, testing)
    expect = (
        r"testing node 0 \(xi = \[-1\.\]\): implicit step at t=0 did not converge "
        r"at the bisection floor \(non-finite contribution from element R1\)"
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match=expect):
            shoot_forced(sys, nominal_start(sys, n_steps=64), mode=mode, n_steps=64)


@pytest.mark.parametrize("mode", ["coupled", "decoupled"])
def test_stationary_testing_node_is_rejected(colpitts, mode):
    """L1 and C1 do not move the Colpitts DC point, so the DC state in
    block 1 solves every testing node's residual without swinging."""
    basis, testing = _setup(colpitts, 1)
    idx = colpitts.node_state("coll")
    x_dc = dc_operating_point(colpitts.realize_nominal())
    sys = assemble_autonomous(colpitts, basis, testing, 1.6e-8)
    guess = np.zeros((basis.size, colpitts.n))
    guess[0] = x_dc
    scale = np.eye(basis.size)[0]
    with pytest.raises(OscillationError, match=r"testing node 0 \(xi = .*\): stationary orbit"):
        shoot_autonomous(sys, PhaseCondition(idx, x_dc[idx]), guess, scale, mode=mode, n_steps=100)


def _record_solve_orders(monkeypatch):
    """Record (order, right-hand sides) of every np.linalg.solve call."""
    calls = []
    solve = np.linalg.solve

    def recording(a, b):
        calls.append((a.shape[-1], b.shape[-1]))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return calls


@pytest.mark.parametrize("mode", ["coupled", "decoupled"])
def test_forced_solve_sizes(rectifier, monkeypatch, mode):
    """Decoupled: no solve beyond the circuit size n. Coupled: the forward
    runs stay node-sized and each Newton iteration solves one n*K system."""
    basis, testing = _setup(rectifier, 2)
    sys = assemble_forced(rectifier, basis, testing)
    guess = nominal_guess(sys, solve_nominal(rectifier, n_steps=100))
    calls = _record_solve_orders(monkeypatch)
    sol = shoot_forced(sys, guess, mode=mode, n_steps=100)
    assert sol.iterations >= 1
    orders = {order for order, _ in calls}
    if mode == "decoupled":
        assert max(orders) <= sys.n
    else:
        assert orders == {sys.n, sys.ndim}
        assert sum(1 for call in calls if call == (sys.ndim, 1)) == sol.iterations


@pytest.mark.parametrize("mode", ["coupled", "decoupled"])
def test_autonomous_solve_sizes(vdp_random, vdp_nominal, monkeypatch, mode):
    """Decoupled: no solve beyond the bordered n+1. Coupled: each Newton
    iteration solves one n*K + K system."""
    est, phase, det = vdp_nominal
    basis, testing = _setup(vdp_random, 2)
    sys = assemble_autonomous(vdp_random, basis, testing, float(det.period))
    guess = np.zeros((basis.size, 2))
    guess[0] = det.y
    scale = np.zeros(basis.size)
    scale[0] = 1.0
    calls = _record_solve_orders(monkeypatch)
    sol = shoot_autonomous(sys, phase, guess, scale, mode=mode, n_steps=200)
    assert sol.iterations >= 1
    orders = [order for order, _ in calls]
    if mode == "decoupled":
        assert max(orders) <= sys.n + 1
    else:
        assert max(orders) == sys.ndim + sys.K
        assert orders.count(sys.ndim + sys.K) == sol.iterations


def test_decoupled_solve_scales_to_a_100_state_ladder():
    """n = 100, K = 35: the stacked DAE would be 3500 states wide."""
    tol = 1e-5
    circuit = synthetic_ladder(100, 4)
    basis, testing = _setup(circuit, 3)
    assert (circuit.n, basis.size) == (100, 35)
    sys = assemble_forced(circuit, basis, testing, period=1e-3)
    sol = shoot_forced(sys, nominal_start(sys, tol=tol, n_steps=40), tol=tol, n_steps=40)
    assert sol.converged and sol.residual_norm <= tol
    xi = testing.nodes[-1]
    surro = sol.coeffs.basis.eval(xi) @ sol.coeffs.blocks
    det = solve_forced(circuit.realize(xi), 1e-3, tol=tol, n_steps=40)
    assert np.abs(surro - det.y).max() < tol


# -- the chaos solve from a start ---------------------------------------------------


def _assert_same_solve(system, sol, ref_system, ref):
    assert (system.kind, system.ndim) == (ref_system.kind, ref_system.ndim)
    assert np.array_equal(system.testing.nodes, ref_system.testing.nodes)
    assert (sol.mode, sol.iterations) == (ref.mode, ref.iterations)
    assert sol.residual_norm == ref.residual_norm
    assert np.array_equal(sol.trajectory.states, ref.trajectory.states)
    assert all(np.array_equal(a, b) for a, b in zip(sol.iterates, ref.iterates, strict=True))


@pytest.mark.parametrize("mode", ["decoupled", "coupled"])
def test_solve_st_is_the_forced_recipe_bit_for_bit(rectifier, mode):
    start = start_of(rectifier)
    basis, testing = _setup(rectifier, 2)
    ref_system = assemble_forced(rectifier, basis, testing, period=start.period)
    ref = shoot_forced(ref_system, nominal_guess(ref_system, start), mode=mode, n_steps=100)
    system, sol = solve_st(rectifier, start, 2, mode, n_steps=100)
    _assert_same_solve(system, sol, ref_system, ref)


def test_solve_st_is_the_oscillator_recipe_bit_for_bit(colpitts):
    """The oscillator's scale guess is each node's linearized period scale."""
    start = start_of(colpitts, phase_index=colpitts.node_state("coll"))
    basis, testing = _setup(colpitts, 2)
    ref_system = assemble_autonomous(colpitts, basis, testing, start.period)
    scale = testing.v_inv @ linearized_period_scales(colpitts, testing.nodes)
    guess = nominal_guess(ref_system, start)
    ref = shoot_autonomous(ref_system, start.phase, guess, scale, n_steps=300)
    system, sol = solve_st(colpitts, start, 2, n_steps=300)
    _assert_same_solve(system, sol, ref_system, ref)
    assert np.array_equal(sol.scale_coeffs.blocks, ref.scale_coeffs.blocks)
    assert sol.reference_period == ref.reference_period == start.period


def test_solve_st_needs_a_random_parameter():
    circuit = parse_netlist("V1 in 0 SIN(0 1 1k)\nR1 in out 1k\nC1 out 0 1u\n")
    with pytest.raises(ValueError, match="no random parameters"):
        solve_st(circuit, start_of(circuit), 1)
