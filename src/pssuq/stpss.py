"""Intrusive stochastic periodic steady state via collocation testing.

The random-parameter circuit is collapsed onto K testing nodes: stacking
the deterministic residual evaluated at each node, with the state replaced
by its polynomial-chaos surrogate, gives one coupled DAE of size n*K over
the chaos coefficients. Its periodic solution yields the coefficients of
x(0) directly (forced circuits) or of z(0) together with a period-scaling
expansion a(xi), T(xi) = T0 * a(xi) (oscillators, integrated in scaled
time so every realization shares the nominal period).

The collocation matrix V maps the stacked residual onto K independent
deterministic residuals, so the one-period map of the coefficient stack is
computed at the testing nodes: the surrogate states V @ w advance as one
lockstep batch of K n-state circuits (each scaled by its node's period
scaling for oscillators) and every grid point is mapped back with V^{-1}
(``period_map``). Every implicit step therefore solves K systems of size
n, never one of size n*K.

The shooting Newton systems can be solved two ways, which produce
identical iterates because both linearize the same discrete map:

* ``coupled``: the paper's reference. Accumulate the monodromy (and
  period-scaling sensitivity) of the stacked DAE natively along the
  coefficient trajectory and solve the dense n*K (+K) Jacobian. This is
  the only place the stacked DAE (``StackedSystem``) is evaluated.
* ``decoupled``: transform the residual to the testing nodes with V, chain
  the K small per-node shooting Jacobians along the node trajectory the
  forward run produced, solve them independently, and map the updates
  back with V^{-1}. One iteration then costs K independent n^3 solves
  instead of (n*K)^3.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .gpc import GpcCoefficients, moments
from .shooting import (
    CircuitDae,
    damped_newton,
    estimate_period,
    solve_autonomous,
    solve_forced,
)
from .transient import (
    ConvergenceError,
    NewtonOptions,
    TRAPEZOIDAL,
    Trajectory,
    batched_solve,
    integrate,
    transition_chain,
)


# ---------------------------------------------------------------------------
# block transforms (applications of V and V^{-1}; the Kronecker factors are
# never formed)


def decouple_residual(g, testing, block_size):
    """Stacked coefficient-space vector -> K per-node vectors (rows)."""
    K = testing.size
    g = np.asarray(g, dtype=float)
    if g.size != K * block_size:
        raise ValueError(f"expected length {K * block_size}, got {g.size}")
    return testing.vandermonde @ g.reshape(K, block_size)


def recouple_update(node_vectors, testing):
    """K per-node vectors (rows) -> stacked coefficient-space vector."""
    return (testing.v_inv @ np.asarray(node_vectors, dtype=float)).ravel()


# ---------------------------------------------------------------------------
# stacked system


class StackedSystem:
    """The coupled DAE over chaos coefficients, sized n*K.

    Residual block k is the deterministic residual at testing node k with
    the state surrogate evaluated there; the unknown vector is the
    coefficient stack. For oscillators the resistive part of each block is
    multiplied by that node's period scaling, read from ``scale_coeffs``
    (set by the solver between iterations). The forward runs integrate
    the per-node view (``node_dae``); the stacked Jacobians serve the
    coupled shooting update.
    """

    def __init__(self, circuit, basis, testing, kind, period=None, nominal_period=None):
        if kind not in ("forced", "autonomous"):
            raise ValueError(f"unknown kind {kind!r}")
        self.circuit = circuit
        self.basis = basis
        self.testing = testing
        self.kind = kind
        self.period = period
        self.nominal_period = nominal_period
        self.n = circuit.n_states
        self.K = testing.size
        self.instances = circuit.realize(testing.nodes)
        self.scale_coeffs = None
        if kind == "autonomous":
            self.scale_coeffs = np.zeros(self.K)
            self.scale_coeffs[0] = 1.0

    @property
    def ndim(self):
        return self.n * self.K

    def node_states(self, w):
        """Coefficient stack (nK,) -> surrogate states at the nodes (K, n)."""
        return self.testing.vandermonde @ np.asarray(w).reshape(self.K, self.n)

    def node_scales(self):
        return self.testing.vandermonde @ self.scale_coeffs

    def node_dae(self):
        """Per-node deterministic view (batched over the testing nodes)."""
        scale = self.node_scales() if self.kind == "autonomous" else None
        return CircuitDae(self.instances, scale=scale)

    def eval(self, w, t):
        """Stacked (Q, F): the stacked DAE can still be integrated directly,
        as the reference for the node-space run."""
        ev = self.instances.eval_dae(self.node_states(w), t)
        F = ev.f - ev.bu
        if self.kind == "autonomous":
            F = self.node_scales()[:, None] * F
        return ev.q.ravel(), F.ravel()

    def eval_with_jac(self, w, t):
        ev = self.instances.eval_dae(self.node_states(w), t)
        F = ev.f - ev.bu
        dF = ev.df_dx
        if self.kind == "autonomous":
            a = self.node_scales()
            F = a[:, None] * F
            dF = a[:, None, None] * dF
        V = self.testing.vandermonde
        nK = self.ndim
        dQ = np.einsum("kab,kj->kajb", ev.dq_dx, V).reshape(nK, nK)
        dFc = np.einsum("kab,kj->kajb", dF, V).reshape(nK, nK)
        return ev.q.ravel(), F.ravel(), dQ, dFc

    def dF_dscale(self, w, t):
        """Derivative of the stacked F w.r.t. the scaling coefficients."""
        if self.kind != "autonomous":
            raise ValueError("scaling sensitivity only exists for oscillators")
        ev = self.instances.eval_dae(self.node_states(w), t)
        base = ev.f - ev.bu  # (K, n)
        V = self.testing.vandermonde
        return np.einsum("ka,kj->kaj", base, V).reshape(self.ndim, self.K)


def assemble_forced(circuit, basis, testing, period=None):
    """Stacked system for a periodically driven circuit."""
    if period is None:
        period = circuit.fundamental_period()
    return StackedSystem(circuit, basis, testing, "forced", period=period)


def assemble_autonomous(circuit, basis, testing, nominal_period):
    """Stacked time-scaled system for an oscillator."""
    if not nominal_period > 0:
        raise ValueError("nominal period must be positive")
    if not circuit.is_autonomous:
        raise ValueError("circuit has a time-varying source")
    return StackedSystem(
        circuit, basis, testing, "autonomous", nominal_period=nominal_period
    )


def period_map(system, coeffs, scheme=TRAPEZOIDAL, n_steps=200, newton=NewtonOptions()):
    """One period of the coefficient stack, integrated at the testing nodes.

    The surrogate states at the K testing nodes start at V @ coeffs and
    advance as one lockstep batch of the node circuits over the forcing
    period (forced) or the nominal period in scaled time (oscillators,
    with the scaling set in ``system.scale_coeffs``), first step backward
    Euler. Returns ``(coefficient trajectory, node trajectory)``: the same
    grid, with the node states mapped back by V^{-1} at every point.

    A testing node whose step still fails at the bisection floor raises
    ConvergenceError naming the node, its xi, the time point and the
    element with a non-finite contribution there, if any.
    """
    horizon = system.period if system.kind == "forced" else system.nominal_period
    node_traj = integrate(
        system.node_dae(), system.node_states(coeffs), 0.0, horizon, scheme=scheme,
        n_steps=n_steps, newton=newton, stabilized_start=True,
    )
    if np.any(node_traj.failed):
        k = int(np.argmax(node_traj.failed))
        xi = system.testing.nodes[k]
        t = float(node_traj.fail_times[k])
        element = system.circuit.realize(xi).find_nonfinite_element(node_traj.end[k], t)
        extra = f" (non-finite contribution from element {element})" if element else ""
        raise ConvergenceError(
            f"testing node {k} (xi = {np.array2string(xi, precision=6)}): implicit "
            f"step at t={t:.6g} did not converge at the bisection floor{extra}"
        )
    coeff_states = (system.testing.v_inv @ node_traj.states).reshape(node_traj.n_points, -1)
    traj = Trajectory(node_traj.times, coeff_states, scheme, None, node_traj.gammas)
    return traj, node_traj


# ---------------------------------------------------------------------------
# solution container


@dataclass
class StochasticPssSolution:
    """Chaos coefficients of the periodic solution (and period scaling)."""

    kind: str
    coeffs: GpcCoefficients  # (K, n) coefficients of x(0) resp. z(0)
    period: float | None  # excitation period (forced)
    nominal_period: float | None  # T0 (autonomous)
    scale_coeffs: GpcCoefficients | None  # (K,) coefficients of a(xi)
    trajectory: Trajectory  # one period of the coefficient stack
    iterations: int
    residual_norm: float
    per_node_residuals: np.ndarray
    converged: bool
    iterates: list = field(default_factory=list)
    iteration_log: list = field(default_factory=list)
    mode: str = "decoupled"

    def period_moments(self):
        if self.kind != "autonomous":
            raise ValueError("period statistics exist only for oscillators")
        m = moments(self.scale_coeffs)
        return self.nominal_period * m.mean, self.nominal_period * m.std

    def summary(self):
        out = {
            "kind": self.kind,
            "mode": self.mode,
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "per_node_residuals": self.per_node_residuals.tolist(),
            "converged": bool(self.converged),
            "iteration_log": self.iteration_log,
        }
        if self.kind == "autonomous":
            mean, std = self.period_moments()
            out["nominal_period"] = float(self.nominal_period)
            out["scale_coefficients"] = self.scale_coeffs.blocks.tolist()
            out["period_mean"] = float(mean)
            out["period_std"] = float(std)
        else:
            out["period"] = float(self.period)
        return out

    def to_json(self):
        return json.dumps(self.summary(), indent=2)

    def waveform_csv(self, path, state_names=None):
        """Coefficient waveforms: time, then n*K columns, block-major.

        Column ``c<k>[<state>]`` is the k-th chaos coefficient (1-based,
        index-set order) of that state.
        """
        K = self.coeffs.basis.size
        n = self.trajectory.states.shape[-1] // K
        names = state_names or [f"x{i}" for i in range(n)]
        header = ["time"] + [f"c{k + 1}[{nm}]" for k in range(K) for nm in names]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for t, row in zip(self.trajectory.times, self.trajectory.states):
                fh.write(",".join(f"{v:.17g}" for v in [t, *row]) + "\n")


def _iteration_log(history):
    """Residual norm and step scale of each iterate of a scalar solve."""
    log = [{"residual": float(history[0][1])}]
    log += [{"residual": float(gn), "step_scale": float(alpha)} for _, gn, alpha in history[1:]]
    return log


def _checked_step(delta):
    if not np.all(np.isfinite(delta)):
        raise ConvergenceError("singular shooting Jacobian")
    return delta


# ---------------------------------------------------------------------------
# forced circuits


def shoot_forced(
    system,
    coeff_guess=None,
    tol=1e-5,
    mode="decoupled",
    scheme=TRAPEZOIDAL,
    n_steps=200,
    max_iter=50,
    newton=NewtonOptions(),
):
    """Solve the stochastic shooting problem of a driven circuit.

    Returns the chaos coefficients of x(0) with the one-period coefficient
    trajectory. ``mode`` picks the Jacobian path: ``coupled`` builds the
    dense stacked monodromy, ``decoupled`` solves the K per-node shooting
    systems after the V transform; both perform exact Newton on the same
    discrete equations.
    """
    if mode not in ("coupled", "decoupled"):
        raise ValueError(f"unknown mode {mode!r}")
    n, K = system.n, system.K
    T = system.period
    if coeff_guess is None:
        coeff_guess = nominal_forced_guess(system, tol, scheme, n_steps, newton)
    u0 = np.asarray(coeff_guess, dtype=float).reshape(n * K)

    def run(u, _idle):  # one unbatched unknown: nothing to idle
        trajs = period_map(system, u, scheme, n_steps, newton)
        g = trajs[0].end - u
        return g, float(np.max(np.abs(g))), trajs

    def newton_step(u, g, trajs):
        traj, node_traj = trajs
        if mode == "coupled":
            M, _ = transition_chain(system, traj)
            return _checked_step(batched_solve(M - np.eye(n * K), g[:, None])[:, 0])
        M_nodes, _ = transition_chain(system.node_dae(), node_traj)
        g_nodes = decouple_residual(g, system.testing, n)
        delta_nodes = batched_solve(M_nodes - np.eye(n), g_nodes[..., None])[..., 0]
        return _checked_step(recouple_update(delta_nodes, system.testing))

    u, g, gn, trajs, history = damped_newton(u0, run, newton_step, tol, max_iter)
    if not gn <= tol:
        raise ConvergenceError(f"stochastic forced shooting stalled at residual {gn:.3e}")
    per_node = np.max(np.abs(decouple_residual(g, system.testing, n)), axis=1)
    return StochasticPssSolution(
        "forced",
        GpcCoefficients(system.basis, u.reshape(K, n)),
        T,
        None,
        None,
        trajs[0],
        len(history) - 1,
        float(gn),
        per_node,
        True,
        [h[0] for h in history],
        _iteration_log(history),
        mode,
    )


def nominal_forced_guess(system, tol=1e-5, scheme=TRAPEZOIDAL, n_steps=200, newton=NewtonOptions()):
    """Initial coefficients: nominal-circuit solution in block 1, zeros above."""
    nominal = system.circuit.realize_nominal()
    det = solve_forced(
        nominal, system.period, tol=tol, scheme=scheme, n_steps=n_steps, newton=newton
    )
    guess = np.zeros((system.K, system.n))
    guess[0] = det.y
    return guess


# ---------------------------------------------------------------------------
# autonomous circuits


def shoot_autonomous(
    system,
    phase,
    coeff_guess=None,
    scale_guess=None,
    tol=1e-5,
    mode="decoupled",
    scheme=TRAPEZOIDAL,
    n_steps=200,
    max_iter=50,
    newton=NewtonOptions(),
    scale_floor=1e-6,
):
    """Solve the stochastic shooting problem of an oscillator.

    Unknowns are the coefficients of z(0) plus the period-scaling
    coefficients; the phase rows pin state ``phase.index``: its mean
    coefficient equals ``phase.value`` and its higher coefficients vanish,
    so every realization starts at the same anchor. The decoupled mode
    solves K independent bordered (n+1) systems on the interleaved block
    layout; the coupled mode assembles the dense (nK+K) Jacobian from the
    stacked monodromy and the scaling-sensitivity recursion.
    """
    if mode not in ("coupled", "decoupled"):
        raise ValueError(f"unknown mode {mode!r}")
    n, K = system.n, system.K
    T0 = system.nominal_period
    j = phase.index
    if coeff_guess is None or scale_guess is None:
        coeff_guess, scale_guess = nominal_autonomous_guess(
            system, phase, tol, scheme, n_steps, newton
        )
    u0 = np.concatenate(
        [np.asarray(coeff_guess, dtype=float).reshape(n * K), np.asarray(scale_guess, dtype=float)]
    )

    def run(u, _idle):  # one unbatched unknown: nothing to idle
        z0, a_hat = u[: n * K], u[n * K :]
        scales = system.testing.vandermonde @ a_hat
        if np.any(scales <= scale_floor):
            return None, np.inf, None  # period scaling must stay positive
        system.scale_coeffs = a_hat
        trajs = period_map(system, z0, scheme, n_steps, newton)
        psi = trajs[0].end - z0
        chi = z0[j::n].copy()
        chi[0] -= phase.value
        g = np.concatenate([psi, chi])
        return g, float(np.max(np.abs(g))), trajs

    def newton_step(u, g, trajs):
        if trajs is None:
            raise ConvergenceError("initial residual is not finite")
        traj, node_traj = trajs
        a_hat = u[n * K :]
        system.scale_coeffs = a_hat
        if mode == "coupled":
            M, S = transition_chain(system, traj, with_scale_columns=True)
            J = np.zeros((n * K + K, n * K + K))
            J[: n * K, : n * K] = M - np.eye(n * K)
            J[: n * K, n * K :] = S
            for k in range(K):
                J[n * K + k, k * n + j] = 1.0
            return _checked_step(batched_solve(J, g[:, None])[:, 0])
        M_nodes, S_nodes = transition_chain(
            system.node_dae(), node_traj, with_scale_columns=True
        )
        psi_nodes = decouple_residual(g[: n * K], system.testing, n)
        chi_nodes = system.testing.vandermonde @ g[n * K :]
        J = np.zeros((K, n + 1, n + 1))
        J[:, :n, :n] = M_nodes - np.eye(n)
        J[:, :n, n:] = S_nodes
        J[:, n, j] = 1.0
        rhs = np.concatenate([psi_nodes, chi_nodes[:, None]], axis=1)
        delta = batched_solve(J, rhs[..., None])[..., 0]
        blocks = system.testing.v_inv @ delta  # K blocks of (state, scale)
        return _checked_step(np.concatenate([blocks[:, :n].ravel(), blocks[:, n]]))

    u, g, gn, trajs, history = damped_newton(u0, run, newton_step, tol, max_iter)
    if not gn <= tol:
        raise ConvergenceError(
            f"stochastic autonomous shooting stalled at residual {gn:.3e}"
        )
    z0, a_hat = u[: n * K], u[n * K :]
    system.scale_coeffs = a_hat
    per_node = np.max(np.abs(decouple_residual(g[: n * K], system.testing, n)), axis=1)
    return StochasticPssSolution(
        "autonomous",
        GpcCoefficients(system.basis, z0.reshape(K, n)),
        None,
        T0,
        GpcCoefficients(system.basis, a_hat),
        trajs[0],
        len(history) - 1,
        float(gn),
        per_node,
        True,
        [h[0] for h in history],
        _iteration_log(history),
        mode,
    )


def nominal_autonomous_guess(
    system, phase, tol=1e-5, scheme=TRAPEZOIDAL, n_steps=200, newton=NewtonOptions()
):
    """Initial coefficients from the nominal oscillator solution.

    Solves the nominal circuit on the system's scaled horizon; block 1
    carries its initial state, the scaling starts at the nominal solve's
    scale so the expansion is centered on a(0-vector) = a_nominal.
    """
    nominal = system.circuit.realize_nominal()
    est = estimate_period(nominal, phase.index)
    det = solve_autonomous(
        nominal,
        phase,
        system.nominal_period,
        est.y0,
        tol=tol,
        scheme=scheme,
        n_steps=n_steps,
        newton=newton,
    )
    coeff = np.zeros((system.K, system.n))
    coeff[0] = det.y
    scale = np.zeros(system.K)
    scale[0] = float(det.period_scale)
    return coeff, scale
