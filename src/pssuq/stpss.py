"""Intrusive stochastic periodic steady state via collocation testing.

The random-parameter circuit is collapsed onto K testing nodes: stacking
the deterministic residual evaluated at each node, with the state replaced
by its polynomial-chaos surrogate, gives one coupled DAE of size n*K over
the chaos coefficients. Its periodic solution yields the coefficients of
x(0) directly (forced circuits) or of z(0) together with a period-scaling
expansion a(xi), T(xi) = T0 * a(xi) (oscillators, integrated in scaled
time over the horizon T0). T0, the reference period, is the nominal
estimate or a converged nominal period, and a(xi) each realization's
period relative to it. The solve starts from the caller's a(xi). From
a = 1 the nodes' whole period spread is in the first residual; from the
ratio of linearized frequencies at the nodes' DC points
(``shooting.linearized_period_scales``) only its nonlinear part is.

``solve_st`` is the chaos solve from a start, the counterpart of
``shooting.solve_at`` and the one place a start picks between forced and
oscillator: it builds the testing nodes (``testing_set``), assembles the
stacked system, starts the coefficients at the start's state
(``nominal_guess``) and an oscillator's period scales at their linearized
values, and shoots. It returns the ``StochasticPssSolution`` alone. The
system and the solution hold the ``TestingSet``, the one carrier of the
basis, and keep one ``horizon``, the excitation period or T0. The
coefficients are plain arrays, chaos index first; an oscillator is the
one with period-scaling coefficients (``scale_coeffs`` not None).

The collocation matrix V maps the stacked residual onto K independent
deterministic shooting problems, one per testing node (Zhang, El-Moselhy,
Elfadel & Daniel, IEEE TCAD 2013). The stochastic solver is therefore the
deterministic shooting engine (``shooting.Shooting``) run on the batch of
the K node circuits, conjugated by V: the coefficient blocks start the
batch at V @ blocks, and its residual is mapped back by V^{-1}. Newton
stops on the residual norm in coefficient space and takes one step scale
for the whole stack. Every implicit step solves K systems of size n, never
one of size n*K.

The Newton step comes in two modes, which produce identical iterates
because both linearize the same discrete map:

* ``decoupled``: V^{-1} o (engine step at the nodes) o V, that is K
  independent n (oscillators: bordered n+1) solves.
* ``coupled``: the paper's reference. The monodromy (and period-scaling
  sensitivity) of the stacked DAE (``StackedSystem``) is accumulated along
  the coefficient trajectory and the dense n*K (+K) system is solved. This
  is the only place the stacked DAE is evaluated.
"""

from dataclasses import dataclass, field

import numpy as np

from .gpc import TestingSet, build_basis, moments, select_testing_nodes, tensor_rule
from .shooting import (
    MAX_HALVINGS, MAX_ITER, CircuitDae, OscillationError, Shooting, floor_failure,
    linearized_period_scales, shooting_jacobian, stationary_orbits,
)
from .transient import (
    ConvergenceError,
    Dae,
    Trajectory,
    batched_solve,
    damped_newton,
    integrate,  # not called here: perfbench/test_harness.py checks the tracer rebinds it
)


# ---------------------------------------------------------------------------
# stacked system


class StackedSystem(Dae):
    """The coupled DAE over chaos coefficients, sized n*K.

    Residual block k is the deterministic residual at testing node k with
    the state surrogate evaluated there; the unknown vector is the
    coefficient stack, integrated over ``horizon``. An ``oscillator`` has
    period-scaling coefficients ``scale_coeffs`` (None for a forced
    circuit), set by the coupled step: the resistive part of each block is
    multiplied by that node's scaling. A grid point is one evaluation of
    the node batch at V @ w, lifted by V. The solvers integrate the node
    circuits (``instances``); the stacked Jacobians serve the coupled
    shooting update.
    """

    def __init__(self, circuit, testing, horizon, oscillator=False):
        self.circuit = circuit
        self.testing = testing
        self.horizon = horizon
        self.n = circuit.n_states
        self.K = testing.size
        self.instances = circuit.realize(testing.nodes)
        self.scale_coeffs = None
        if oscillator:
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
        scale = None if self.scale_coeffs is None else self.node_scales()
        return CircuitDae(self.instances, scale=scale)

    def linearize(self, w, t):
        """The node batch's evaluation at the surrogate states of ``w``."""
        return self.node_dae().linearize(self.node_states(w), t)

    def _lift(self, d):
        """Node blocks d (K, n, m) -> coefficient columns: each times that node's row of V."""
        return np.einsum("kab,kj->kajb", d, self.testing.vandermonde).reshape(self.ndim, -1)

    def terms(self, lin, t=None):
        """Stacked (Q, F), the node circuits' at the surrogate states, and
        their Jacobians in coefficient space."""
        q, F, dq, dF = self.node_dae().terms(lin, t)
        return q.ravel(), F.ravel(), self._lift(dq), self._lift(dF)

    def scale_columns(self, lin):
        """Derivative of the stacked F w.r.t. the scaling coefficients."""
        if self.scale_coeffs is None:
            raise ValueError("scaling sensitivity only exists for oscillators")
        return self._lift(self.node_dae().scale_columns(lin))


def assemble_forced(circuit, testing, period=None):
    """Stacked system for a periodically driven circuit."""
    if period is None:
        period = circuit.fundamental_period()
    return StackedSystem(circuit, testing, period)


def assemble_autonomous(circuit, testing, reference_period):
    """Stacked time-scaled system for an oscillator over the scaled-time
    horizon ``reference_period`` (T0), which the period scaling multiplies."""
    if not reference_period > 0:
        raise ValueError("reference period must be positive")
    if not circuit.is_autonomous:
        raise ValueError("circuit has a time-varying source")
    return StackedSystem(circuit, testing, reference_period, oscillator=True)


def _coefficient_trajectory(system, node_traj):
    states = (system.testing.v_inv @ node_traj.states).reshape(node_traj.n_points, -1)
    return Trajectory(node_traj.times, states, node_traj.gammas)


def _raise_on_failed_node(system, node_traj):
    """Name the first testing node flagged at the bisection floor: its index
    and xi in front of its ``floor_failure``."""
    failure = floor_failure(system.instances, node_traj)
    if failure is not None:
        k, text = failure
        xi = np.array2string(system.testing.nodes[k], precision=6)
        raise ConvergenceError(f"testing node {k} (xi = {xi}): {text}")


# ---------------------------------------------------------------------------
# solution container


@dataclass
class StochasticPssSolution:
    """Chaos coefficients of the periodic solution, converged (a solve that
    does not converge raises), and of an oscillator's period scaling, chaos
    index first, over the basis of ``testing``."""

    coeffs: np.ndarray  # (K, n) coefficients of x(0) resp. z(0)
    testing: TestingSet  # the K nodes the solve collocated at, and their basis
    horizon: float  # the excitation period, or T0 (oscillators)
    scale_coeffs: np.ndarray | None  # (K,) coefficients of a(xi); None if forced
    trajectory: Trajectory  # one period of the coefficient stack
    iterations: int
    residual_norm: float
    per_node_residuals: np.ndarray
    iteration_log: list = field(default_factory=list)
    mode: str = "decoupled"

    def period_moments(self):
        if self.scale_coeffs is None:
            raise ValueError("period statistics exist only for oscillators")
        mean, std = moments(self.scale_coeffs)
        return self.horizon * mean, self.horizon * std

    def summary(self):
        out = {
            "kind": "forced" if self.scale_coeffs is None else "autonomous",
            "mode": self.mode,
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "per_node_residuals": self.per_node_residuals.tolist(),
            "converged": True,
            "iteration_log": self.iteration_log,
        }
        if self.scale_coeffs is None:
            out["period"] = float(self.horizon)
        else:
            mean, std = self.period_moments()
            out["reference_period"] = float(self.horizon)
            out["scale_coefficients"] = self.scale_coeffs.tolist()
            out["period_mean"] = float(mean)
            out["period_std"] = float(std)
        return out


def _iteration_log(history):
    """Residual norm and step scale of each iterate of a scalar solve."""
    log = [{"residual": float(history[0][1])}]
    log += [{"residual": float(gn), "step_scale": float(alpha)} for _, gn, alpha in history[1:]]
    return log


def _shoot(system, engine, u0, mode):
    """Damped Newton on the coefficient unknowns through the node engine.

    The unknown is the n*K state coefficients followed, for oscillators,
    by the K scaling coefficients. Its blocks (one row per chaos index:
    state, then scaling) times V are the unknowns of ``engine``, the
    shooting problem of the K node circuits. A testing node that fails at
    the bisection floor raises ConvergenceError naming it; an oscillator
    testing node whose converged orbit is stationary raises
    OscillationError naming it.
    """
    if mode not in ("coupled", "decoupled"):
        raise ValueError(f"unknown mode {mode!r}")
    n, K = system.n, system.K
    V, V_inv = system.testing.vandermonde, system.testing.v_inv
    pinned = None if engine.phase is None else engine.phase.index + n * np.arange(K)

    def blocks(u):
        return np.concatenate([u[: n * K].reshape(K, n), u[n * K :].reshape(K, -1)], axis=1)

    def unknowns(b):
        return np.concatenate([b[:, :n].ravel(), b[:, n:].ravel()])

    def run(u, rows, into):
        g_nodes, gn_nodes, node_traj = engine.run(V @ blocks(u), rows, into)
        _raise_on_failed_node(system, node_traj)
        g = unknowns(V_inv @ g_nodes)
        return g, np.max(np.abs(g)) if np.all(np.isfinite(gn_nodes)) else np.inf, node_traj

    def newton_step(u, g, node_traj, rows):
        if mode == "decoupled":
            node_step = engine.newton_step(V @ blocks(u), V @ blocks(g), node_traj, rows)
            delta = unknowns(V_inv @ node_step)
        else:
            if pinned is not None:
                system.scale_coeffs = u[n * K :]
            J = shooting_jacobian(system, _coefficient_trajectory(system, node_traj), pinned)
            delta = batched_solve(J, g[:, None])[:, 0]
        if not np.all(np.isfinite(delta)):
            raise ConvergenceError("singular shooting Jacobian")
        return delta

    u, g, gn, node_traj, history = damped_newton(
        u0, run, newton_step, engine.tol, MAX_ITER, MAX_HALVINGS)
    if not gn <= engine.tol:
        kind = "forced" if pinned is None else "autonomous"
        raise ConvergenceError(f"stochastic {kind} shooting stalled at residual {gn:.3e}")
    scale = None
    if pinned is not None:
        dead = stationary_orbits(node_traj, engine.phase)
        if np.any(dead):
            k = int(np.argmax(dead))
            xi = np.array2string(system.testing.nodes[k], precision=6)
            raise OscillationError(f"testing node {k} (xi = {xi}): stationary orbit")
        system.scale_coeffs = scale = u[n * K :]
    return StochasticPssSolution(
        u[: n * K].reshape(K, n),
        system.testing,
        system.horizon,
        scale,
        _coefficient_trajectory(system, node_traj),
        len(history) - 1,
        float(gn),
        np.max(np.abs(V @ blocks(g)[:, :n]), axis=1),
        _iteration_log(history),
        mode,
    )


def nominal_guess(system, start):
    """Coefficients of a nominal start or solution: its ``y`` in block 1, zeros above."""
    guess = np.zeros((system.K, system.n))
    guess[0] = start.y
    return guess


# ---------------------------------------------------------------------------
# forced circuits


def shoot_forced(system, coeff_guess, mode="decoupled", **options):
    """Solve the stochastic shooting problem of a driven circuit.

    Returns the chaos coefficients of x(0) with the one-period coefficient
    trajectory, starting from ``coeff_guess`` (``nominal_guess`` of the
    nominal start, say). ``mode`` picks the Jacobian path: ``coupled``
    builds the dense stacked monodromy, ``decoupled`` solves the K per-node
    shooting systems after the V transform; both perform exact Newton on
    the same discrete equations. ``options`` are ``Shooting``'s.
    """
    engine = Shooting(system.instances, system.horizon, **options)
    u0 = np.asarray(coeff_guess, dtype=float).reshape(system.n * system.K)
    return _shoot(system, engine, u0, mode)


# ---------------------------------------------------------------------------
# autonomous circuits


def shoot_autonomous(system, phase, coeff_guess, scale_guess, mode="decoupled", **options):
    """Solve the stochastic shooting problem of an oscillator.

    Unknowns are the coefficients of z(0) plus the period-scaling
    coefficients; the phase rows pin state ``phase.index``: its mean
    coefficient equals ``phase.value`` and its higher coefficients vanish,
    so every realization starts at the same anchor (at every testing node,
    state ``phase.index`` starts at ``phase.value``, as H_1 = 1). The
    decoupled mode solves K independent bordered (n+1) systems at the
    nodes; the coupled mode assembles the dense (nK+K) Jacobian from the
    stacked monodromy and the scaling-sensitivity recursion. ``options``
    are ``Shooting``'s.
    """
    engine = Shooting(system.instances, system.horizon, phase, **options)
    u0 = np.concatenate([
        np.asarray(coeff_guess, dtype=float).reshape(system.n * system.K),
        np.asarray(scale_guess, dtype=float),
    ])
    return _shoot(system, engine, u0, mode)


# ---------------------------------------------------------------------------
# the chaos solve from a start


def testing_set(circuit, order):
    """The testing nodes of the total-order ``order`` chaos basis of
    ``circuit``'s random parameters, picked from the (order + 1)-point
    tensor Gauss rule; the ``TestingSet`` carries the basis."""
    dists = [s for _, s in circuit.random_params]
    if not dists:
        raise ValueError("circuit declares no random parameters")
    basis = build_basis(dists, order)
    return select_testing_nodes(basis, tensor_rule(basis, order + 1))


def solve_st(circuit, start, order, mode="decoupled", **options):
    """The order-``order`` chaos solve of ``circuit`` from ``start`` (a
    ``shooting.NominalStart`` or a nominal ``PssSolution``): over its period
    if it has no phase condition, else as an oscillator with its phase
    condition and its period as the horizon T0, each testing node's period
    scale starting at omega(0) / omega(xi) (``linearized_period_scales``).
    The coefficients start at the start's state (``nominal_guess``).
    ``options`` are ``Shooting``'s. Returns the ``StochasticPssSolution``."""
    testing = testing_set(circuit, order)
    if start.phase is None:
        system = assemble_forced(circuit, testing, period=start.period)
        return shoot_forced(system, nominal_guess(system, start), mode, **options)
    system = assemble_autonomous(circuit, testing, float(start.period))
    scale_guess = testing.v_inv @ linearized_period_scales(circuit, testing.nodes)
    return shoot_autonomous(
        system, start.phase, nominal_guess(system, start), scale_guess, mode, **options
    )
