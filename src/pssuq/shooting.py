"""Deterministic periodic steady state by shooting Newton.

Forced circuits solve phi(y, 0, T) - y = 0 for the initial state y, with
the period T fixed by the excitation. Autonomous circuits integrate the
time-scaled equations d q/d tau + a * (f - B u) = 0 over a fixed nominal
interval [0, T0] and solve for (y, a) with one phase row pinning a chosen
state at tau = 0, so the oscillation period is T0 * a. The Newton
Jacobians are the one-period monodromy matrix (and, for oscillators, the
sensitivity of the endpoint to the time scaling) accumulated step by step
along the integration grid, hence exact for the discretized map.

This module is the only definition of both shooting problems: ``Shooting``
gives the residual run and Newton step (``shooting_jacobian``) that
``damped_newton`` consumes, for one circuit or a batch. A (B, d) parameter
batch advances in lockstep through the same grids, which is how the Monte
Carlo driver amortizes its sampling loop and how the stochastic solver
(``stpss``) runs its K testing-node circuits. A step one sample cannot
take is bisected for the whole batch; samples that still fail at the
bisection floor are flagged, not raised, in batched runs. Converged and
stalled samples retire: later runs integrate and chain only the pending
rows, written back in place, and a run that changes the grid is repeated
for every live sample, so results equal those of the lockstep batch.
``solve_nominal`` solves the nominal circuit, where every analysis starts.
For an oscillator it starts from ``estimate_period``, a transient kicked
along the least-damped linearized mode and stopped once its cycle settles
(Aprille & Trick, IEEE Trans. Circuit Theory, 1972); a converged orbit
whose phase state does not swing (the DC point) is rejected.
"""

from dataclasses import dataclass

import numpy as np

from .circuit import dc_operating_point
from .transient import (
    BACKWARD_EULER,
    ConvergenceError,
    NewtonOptions,
    TRAPEZOIDAL,
    Trajectory,
    batched_solve,
    integrate,
    norm_inf,
    transition_chain,
)


class OscillationError(RuntimeError):
    """No oscillation detected, or the phase anchor is unusable."""


@dataclass(frozen=True)
class PhaseCondition:
    """Pin state ``index`` to ``value`` at t = 0 (removes the time shift)."""

    index: int
    value: float


@dataclass
class PssSolution:
    """Converged periodic steady state of one circuit (or batch)."""

    y: np.ndarray
    period: np.ndarray | float
    trajectory: Trajectory
    iterations: int
    residual_norm: np.ndarray | float
    converged: np.ndarray | bool
    period_scale: np.ndarray | float | None = None  # autonomous solves only
    phase: PhaseCondition | None = None  # autonomous solves only

    def summary(self):
        return {
            "period": np.asarray(self.period).tolist(),
            "iterations": int(self.iterations),
            "residual_norm": np.asarray(self.residual_norm).tolist(),
            "converged": np.asarray(self.converged).tolist(),
        }


class CircuitDae:
    """Adapts a CircuitInstance to the integrator interface.

    ``F = f - B u(t)``; with a period scaling attached the right-hand side
    becomes ``a * (f - B u)`` and ``dF_dscale`` exposes its derivative with
    respect to ``a`` (one column); ``linearize`` returns the instance
    evaluation from which ``terms`` and ``scale_columns`` take them.
    """

    def __init__(self, instance, scale=None):
        self.instance = instance
        self.scale = scale

    def eval(self, w, t):
        return self.terms(self.instance.eval_dae(w, t))[:2]

    def eval_with_jac(self, w, t):
        return self.terms(self.instance.eval_dae(w, t))

    def linearize(self, w, t):
        return self.instance.eval_dae(w, t)

    def terms(self, ev, t=None):
        """(Q, F, dQ/dw, dF/dw) of the instance evaluation ``ev``; at time
        ``t``, if given, with only B u evaluated again."""
        F = (ev.f - (ev.bu if t is None else self.instance.source(t))).reshape(ev.f.shape)
        dF = ev.df_dx
        if self.scale is not None:
            a = np.asarray(self.scale, dtype=float)[..., None]
            F, dF = a * F, a[..., None] * dF
        return ev.q, F, ev.dq_dx, dF

    def dF_dscale(self, w, t):
        return self.scale_columns(self.instance.eval_dae(w, t))

    def scale_columns(self, ev):
        """``dF_dscale`` of the instance evaluation ``ev``."""
        return (ev.f - ev.bu)[..., None]

    def locate_nonfinite(self, w, t):
        return self.instance.find_nonfinite_element(w, t)


MAX_HALVINGS = 8  # step halvings a Newton sample may try before it stalls
MAX_ITER = 50  # shooting Newton iterations before a solve gives up
SCALE_FLOOR = 1e-6  # an oscillator's period scaling must stay above this
MIN_SWING = 1e-9  # smallest swing, relative to 1 + |level|, taken as oscillation


def _rows(mask):
    """Indices of the rows ``mask`` marks; ``...`` (views, no copies) for all."""
    return Ellipsis if np.all(mask) else np.flatnonzero(mask)


def damped_newton(u0, run, newton_step, tol):
    """Damped Newton on one unknown vector (m,) or a batch of them (B, m).

    ``run(u, rows)`` returns ``(g, norm, traj)`` for the unknowns ``u`` of
    batch rows ``rows`` (``...``: all): the residual, its infinity norm per
    sample (inf where the residual is unusable) and the trajectory from
    which ``newton_step(u, g, traj, rows)`` returns their Newton step. Only
    pending samples are run and stepped; the others keep their iterate,
    residual and trajectory rows, into which a pending run is written
    (``Trajectory.put``) unless it changes the grid: then every sample not
    stalled runs again. Each sample halves its own step and takes the first
    trial whose norm is finite and lower. A sample whose residual or step
    is not finite, or that has not improved after ``MAX_HALVINGS``
    halvings, stalls; its trajectory row is meaningless. At most
    ``MAX_ITER`` iterations are taken.

    Returns ``(u, g, norm, traj, history)``. ``history`` holds one
    ``(u, norm, step_scale)`` per iterate, the first being ``u0`` with no
    step scale, so ``len(history) - 1`` Newton iterations were taken.
    """
    u = np.array(u0, dtype=float, copy=True)
    g, gn, traj = run(u, ...)
    gn = np.asarray(gn)
    stalled = ~np.isfinite(gn)  # no usable residual, hence no Newton step
    history = [(u.copy(), gn.copy(), None)]
    while len(history) <= MAX_ITER:
        pending = ~(gn <= tol) & ~stalled
        if not np.any(pending):
            break
        rows = _rows(pending)
        delta = np.zeros_like(u)
        delta[rows] = newton_step(u[rows], g[rows], traj, rows)
        stalled |= pending & ~np.all(np.isfinite(delta), axis=-1)
        pending &= ~stalled
        alpha = np.ones(gn.shape)
        moved = np.zeros(gn.shape, dtype=bool)
        u_next, g_t, gn_t, traj_t = u, g.copy(), gn.copy(), traj
        for _ in range(MAX_HALVINGS + 1):
            if not np.any(pending):
                break
            u_t = np.where(pending[..., None], u - alpha[..., None] * delta, u_next)
            rows = _rows(pending)
            g_r, gn_r, part = run(u_t[rows], rows)
            if rows is Ellipsis:
                traj_t = part
            elif np.any(part.failed) or not traj_t.put(rows, part):  # a flag may move the grid
                rows = _rows(~stalled)
                g_r, gn_r, part = run(u_t[rows], rows)
                traj_t = part if rows is Ellipsis else part.spread(rows, gn.size)
            g_t[rows], gn_t[rows] = g_r, gn_r
            better = pending & (gn_t < gn)  # false for a non-finite norm
            u_next = np.where(better[..., None], u_t, u_next)
            moved |= better
            pending &= ~better
            alpha = np.where(pending, 0.5 * alpha, alpha)
        stalled |= pending
        if not np.any(moved):
            break
        u = u_next
        g = np.where(stalled[..., None], g, g_t)
        gn = np.where(stalled, gn, gn_t)
        traj = traj_t
        history.append((u.copy(), gn.copy(), np.where(moved, alpha, 0.0)))
    return u, g, gn, traj, history


def shooting_jacobian(sys, traj, pinned=None):
    """Newton matrix of the one-period residual along ``traj``.

    M - I, M the monodromy of ``sys``. With ``pinned`` (oscillators) it is
    bordered by the scaling columns S = d(end state)/d(scaling) of
    ``sys.dF_dscale`` and by one phase row per column, row i pinning state
    ``pinned[i]``: [[M - I, S], [P, 0]].
    """
    if pinned is None:
        M, _ = transition_chain(sys, traj)
        return M - np.eye(M.shape[-1])
    M, S = transition_chain(sys, traj, with_scale_columns=True)
    N, m = S.shape[-2:]
    J = np.zeros(M.shape[:-2] + (N + m, N + m))
    J[..., :N, :N] = M - np.eye(N)
    J[..., :N, N:] = S
    J[..., N + np.arange(m), pinned] = 1.0
    return J


class Shooting:
    """One shooting problem: the ``run`` and ``newton_step`` damped_newton consumes.

    Integrates ``instance`` (one circuit or a batch) over ``horizon`` from
    the state part of the unknown, first step backward Euler. A forced
    problem (``phase`` None) has unknown y and residual phi(y) - y. An
    oscillator has unknown (y, a): the right-hand side is scaled by a, the
    residual gains the phase row y_j - value, and the Jacobian is bordered.
    A residual is unusable (norm inf) where a is not above ``SCALE_FLOOR``
    or where a batched integration flagged the sample.
    """

    def __init__(
        self, instance, horizon, phase=None, scheme=TRAPEZOIDAL, n_steps=200,
        newton=NewtonOptions(),
    ):
        self.instance = instance
        self.horizon = horizon
        self.phase = phase
        self.pinned = None if phase is None else [phase.index]
        self.options = dict(scheme=scheme, n_steps=n_steps, newton=newton, stabilized_start=True)

    def system(self, u, rows):
        """The circuit of batch rows ``rows``, scaled by the period scales in ``u``."""
        a = None if self.phase is None else np.maximum(u[..., self.instance.n], SCALE_FLOOR)
        return CircuitDae(self.instance.take(rows), scale=a)

    def run(self, u, rows):
        n = self.instance.n
        y = u[..., :n]
        traj = integrate(self.system(u, rows), y, 0.0, self.horizon, **self.options)
        g = traj.end - y
        unusable = np.zeros(u.shape[:-1], dtype=bool) if traj.failed is None else traj.failed
        if self.phase is not None:
            unusable = unusable | (u[..., n] <= SCALE_FLOOR)  # the scaling must stay positive
            g = np.concatenate([g, y[..., self.phase.index, None] - self.phase.value], axis=-1)
        return g, np.where(unusable, np.inf, norm_inf(g)), traj

    def newton_step(self, u, g, traj, rows):
        traj = Trajectory(traj.times, traj.states[:, rows], traj.gammas)
        J = shooting_jacobian(self.system(u, rows), traj, self.pinned)
        delta = batched_solve(J, g[..., None])[..., 0]
        if self.phase is not None and rows is Ellipsis and np.all(~np.isfinite(delta)):
            raise ConvergenceError(
                "singular bordered shooting Jacobian; the phase pick may be "
                f"degenerate (state {self.phase.index} stationary at t=0): choose "
                "another state index or level"
            )
        return delta


def stationary_orbits(traj, phase):
    """Samples of ``traj`` whose phase state swings less than ``MIN_SWING``
    (relative to 1 + |level|) over the period: an equilibrium solves the
    oscillator residual for every period, so such an orbit is dead."""
    swing = np.ptp(traj.states[..., phase.index], axis=0)
    return swing < MIN_SWING * (1.0 + abs(phase.value))


def solve_forced(
    instance,
    period,
    y0=None,
    tol=1e-5,
    scheme=TRAPEZOIDAL,
    n_steps=200,
    newton=NewtonOptions(),
):
    """Shooting Newton for the periodic steady state of a driven circuit."""
    if not period > 0:
        raise ValueError("period must be positive")
    if y0 is None:
        y0 = dc_operating_point(instance)
    y0 = np.asarray(y0, dtype=float)
    if instance.batch_size > 1 and y0.ndim == 1:
        y0 = np.broadcast_to(y0, (instance.batch_size, y0.size)).copy()
    problem = Shooting(instance, period, None, scheme, n_steps, newton)
    y, g, gn, traj, history = damped_newton(y0, problem.run, problem.newton_step, tol)
    converged = gn <= tol
    if not np.any(converged):
        raise ConvergenceError(
            f"forced shooting did not converge (residual {np.min(gn):.3e})"
        )
    return PssSolution(y, period, traj, len(history) - 1, gn, converged)


def solve_autonomous(
    instance,
    phase,
    period_guess,
    y0,
    tol=1e-5,
    scheme=TRAPEZOIDAL,
    n_steps=200,
    newton=NewtonOptions(),
):
    """Shooting Newton for an oscillator: unknowns are (y, period scale).

    ``phase`` pins one state at t = 0; ``period_guess`` sets the scaled
    integration horizon, and the converged period is period_guess * a.

    A converged orbit along which the phase state does not swing
    (``stationary_orbits``) is the DC equilibrium, not an oscillation: a
    batched solve reports that sample as not converged, and a solve whose
    every sample is stationary raises OscillationError.

    Exactly conservative circuits (a lossless LC tank, say) are out of
    scope: every neighboring orbit there is periodic, so the bordered
    Jacobian is singular by construction and any period near the linear
    resonance satisfies the residual test.
    """
    if not period_guess > 0:
        raise ValueError("period guess must be positive")
    if not instance.circuit.is_autonomous:
        raise ValueError("circuit has a time-varying source; use solve_forced")
    n = instance.n
    y0 = np.asarray(y0, dtype=float)
    batch = (instance.batch_size,) if instance.batch_size > 1 else y0.shape[:-1]
    if batch and y0.ndim == 1:
        y0 = np.broadcast_to(y0, batch + (n,)).copy()
    u0 = np.concatenate([y0, np.ones(batch + (1,))], axis=-1)
    problem = Shooting(instance, period_guess, phase, scheme, n_steps, newton)
    u, g, gn, traj, history = damped_newton(u0, problem.run, problem.newton_step, tol)
    converged = gn <= tol
    dead = converged & stationary_orbits(traj, phase)
    if np.all(dead):
        raise OscillationError(f"shooting converged to a stationary orbit (state {phase.index})")
    converged = converged & ~dead
    if not np.any(converged):
        raise ConvergenceError(
            f"autonomous shooting did not converge (residual {np.min(gn):.3e})"
        )
    y, a = u[..., :n], u[..., n]
    return PssSolution(
        y, period_guess * a, traj, len(history) - 1, gn, converged, a, phase
    )


def solve_nominal(circuit, period=None, phase_index=None, phase_value=None, **options):
    """Periodic steady state of the nominal circuit, where every analysis starts.

    A driven circuit is solved over ``period`` (the excitation's if None).
    With ``phase_index`` the circuit is an oscillator: ``estimate_period``
    gives the period guess and start, and the phase condition pins that
    state at ``phase_value`` (the estimated mid-range level if None); the
    solution carries it. ``options`` go to the shooting solver.
    """
    nominal = circuit.realize_nominal()
    if phase_index is None:
        return solve_forced(nominal, period or circuit.fundamental_period(), **options)
    est = estimate_period(nominal, phase_index)
    level = est.level if phase_value is None else float(phase_value)
    phase = PhaseCondition(phase_index, level)
    return solve_autonomous(nominal, phase, est.period, est.y0, **options)


# ---------------------------------------------------------------------------
# nominal-period estimation


@dataclass
class EstimatedPeriod:
    period: float
    level: float
    y0: np.ndarray


def _oscillation_frequency(instance, x_dc):
    """Angular frequency and shape of the least-damped oscillatory mode at DC.

    Eigenpairs of the linearized pencil -G v = lambda C v, from mu =
    1 / lambda, the eigenvalues of (-G)^{-1} C, which has the same
    eigenvectors (G is nonsingular at a DC point). The algebraic states,
    where C is singular, give mu = 0 up to rounding (infinite lambda); they
    are discarded. The mode is the eigenvector rotated so its largest entry
    is real, whose real part is scaled to a largest entry of 1.
    """
    ev = instance.eval_dae(x_dc, 0.0)
    mu, vecs = np.linalg.eig(np.linalg.solve(-ev.df_dx, ev.dq_dx))
    keep = np.abs(mu) > 1e-12 * np.max(np.abs(mu), initial=0.0)
    lam, vecs = 1.0 / mu[keep], vecs[:, keep]
    osc = np.nonzero(np.abs(lam.imag) > 1e-9 * (1.0 + np.abs(lam.real)))[0]
    if osc.size == 0:
        raise OscillationError("no oscillatory mode at the DC operating point")
    k = osc[np.argmax(lam[osc].real / np.maximum(np.abs(lam[osc]), 1e-300))]
    v = (vecs[:, k] * np.exp(-1j * np.angle(vecs[np.argmax(np.abs(vecs[:, k])), k]))).real
    return float(abs(lam[k].imag)), v / np.max(np.abs(v))


KICK = 0.01  # start-up perturbation, relative to 1 + the largest DC state
STEPS_PER_LINEAR_PERIOD = 50  # trapezoidal steps per linearized period of the estimate
MAX_ESTIMATE_PERIODS = 60  # linearized periods the start-up may run before it gives up
SPACING_RTOL = 1e-3  # spread of the last three crossing spacings, relative to their mean
SWING_RTOL = 0.01  # change of the peak-to-peak from one pair of cycles to the next


def _last_cycles(wave, level):
    """Indices of the last five rising crossings of ``level`` (fewer if absent)."""
    return np.nonzero((wave[:-1] < level) & (wave[1:] >= level))[0][-5:]


def estimate_period(instance, state_index):
    """Estimate an oscillator's period, phase level, and on-cycle state.

    Kicks the DC point along the least-damped oscillatory mode and runs a
    trapezoidal transient, ``STEPS_PER_LINEAR_PERIOD`` steps per linearized
    period, two periods at a time, until its last four cycles, between
    rising crossings of their mid-range level (the returned level), have
    settled: the last three spacings (the period is their mean) agree within
    ``SPACING_RTOL``, and the peak-to-peak of the last two cycles is within
    ``SWING_RTOL`` of the two before. The shooting start is the state at the
    last crossing. A transient unsettled after ``MAX_ESTIMATE_PERIODS``
    linearized periods, or swinging below ``MIN_SWING``, raises OscillationError.
    """
    x_dc = dc_operating_point(instance)
    omega, mode = _oscillation_frequency(instance, x_dc)
    t_lin = 2.0 * np.pi / omega
    sys = CircuitDae(instance)
    # a few backward-Euler steps damp the leftover constraint mismatch
    # before the (non L-stable) trapezoidal rule takes over
    x_start = x_dc + KICK * (1.0 + np.max(np.abs(x_dc))) * mode
    pre = integrate(sys, x_start, 0.0, t_lin / 100.0, scheme=BACKWARD_EULER, n_steps=4)
    t, states = pre.times[-1:], pre.states[-1:]
    while t[-1] < MAX_ESTIMATE_PERIODS * t_lin:
        chunk = integrate(
            sys, states[-1], t[-1], t[-1] + 2.0 * t_lin, n_steps=2 * STEPS_PER_LINEAR_PERIOD
        )
        t = np.concatenate([t, chunk.times[1:]])
        states = np.concatenate([states, chunk.states[1:]])
        wave, recent = states[:, state_index], chunk.states[:, state_index]
        level, swing = 0.5 * (recent.min() + recent.max()), np.ptp(recent)
        if swing < MIN_SWING * (1.0 + abs(level)):
            raise OscillationError(f"no oscillation on state {state_index} (swing {swing:.3e})")
        k = _last_cycles(wave, level)
        if k.size == 5:  # re-level on the last four cycles, however long they are
            level = 0.5 * (wave[k[0] :].min() + wave[k[0] :].max())
            k = _last_cycles(wave, level)
        if k.size < 5:
            continue
        frac = (level - wave[k]) / (wave[k + 1] - wave[k])
        spacing = np.diff(t[k] + frac * (t[k + 1] - t[k]))[-3:]
        before = np.ptp(wave[k[0] : k[2] + 1])
        if (
            np.max(np.abs(spacing - spacing.mean())) <= SPACING_RTOL * spacing.mean()
            and abs(np.ptp(wave[k[2] : k[4] + 1]) - before) <= SWING_RTOL * before
        ):
            y0 = states[k[-1]] + frac[-1] * (states[k[-1] + 1] - states[k[-1]])
            return EstimatedPeriod(float(spacing.mean()), float(level), y0)
    raise OscillationError(f"no settled cycle on state {state_index} after {t[-1]:.3g} s")
