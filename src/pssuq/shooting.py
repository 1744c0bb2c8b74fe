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
``damped_newton`` consumes, for one circuit or a batch, and declares the
shooting options every solver forwards as ``**options``: ``tol`` and
``n_steps`` here, ``scheme`` and ``newton`` in ``integrate``. A (B, d)
parameter batch advances in lockstep through the same grids, which is how
the Monte Carlo driver amortizes its sampling loop and how the stochastic
solver (``stpss``) runs its K testing-node circuits. A step one sample
cannot take is bisected for the whole batch; ``floor_failure`` names the first
sample the integrator flags at the bisection floor: one circuit's solve
raises with it, a flagged batch sample is unusable. Converged and stalled
samples retire: later runs integrate and chain only the pending rows,
which they write and read in the live trajectory's buffer, and a run that
changes the grid is repeated for every live sample, so results equal
those of the lockstep batch.
``solve_forced`` and ``solve_autonomous`` are one solve, the oscillator's
adding the phase row and rejecting an orbit whose phase state does not
swing (the DC point); ``solve_at`` solves the circuit at given xi from a
start, the one place a start picks between them. ``nominal_start`` is the
nominal circuit's DC point or, for an oscillator, ``estimate_period``: a
transient kicked along the least-damped linearized mode and stopped once
its cycle settles (Aprille & Trick, IEEE Trans. Circuit Theory, 1972).
``solve_nominal`` is ``solve_at`` from it at xi = 0, and ``linear_start``
starts a batch at xi from that solution's first-order parameter
sensitivity (the Monte Carlo's start). The same linearized
frequency at the DC points of a batch [0; xi] gives
``linearized_period_scales``, omega(0) / omega(xi), from which an
oscillator's chaos solve (``stpss.solve_st``, ``solve_at``'s counterpart)
starts each testing node's period scale.
"""

from dataclasses import dataclass

import numpy as np

from .circuit import CircuitError, dc_operating_point
from .transient import (
    BACKWARD_EULER,
    ConvergenceError,
    Dae,
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
    scale = None  # as a start: every sample at scale 1 over ``period``

    def summary(self):
        return {
            "period": np.asarray(self.period).tolist(),
            "iterations": int(self.iterations),
            "residual_norm": np.asarray(self.residual_norm).tolist(),
            "converged": np.asarray(self.converged).tolist(),
        }


@dataclass
class NominalStart:
    """A shooting solve's start: state ``y``, period (a driven circuit's, or
    an oscillator's scaled horizon), an oscillator's phase condition and
    its period scale per sample (1 if None) (``y0`` and ``level`` read an
    estimate's state and level)."""

    y: np.ndarray
    period: float
    phase: PhaseCondition | None = None
    scale: np.ndarray | None = None
    y0 = property(lambda self: self.y)
    level = property(lambda self: self.phase.value)


class CircuitDae(Dae):
    """Adapts a CircuitInstance to the integrator's ``Dae`` contract.

    ``F = f - B u(t)``; with a period scaling attached the right-hand side
    becomes ``a * (f - B u)`` and ``scale_columns`` gives its derivative with
    respect to ``a`` (one column); ``linearize`` returns the instance
    evaluation from which ``terms`` and ``scale_columns`` take them.
    """

    def __init__(self, instance, scale=None):
        self.instance = instance
        self._scale = None if scale is None else np.asarray(scale, dtype=float)[..., None]

    def linearize(self, w, t):
        return self.instance.eval_dae(w, t)

    def terms(self, ev, t=None):
        """(Q, F, dQ/dw, dF/dw) of the instance evaluation ``ev``; at time
        ``t``, if given, with only B u evaluated again."""
        F = (ev.f - (ev.bu if t is None else self.instance.source(t))).reshape(ev.f.shape)
        dF = ev.df_dx
        if (a := self._scale) is not None:
            F, dF = a * F, a[..., None] * dF
        return ev.q, F, ev.dq_dx, dF

    def scale_columns(self, ev):
        """dF/da of the instance evaluation ``ev``."""
        return (ev.f - ev.bu)[..., None]

    def jacobians(self, w, t):
        """(dQ/dw, dF/dw): the instance's Jacobian-only evaluation if unscaled."""
        return self.instance.jacobians(w) if self._scale is None else super().jacobians(w, t)


def floor_failure(instance, traj):
    """The first sample of ``traj`` (a run of ``instance``) flagged at the
    bisection floor, as (row, text), or None: the text gives the time it
    froze at and the element with a non-finite contribution there, if any."""
    failed = traj.failed.ravel()
    if not failed.any():
        return None
    k = int(np.argmax(failed))
    t = float(traj.fail_times.ravel()[k])
    element = instance.take([k]).find_nonfinite_element(traj.end.reshape(failed.size, -1)[k], t)
    extra = f" (non-finite contribution from element {element})" if element else ""
    return k, f"implicit step at t={t:.6g} did not converge at the bisection floor{extra}"


def _raise_on_floor_failure(instance, traj):
    """Raise ConvergenceError with ``floor_failure``'s text for a flagged run of one circuit."""
    if traj.failed.ndim == 0 and traj.failed:
        raise ConvergenceError(floor_failure(instance, traj)[1])


MAX_HALVINGS = 8  # step halvings a Newton sample may try before it stalls
MAX_ITER = 50  # shooting Newton iterations before a solve gives up
SCALE_FLOOR = 1e-6  # an oscillator's period scaling must stay above this
MIN_SWING = 1e-9  # smallest swing, relative to 1 + |level|, taken as oscillation
SHOOTING_TOL = 1e-5  # residual norm at which shooting Newton stops, by default
STEPS_PER_PERIOD = 200  # integration steps over the period or scaled horizon, by default


def _rows(mask):
    """Indices of the rows ``mask`` marks; ``...`` (views, no copies) for all."""
    return Ellipsis if np.all(mask) else np.flatnonzero(mask)


def damped_newton(u0, run, newton_step, tol):
    """Damped Newton on one unknown vector (m,) or a batch of them (B, m).

    ``run(u, rows, into)`` returns ``(g, norm, traj)`` for the unknowns
    ``u`` of batch rows ``rows`` (``...``: all): the residual, its infinity
    norm per sample (inf where the residual is unusable) and the trajectory
    from which ``newton_step(u, g, traj, rows)`` returns their Newton step.
    Only pending samples are run and stepped; the others keep their
    iterate, residual and trajectory rows. A pending run writes its states
    into its rows of the live trajectory (``into``, ``integrate``'s), so
    the batch holds one copy of it, and its flags are recorded there
    (``Trajectory.put``) unless it changes the grid or flags a sample:
    then every sample not stalled runs again in a buffer of the whole
    batch (``into`` a blank one if some sample is stalled, else None).
    Each sample halves its own step and takes the first trial whose norm
    is finite and lower. A sample whose residual or step is not finite,
    or that has not improved after ``MAX_HALVINGS`` halvings, stalls; its
    trajectory row is meaningless. At most ``MAX_ITER`` iterations are
    taken.

    Returns ``(u, g, norm, traj, history)``. ``history`` holds one
    ``(u, norm, step_scale)`` per iterate, the first being ``u0`` with no
    step scale, so ``len(history) - 1`` Newton iterations were taken.
    """
    u = np.array(u0, dtype=float, copy=True)
    g, gn, traj = run(u, ..., None)
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
            g_r, gn_r, part = run(u_t[rows], rows, traj_t.take(rows))
            if rows is Ellipsis:
                traj_t = part
            elif np.any(part.failed) or not traj_t.put(rows, part):  # a flag may move the grid
                del part, traj_t  # the run off the grid, and an earlier rerun, go first
                rows = _rows(~stalled)
                # beside a stalled sample: straight into a blank buffer of the batch
                blank = None if rows is Ellipsis else Trajectory(
                    None, np.full_like(traj.states, np.nan), None, rows=rows)
                g_r, gn_r, part = run(u_t[rows], rows, blank)
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
    ``sys.scale_columns`` and by one phase row per column, row i pinning state
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
    the state part of the unknown on ``n_steps`` steps, first step backward
    Euler; ``integration`` (``scheme``, ``newton``) goes to ``integrate``.
    A forced problem (``phase`` None) has unknown y and residual
    phi(y) - y. An oscillator has unknown (y, a): the right-hand side is
    scaled by a, the residual gains the phase row y_j - value, and the
    Jacobian is bordered. Newton stops at residual norm ``tol``. A
    residual is unusable (norm inf) where a is not above ``SCALE_FLOOR``
    or where the run flagged a batch sample; one circuit's flagged run raises.
    These are the shooting options of every solver: each passes its
    ``**options`` on to here.
    """

    def __init__(self, instance, horizon, phase=None, tol=SHOOTING_TOL, n_steps=STEPS_PER_PERIOD,
                 **integration):
        self.instance = instance
        self.horizon = horizon
        self.phase = phase
        self.tol = tol
        self.pinned = None if phase is None else [phase.index]
        self.options = dict(n_steps=n_steps, stabilized_start=True, **integration)

    def system(self, u, rows):
        """The circuit of batch rows ``rows``, scaled by the period scales in ``u``."""
        a = None if self.phase is None else np.maximum(u[..., self.instance.n], SCALE_FLOOR)
        return CircuitDae(self.instance.take(rows), scale=a)

    def run(self, u, rows, into):
        """``damped_newton``'s run of batch rows ``rows``, into ``into`` if not None."""
        n = self.instance.n
        y = u[..., :n]
        traj = integrate(self.system(u, rows), y, 0.0, self.horizon, into=into, **self.options)
        _raise_on_floor_failure(self.instance, traj)
        g = traj.end - y
        unusable = traj.failed
        if self.phase is not None:
            unusable = unusable | (u[..., n] <= SCALE_FLOOR)  # the scaling must stay positive
            g = np.concatenate([g, y[..., self.phase.index, None] - self.phase.value], axis=-1)
        return g, np.where(unusable, np.inf, norm_inf(g)), traj

    def newton_step(self, u, g, traj, rows):
        J = shooting_jacobian(self.system(u, rows), traj.take(rows), self.pinned)
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


def _shoot(instance, start, options):
    """Shooting Newton from ``start``: ``y`` (the DC point if None), ``period``
    and ``phase``, with the ``Shooting`` options ``options``. Without a
    phase the circuit is driven and ``period`` is its period; with one it
    is an oscillator and ``period`` the scaled horizon. An instance
    realized at (B, d) coordinates gives (B, ...) results, at B = 1 too."""
    phase = start.phase
    if not start.period > 0:
        raise ValueError("period guess must be positive" if phase else "period must be positive")
    if phase is not None and not instance.circuit.is_autonomous:
        raise ValueError("circuit has a time-varying source; use solve_forced")
    n = instance.n
    y0 = np.asarray(dc_operating_point(instance) if start.y is None else start.y, dtype=float)
    if not instance.scalar and y0.ndim == 1:
        y0 = np.broadcast_to(y0, (instance.batch_size, n)).copy()
    u0 = y0 if phase is None else np.concatenate([y0, np.ones((*y0.shape[:-1], 1))], axis=-1)
    if start.scale is not None:
        u0[..., n] = start.scale
    problem = Shooting(instance, start.period, phase, **options)
    u, g, gn, traj, history = damped_newton(u0, problem.run, problem.newton_step, problem.tol)
    converged = gn <= problem.tol
    if phase is not None:
        dead = converged & stationary_orbits(traj, phase)
        if np.all(dead):
            raise OscillationError(
                f"shooting converged to a stationary orbit (state {phase.index})"
            )
        converged = converged & ~dead
    if not np.any(converged):
        kind = "forced" if phase is None else "autonomous"
        raise ConvergenceError(f"{kind} shooting did not converge (residual {np.min(gn):.3e})")
    a = None if phase is None else u[..., n]
    period = start.period if a is None else start.period * a
    return PssSolution(u[..., :n], period, traj, len(history) - 1, gn, converged, a, phase)


def solve_forced(instance, period, y0=None, **options):
    """Shooting Newton for the periodic steady state of a driven circuit,
    from ``y0`` (the DC point if None); ``options`` are ``Shooting``'s."""
    return _shoot(instance, NominalStart(y0, period), options)


def solve_autonomous(instance, phase, period_guess, y0, scale=None, **options):
    """Shooting Newton for an oscillator: unknowns are (y, period scale);
    ``options`` are ``Shooting``'s.

    ``phase`` pins one state at t = 0; ``period_guess`` sets the scaled
    integration horizon, and the converged period is period_guess * a,
    a starting at ``scale`` (1 if None).

    A converged orbit along which the phase state does not swing
    (``stationary_orbits``) is the DC equilibrium, not an oscillation: a
    batched solve reports that sample as not converged, and a solve whose
    every sample is stationary raises OscillationError.

    Exactly conservative circuits (a lossless LC tank, say) are out of
    scope: every neighboring orbit there is periodic, so the bordered
    Jacobian is singular by construction and any period near the linear
    resonance satisfies the residual test.
    """
    return _shoot(instance, NominalStart(y0, period_guess, phase, scale), options)


def solve_at(circuit, start, xi, **options):
    """Periodic steady states of ``circuit`` at the standardized coordinates
    ``xi``, (d,) or (B, d), each solved from ``start`` (a ``NominalStart`` or
    a nominal ``PssSolution``): over its period if it has no phase
    condition, else as an oscillator with its phase condition, its period
    as the scaled horizon and its scale. ``options`` are ``Shooting``'s."""
    instance = circuit.realize(xi)
    if start.phase is None:
        return solve_forced(instance, start.period, start.y, **options)
    return solve_autonomous(
        instance, start.phase, float(start.period), start.y, start.scale, **options
    )


def nominal_start(circuit, period=None, phase_index=None, phase_value=None):
    """The nominal circuit's DC point over ``period`` (the excitation's if
    None) or, with ``phase_index``, the oscillator's ``estimate_period``, its
    phase level replaced by ``phase_value`` if given. A circuit with a
    time-varying source is no oscillator: it raises before any estimate."""
    nominal = circuit.realize_nominal()
    if phase_index is None:
        period = circuit.fundamental_period() if period is None else period
        return NominalStart(dc_operating_point(nominal), period)
    if not circuit.is_autonomous:
        raise ValueError("circuit has a time-varying source; an oscillator has none")
    start = estimate_period(nominal, phase_index)
    if phase_value is not None:
        start.phase = PhaseCondition(phase_index, float(phase_value))
    return start


def solve_nominal(circuit, period=None, phase_index=None, phase_value=None, **options):
    """Periodic steady state of the nominal circuit from its ``nominal_start``
    (same arguments); ``options`` are ``Shooting``'s."""
    start = nominal_start(circuit, period, phase_index, phase_value)
    return solve_at(circuit, start, np.zeros(circuit.dim), **options)


def linear_start(circuit, nominal, xi, **options):
    """``solve_at``'s start at the (B, d) coordinates ``xi``, to first order
    in xi about the nominal solution ``nominal``: u0 - J^-1 G xi, u0 its
    unknown (y, and scale 1 for an oscillator). One lockstep ``Shooting``
    run of the 2d + 1 circuits at 0 and +-e_j from u0 gives column j of G,
    (g(+e_j) - g(-e_j)) / 2, and the Newton matrix J of row 0. It never
    raises: a parameter with an unusable +-e_j residual gets slope 0, and
    a singular J, d = 0, a start not finite or a scale not above
    ``SCALE_FLOOR`` start at u0. ``options`` are ``Shooting``'s."""
    d, phase, n = circuit.dim, nominal.phase, np.size(nominal.y)
    u0 = np.append(nominal.y, [] if phase is None else [1.0])
    slope = np.zeros((u0.size, d))
    if d:
        xi_probe = np.vstack([np.zeros(d), np.eye(d), -np.eye(d)])
        problem = Shooting(circuit.realize(xi_probe), float(nominal.period), phase, **options)
        u = np.tile(u0, (2 * d + 1, 1))
        with np.errstate(all="ignore"):  # an unusable neighbour is handled, not reported
            g, gn, traj = problem.run(u, ..., None)
            J = shooting_jacobian(problem.system(u[:1], [0]), traj.take([0]), problem.pinned)
            usable = np.isfinite(gn[1 : d + 1]) & np.isfinite(gn[d + 1 :])
            G = np.where(usable[:, None], 0.5 * (g[1 : d + 1] - g[d + 1 :]), 0.0)
            slope = batched_solve(J, G.T[None])[0]  # NaN if J is singular
    u = u0 - xi @ slope.T
    u[~(np.all(np.isfinite(u), axis=-1) & (phase is None or u[:, n] > SCALE_FLOOR))] = u0
    return NominalStart(u[:, :n], float(nominal.period), phase, None if phase is None else u[:, n])


# ---------------------------------------------------------------------------
# nominal-period estimation


def _oscillation_frequency(instance, x_dc):
    """Angular frequency and shape of the least-damped oscillatory mode at
    the DC point ``x_dc`` of one circuit, or of each of a batch: one
    batched solve and one batched ``eig``. The frequency is NaN where no
    mode oscillates.

    Eigenpairs of the linearized pencil -G v = lambda C v, from mu =
    1 / lambda, the eigenvalues of (-G)^{-1} C, which has the same
    eigenvectors (G is nonsingular at a DC point; a sample where it is
    singular has no mode). The algebraic states, where C is singular, give
    mu = 0 up to rounding (infinite lambda); they are discarded. The mode
    is the eigenvector rotated so its largest entry is real, whose real
    part is scaled to a largest entry of 1.
    """
    ev = instance.eval_dae(x_dc, 0.0)
    pencil = batched_solve(-ev.df_dx, ev.dq_dx)  # NaN where G is singular
    mu, vecs = np.linalg.eig(np.where(np.isfinite(pencil).all((-2, -1), keepdims=True), pencil, 0))
    keep = np.abs(mu) > 1e-12 * np.max(np.abs(mu), axis=-1, keepdims=True, initial=0.0)
    lam = 1.0 / np.where(keep, mu, 1.0)
    osc = keep & (np.abs(lam.imag) > 1e-9 * (1.0 + np.abs(lam.real)))
    growth = np.where(osc, lam.real / np.maximum(np.abs(lam), 1e-300), -np.inf)
    k = np.argmax(growth, axis=-1)[..., None]
    omega = np.where(osc.any(axis=-1), np.abs(np.take_along_axis(lam, k, -1)[..., 0].imag), np.nan)
    vec = np.take_along_axis(vecs, k[..., None], -1)[..., 0]
    top = np.take_along_axis(vec, np.argmax(np.abs(vec), axis=-1)[..., None], -1)
    v = (vec * np.exp(-1j * np.angle(top))).real
    return omega, v / np.max(np.abs(v), axis=-1, keepdims=True)


def linearized_period_scales(circuit, xi):
    """Period scales omega(0) / omega(xi) of the linearized oscillation at
    the DC points of ``circuit`` at the (K, d) coordinates ``xi``, from one
    batched DC solve of [0; xi]: an oscillator's period scale a(xi) as its
    linearization predicts it, exactly 1 at xi = 0. A point with no
    oscillatory mode gets 1, and so does every point if the batch has no
    DC point."""
    instance = circuit.realize(np.concatenate([np.zeros((1, circuit.dim)), xi]))
    try:
        omega = _oscillation_frequency(instance, dc_operating_point(instance))[0]
    except CircuitError:
        return np.ones(len(xi))
    a = omega[0] / omega[1:]
    return np.where(np.isfinite(a), a, 1.0)


KICK = 0.01  # start-up perturbation, relative to 1 + the largest DC state
STEPS_PER_LINEAR_PERIOD = 50  # trapezoidal steps per linearized period of the estimate
MAX_ESTIMATE_PERIODS = 60  # linearized periods the start-up may run before it gives up
SPACING_RTOL = 1e-3  # spread of the last three crossing spacings, relative to their mean
SWING_RTOL = 0.01  # change of the peak-to-peak from one pair of cycles to the next


def _last_cycles(wave, level):
    """Indices of the last five rising crossings of ``level`` (fewer if absent)."""
    return np.nonzero((wave[:-1] < level) & (wave[1:] >= level))[0][-5:]


def estimate_period(instance, state_index):
    """An oscillator's ``NominalStart``: on-cycle state, period estimate, and
    the phase condition pinning ``state_index`` at its estimated level.

    Kicks the DC point along the least-damped oscillatory mode and runs a
    trapezoidal transient, ``STEPS_PER_LINEAR_PERIOD`` steps per linearized
    period, two periods at a time, until its last four cycles, between
    rising crossings of their mid-range level (the returned level), have
    settled: the last three spacings agree within ``SPACING_RTOL``, and the
    peak-to-peak of the last two cycles is within ``SWING_RTOL`` of the two
    before. The period is their mean T less the trapezoidal rule's lag at
    step h, T / (1 + (2 pi h / T)^2 / 12); the start is the state at the
    last crossing. A transient unsettled after ``MAX_ESTIMATE_PERIODS``
    linearized periods, or swinging below ``MIN_SWING``, raises OscillationError.
    """
    x_dc = dc_operating_point(instance)
    omega, mode = _oscillation_frequency(instance, x_dc)
    if not np.isfinite(omega):
        raise OscillationError("no oscillatory mode at the DC operating point")
    t_lin = 2.0 * np.pi / float(omega)
    sys = CircuitDae(instance)
    # a few backward-Euler steps damp the leftover constraint mismatch
    # before the (non L-stable) trapezoidal rule takes over
    x_start = x_dc + KICK * (1.0 + np.max(np.abs(x_dc))) * mode
    pre = integrate(sys, x_start, 0.0, t_lin / 100.0, scheme=BACKWARD_EULER, n_steps=4)
    _raise_on_floor_failure(instance, pre)
    t, states = pre.times[-1:], pre.states[-1:]
    while t[-1] < MAX_ESTIMATE_PERIODS * t_lin:
        chunk = integrate(
            sys, states[-1], t[-1], t[-1] + 2.0 * t_lin, n_steps=2 * STEPS_PER_LINEAR_PERIOD
        )
        _raise_on_floor_failure(instance, chunk)
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
            period, h = spacing.mean(), t_lin / STEPS_PER_LINEAR_PERIOD
            period /= 1.0 + (2.0 * np.pi * h / period) ** 2 / 12.0
            return NominalStart(y0, float(period), PhaseCondition(state_index, float(level)))
    raise OscillationError(f"no settled cycle on state {state_index} after {t[-1]:.3g} s")
