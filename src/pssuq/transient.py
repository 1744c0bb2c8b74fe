"""Implicit time integration for DAE systems d Q(w)/dt + F(w, t) = 0.

Any object with ``eval(w, t) -> (Q, F)`` and
``eval_with_jac(w, t) -> (Q, F, dQ/dw, dF/dw)`` can be integrated; the
circuit adapter of the shooting module (one circuit or a batch of them)
and the stacked collocation DAE both provide this interface. ``F``
includes the source term, so the one-step residual of the two-point
schemes here is

    Q(w_k) - Q(w_{k-1}) + h_k * (g1 * F(w_k, t_k) + g2 * F(w_{k-1}, t_{k-1})) = 0

with (g1, g2) = (1, 0) for backward Euler and (0.5, 0.5) for the
trapezoidal rule. Each step is solved by an inner Newton iteration with
the exact step Jacobian dQ/dw + g1*h*dF/dw. For a system with
``linearize(w, t)`` and ``terms(lin, t=None)`` (the circuit adapter), the
converged state's linearization is the next step's first iterate, with
only the source evaluated anew, so each iterate is evaluated once.

States may carry a leading batch axis; batched runs advance in lockstep
on one shared grid. A step on a fixed grid that fails to converge for any
sample is bisected for the whole batch, exactly as an unbatched step is;
the members that would have converged take the finer steps too. Only at
the bisection floor do the runs differ: an unbatched run raises, a
batched run freezes the samples that still fail where the grid step
began, flags them (rather than raising), which is what the Monte Carlo
driver needs, and takes that step again for the rest without the points
the bisection added. A sample that can never take a step thus leaves the
grid as it was. The recorded trajectory always reflects the steps
actually taken, so the one-period linearization chain stays exact.
"""

from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge."""


class _FloorFailure(Exception):
    """Samples ``bad`` of a batched step still fail at the bisection floor."""

    def __init__(self, bad):
        super().__init__()
        self.bad = bad


@dataclass(frozen=True)
class IntegrationScheme:
    kind: str
    gamma1: float
    gamma2: float


BACKWARD_EULER = IntegrationScheme("backward_euler", 1.0, 0.0)
TRAPEZOIDAL = IntegrationScheme("trapezoidal", 0.5, 0.5)

_SCHEMES = {s.kind: s for s in (BACKWARD_EULER, TRAPEZOIDAL)}


def scheme_by_name(name):
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown integration scheme {name!r}") from None


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-9  # used as both absolute and relative threshold


STEP_MAX_ITER = 50  # Newton iterations per implicit step
H_MIN = 1e-15  # smallest step a bisection may take


@dataclass
class Trajectory:
    """Time grid and states of one integration run.

    ``states[k]`` is the state at ``times[k]``; shape (P, N) or (P, B, N)
    for batched runs. ``gammas[k]`` holds the (gamma1, gamma2) weights the
    k-th step was taken with, so derivative chains can replay mixed-scheme
    runs (an L-stable first step, say) exactly. Step factors (the
    Jacobians at each grid point) are re-evaluated on demand by the chain
    routines, so trajectories stay small.
    """

    times: np.ndarray
    states: np.ndarray
    gammas: np.ndarray  # (P-1, 2)
    failed: np.ndarray | None = None  # per-sample failure mask (batched runs)
    fail_times: np.ndarray | None = None  # start of the step a flagged sample froze at

    @property
    def end(self):
        return self.states[-1]

    @property
    def n_points(self):
        return self.times.size

    def put(self, rows, part):
        """Write ``part``, a run of batch rows ``rows``, into them; False if on another grid."""
        if not np.array_equal(part.times, self.times):
            return False
        self.states[:, rows] = part.states
        self.failed[rows], self.fail_times[rows] = part.failed, part.fail_times
        return True

    def spread(self, rows, batch):
        """This run of batch rows ``rows`` as one of ``batch`` rows, the others NaN and failed."""
        P, n = self.n_points, self.states.shape[-1]
        full = Trajectory(self.times, np.full((P, batch, n), np.nan), self.gammas,
                          np.ones(batch, dtype=bool), np.full(batch, self.times[0]))
        full.put(rows, self)
        return full


def batched_solve(J, R):
    """Solve J X = R, J (..., m, m) and R (..., m, k); NaN for singular J.

    One batched call does the work; only when it reports a singular matrix
    are the systems solved one by one, so the other samples keep theirs.
    """
    try:
        return np.linalg.solve(J, R)
    except np.linalg.LinAlgError:
        flat_J = J.reshape(-1, *J.shape[-2:])
        flat_R = R.reshape(-1, *R.shape[-2:])
        out = np.empty_like(flat_R)
        for i in range(flat_J.shape[0]):
            try:
                out[i] = np.linalg.solve(flat_J[i], flat_R[i])
            except np.linalg.LinAlgError:
                out[i] = np.nan
        return out.reshape(R.shape)


def norm_inf(a):
    """max |a| over the last axis, as B-wide maxima over a state-major copy."""
    return np.abs(a.T, order="C").max(axis=0).T


def _evaluate(system, w, t):
    """(Q, F, linearization) at (w, t); None for a system without ``terms``."""
    lin = system.linearize(w, t) if hasattr(system, "terms") else None
    return (*(system.eval(w, t) if lin is None else system.terms(lin)[:2]), lin)


def _newton_step(system, w, t_prev, h, scheme, opts, prev, ignore):
    """Solve one implicit step from w; returns (new w, ``_evaluate`` at it, converged_mask).

    ``prev`` is ``_evaluate`` at (w, t_prev); its linearization, moved to
    the new time, is the first iterate's. Samples flagged in ``ignore``
    stay put and count as converged (used to skip batch members that
    failed earlier in the run).
    """
    g1, g2 = scheme.gamma1, scheme.gamma2
    q_prev, f_prev, lin = prev
    t_new = t_prev + h
    ref = norm_inf(q_prev) + abs(h) * norm_inf(f_prev)
    converged = ignore.copy()
    for k in range(STEP_MAX_ITER):
        carried = k == 0 and lin is not None
        q, f, dq, df = system.terms(lin, t_new) if carried else system.eval_with_jac(w, t_new)
        r = q - q_prev + h * (g1 * f + g2 * f_prev)
        r = np.where(np.isfinite(r), r, 1e300)
        rnorm = norm_inf(r)
        J = dq + (g1 * h) * df
        delta = batched_solve(J, r[..., None])[..., 0]
        unorm = norm_inf(delta)
        bad = ~np.isfinite(unorm)  # a NaN or inf entry anywhere in the step
        if np.any(bad):
            delta = np.where(np.isfinite(delta), delta, 0.0)
        w = w - np.where(converged[..., None], 0.0, delta)
        converged = ignore | ((converged | (
            (rnorm <= opts.tol * (1.0 + ref)) & (unorm <= opts.tol * (1.0 + norm_inf(w)))
        )) & ~bad)
        # a sample with a non-finite step did not move, so it would repeat
        # that step at every further iteration
        if np.all(converged | bad):
            break
    return w, _evaluate(system, w, t_new), converged


def _raise_step_failure(system, w, t, h):
    name = None
    locate = getattr(system, "locate_nonfinite", None)
    if locate is not None:
        name = locate(w, t)
    extra = f" (non-finite contribution from element {name})" if name else ""
    raise ConvergenceError(f"implicit step at t={t:.6g}, h={h:.3g} did not converge{extra}")


def integrate(
    system,
    w0,
    t0,
    t1,
    scheme=TRAPEZOIDAL,
    *,
    n_steps,
    newton=NewtonOptions(),
    stabilized_start=False,
):
    """Integrate from t0 to t1 on a uniform grid of ``n_steps`` steps.

    Batched initial states integrate in lockstep on a shared grid. A step
    that fails for any sample is bisected for the whole batch, exactly as
    an unbatched step is, down to the floor (``H_MIN`` or 40 halvings). A
    sample that still fails there raises in an unbatched run; in a batched
    run it is frozen at the start of the grid step, the step is taken
    again for the other samples without the bisection's points, and the
    sample is reported through ``Trajectory.failed`` with that time in
    ``Trajectory.fail_times``.

    ``stabilized_start`` takes the first step with backward Euler
    regardless of ``scheme``. This damps inconsistent algebraic components
    of the initial state, which the trapezoidal rule would otherwise carry
    forever; the shooting solvers rely on it to keep the one-period map
    contractive on the full MNA state.
    """
    w0 = np.asarray(w0, dtype=float)
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return Trajectory(np.array([t0]), w0[None], np.zeros((0, 2)))
    batched = w0.ndim > 1
    failed = np.zeros(w0.shape[:-1], dtype=bool)  # 0-d, never set, for an unbatched run
    fail_times = np.full(w0.shape[:-1], np.nan) if batched else None

    times = [float(t0)]
    states = [w0]
    gammas = []
    ev = _evaluate(system, w0, t0)

    def advance(w, t, h, ev_prev, sch, depth=0):
        """One step of size h, bisected while any sample fails to converge."""
        w_new, ev_new, conv = _newton_step(
            system, w, t, h, sch, newton, ev_prev, ignore=failed
        )
        if not np.all(conv):
            if h * 0.5 < H_MIN or depth > 40:
                if not batched:
                    _raise_step_failure(system, w, t, h)
                raise _FloorFailure(~conv)
            w_mid, ev_mid = advance(w, t, 0.5 * h, ev_prev, sch, depth + 1)
            return advance(w_mid, t + 0.5 * h, 0.5 * h, ev_mid, sch, depth + 1)
        times.append(t + h)
        states.append(w_new)
        gammas.append((sch.gamma1, sch.gamma2))
        return w_new, ev_new

    grid = np.linspace(t0, t1, n_steps + 1)
    w = w0
    for k in range(n_steps):
        sch = BACKWARD_EULER if (k == 0 and stabilized_start) else scheme
        mark = len(times)
        while True:
            try:
                w, ev = advance(w, grid[k], grid[k + 1] - grid[k], ev, sch)
                break
            except _FloorFailure as floor:
                del times[mark:], states[mark:], gammas[mark:]
                failed = failed | floor.bad
                fail_times[floor.bad] = grid[k]

    return Trajectory(np.asarray(times), np.stack(states), np.asarray(gammas),
                      failed if batched else None, fail_times)


def _jacobians(system, w, t, scaled):
    """(dQ/dw, dF/dw, dF/dscale or None) at (w, t); from one evaluation
    (``linearize``) for a system that has it."""
    if not hasattr(system, "linearize"):
        _, _, E, A = system.eval_with_jac(w, t)
        return E, A, system.dF_dscale(w, t) if scaled else None
    lin = system.linearize(w, t)
    return (*system.terms(lin)[2:], system.scale_columns(lin) if scaled else None)


def transition_chain(system, trajectory, with_scale_columns=False):
    """Accumulate d(end state)/d(initial state) along a trajectory.

    Walks the recorded steps and chains the exact derivatives of each
    implicit step equation (using each step's own scheme weights). With
    ``with_scale_columns`` the derivative of the end state with respect to
    the system's auxiliary scaling coefficients (columns of
    ``system.dF_dscale``) is accumulated as well, starting from zero.
    Returns (M, S) where S is None unless requested.

    Only the columns of M that the first step leaves nonzero for some
    sample are chained, the rest being exactly zero: after a backward-Euler
    first step, the charge and flux states; after a trapezoidal one, all.
    """
    times, states, gam = trajectory.times, trajectory.states, trajectory.gammas
    n = states.shape[-1]
    batch = states.shape[1:-1]
    M = np.broadcast_to(np.eye(n), batch + (n, n))
    cols = np.arange(n)
    E, A, P = _jacobians(system, states[0], times[0], with_scale_columns)
    S = np.zeros(batch + (n, P.shape[-1])) if with_scale_columns else None
    for k in range(1, times.size):
        h = times[k] - times[k - 1]
        g1, g2 = gam[k - 1]
        carry = E - (g2 * h) * A
        rhs = carry @ M
        if k == 1:
            cols = np.flatnonzero(np.any(rhs != 0, axis=tuple(range(rhs.ndim - 1))))
            rhs = rhs[..., cols]
        E, A, P_k = _jacobians(system, states[k], times[k], with_scale_columns)
        lhs = E + (g1 * h) * A
        if with_scale_columns:
            rhs_s = carry @ S - h * (g1 * P_k + g2 * P)
            sol = batched_solve(lhs, np.concatenate([rhs, rhs_s], axis=-1))
            M, S = sol[..., : cols.size], sol[..., cols.size :]
            P = P_k
        else:
            M = batched_solve(lhs, rhs)
    full = np.zeros(batch + (n, n))
    full[..., cols] = M
    return full, S
