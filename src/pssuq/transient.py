"""Implicit time integration for DAE systems d Q(w)/dt + F(w, t) = 0.

Every system is a ``Dae``: ``linearize(w, t)`` evaluates it once and
``terms(lin, t=None)`` gives (Q, F, dQ/dw, dF/dw) from that evaluation; a
scaled system's ``scale_columns(lin)`` gives dF/d(scaling), ``jacobians``
dQ/dw and dF/dw alone. The shooting module's circuit adapter (one circuit
or a batch) and the stacked collocation DAE are both ``Dae``s. ``F``
includes the source term: the two-point schemes' one-step residual is

    Q(w_k) - Q(w_{k-1}) + h_k * (g1 * F(w_k, t_k) + g2 * F(w_{k-1}, t_{k-1})) = 0

with (g1, g2) = (1, 0) for backward Euler and (0.5, 0.5) for the
trapezoidal rule. Each step is solved by an inner Newton iteration with
the exact step Jacobian dQ/dw + g1*h*dF/dw. The converged state's
linearization is the next step's first iterate, with only the source
evaluated anew, so each iterate is evaluated once.

States may carry a leading batch axis; batched runs advance in lockstep
on one shared grid. A step that fails for any sample is bisected for the
whole batch, and a sample that still fails at the bisection floor, one
circuit's as a batch member's, is frozen and flagged (``integrate``): the
integrator never raises on a step, the solver decides. The recorded
trajectory reflects the steps actually taken, so the one-period chain,
which re-evaluates Jacobians only (with scaling columns: all), is exact.

``damped_newton`` is the one damped Newton, of the shooting solves and of
the DC operating point: each sample halves its own step and retires once
converged or stalled. Every linear solve of the step Newton, the chain and
``damped_newton`` is one ``batched_solve``. A large batch of small systems
(a Monte Carlo batch: at least ``SHARED_ORDER_MIN_BATCH`` matrices of
order at most ``SHARED_ORDER_MAX_ORDER``) is eliminated across the batch,
in blocks of at most ``SHARED_ORDER_BLOCK`` samples, each in one row
order: partial pivoting's on its first finite sample. A sample whose
multipliers exceed ``MAX_MULTIPLIER`` under that order, or whose solution
is not finite, is solved again by LAPACK with the other rejected ones.
Every other batch takes one LAPACK call per matrix.
"""

from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge."""


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


class Dae:
    """Base of the integrable systems: one-shot evaluations from a subclass's
    ``linearize``, ``terms`` and (if scaled) ``scale_columns``; one that can
    stamp dQ/dw and dF/dw without Q and F overrides ``jacobians``. The
    solvers call those four and ``eval_with_jac``; ``eval`` and
    ``dF_dscale`` stay because perfbench/tracer.py wraps them by name."""

    def eval(self, w, t):
        return self.terms(self.linearize(w, t))[:2]

    def eval_with_jac(self, w, t):
        return self.terms(self.linearize(w, t))

    def dF_dscale(self, w, t):
        return self.scale_columns(self.linearize(w, t))

    def jacobians(self, w, t):
        """(dQ/dw, dF/dw) at (w, t), possibly shared with the system: read-only."""
        return self.terms(self.linearize(w, t))[2:]


STEP_MAX_ITER = 50  # Newton iterations per implicit step
H_MIN = 1e-15  # smallest step a bisection may take


@dataclass
class Trajectory:
    """Time grid and states of one integration run.

    ``states[k]`` is the state at ``times[k]``; shape (P, N) or (P, B, N)
    for batched runs. ``gammas[k]`` holds the (gamma1, gamma2) weights the
    k-th step was taken with, so derivative chains can replay mixed-scheme
    runs (an L-stable first step, say) exactly. The chain re-evaluates
    the Jacobians at each grid point on demand (Jacobians only), so
    trajectories stay small. ``states`` is the buffer the run wrote its
    states into, the only copy, freed with the trajectory. A run of some
    rows of a batch may share the batch's buffer: its states are then
    ``states[:, rows]``, read one grid point at a time (``take``).
    """

    times: np.ndarray
    states: np.ndarray
    gammas: np.ndarray  # (P-1, 2)
    failed: np.ndarray | None = None  # per-sample floor-failure mask; 0-d for one circuit
    fail_times: np.ndarray | None = None  # start of the step a flagged sample froze at
    rows: object = ...  # the batch rows of ``states`` that are this run's

    @classmethod
    def point(cls, t, w):
        """The run that stays at ``w`` at time ``t``: a copy of it, no step, no flag."""
        batch = np.shape(w)[:-1]
        return cls(np.array([t]), np.array(w, dtype=float)[None], np.zeros((0, 2)),
                   np.zeros(batch, dtype=bool), np.full(batch, np.nan))

    @property
    def end(self):
        return self.states[-1, self.rows]

    @property
    def n_points(self):
        return self.times.size

    def take(self, rows):
        """Batch rows ``rows`` of this run, on its buffer: nothing is copied."""
        return Trajectory(self.times, self.states, self.gammas, rows=rows)

    def put(self, rows, part):
        """Record ``part``, a run of batch rows ``rows``, in them; False if on another grid.
        A run that wrote its states there (``integrate``'s ``into``) leaves only its flags."""
        if not np.array_equal(part.times, self.times):
            return False
        if part.states is not self.states:
            self.states[:, rows] = part.states
        self.failed[rows], self.fail_times[rows] = part.failed, part.fail_times
        return True

    def spread(self, rows, batch):
        """This run of batch rows ``rows``, written into a blank buffer of
        ``batch`` rows (``integrate``'s ``into``), as a run of all of them:
        the others NaN and failed from its start. Nothing is copied."""
        failed, fail_times = np.ones(batch, dtype=bool), np.full(batch, self.times[0])
        failed[rows], fail_times[rows] = self.failed, self.fail_times
        return Trajectory(self.times, self.states, self.gammas, failed, fail_times)


# Crossover of ``batched_solve`` against one LAPACK call per matrix, on one
# vCPU of a 2-core Xeon host with single-threaded OpenBLAS (the table is in
# CHANGES.md): at m = 4 the shared order took 144 against 138
# us at B = 500 and 163 against 266 us at B = 1,000; at m = 8 and
# B = 1,000 it took 828 against 716 us. Batches of at least this size and
# at most this order are eliminated across the batch in a shared row order.
SHARED_ORDER_MIN_BATCH = 1000
SHARED_ORDER_MAX_ORDER = 7
# Largest block eliminated at once: a block's (m, m, B) copy and its
# temporaries then stay in a 2 MB cache. At m = 6 and B = 8,000 the whole
# batch took 4.3 ms, blocks of at most 2,048 took 2.6 ms, LAPACK 5.4 ms.
SHARED_ORDER_BLOCK = 2048
MAX_MULTIPLIER = 10.0  # threshold pivoting: |pivot| >= 0.1 x the largest entry below it


def batched_solve(J, R):
    """Solve J X = R, J (..., m, m) and R (..., m, k); NaN for singular J.

    A (B, m, m) batch with B >= ``SHARED_ORDER_MIN_BATCH`` and m <=
    ``SHARED_ORDER_MAX_ORDER`` (a Monte Carlo batch) is eliminated across
    the batch in blocks of at most ``SHARED_ORDER_BLOCK`` samples
    (``_shared_order_solve``); every other batch, and every sample that
    elimination rejects, takes one LAPACK call per matrix.
    """
    B, m = J.shape[0], J.shape[-1]
    if J.ndim != 3 or B < SHARED_ORDER_MIN_BATCH or m > SHARED_ORDER_MAX_ORDER:
        return _lapack_solve(J, R)
    out = np.empty(R.shape)
    blocks = -(-B // SHARED_ORDER_BLOCK)
    edges = [B * i // blocks for i in range(blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        _shared_order_solve(J[lo:hi], R[lo:hi], out[lo:hi])
    return out


def _lapack_solve(J, R):
    """``batched_solve`` by LAPACK. One batched call does the work; only
    when it reports a singular matrix are the systems solved one by one,
    so the other samples keep theirs."""
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


def _pivot_rows(a):
    """Row swaps of partial pivoting on one matrix: step p swaps row p with row ``swaps[p]``.
    On Python floats, with numpy's rounding and ``np.argmax``'s pick (the first NaN, else max)."""
    a = a.tolist()
    swaps = []
    for p in range(len(a) - 1):
        i = max(range(p, len(a)), key=lambda k: (a[k][p] != a[k][p], abs(a[k][p])))
        a[p], a[i] = a[i], a[p]
        swaps.append(i)
        if (top := a[p])[p] != 0:
            for row in a[p + 1 :]:
                row[p + 1 :] = [r - row[p] / top[p] * v for r, v in zip(row[p + 1 :], top[p + 1 :])]
    return swaps


def _shared_order_solve(J, R, out):
    """Solve a (B, m, m) batch into ``out`` by Gaussian elimination with a
    Python loop over the m pivots and numpy across the batch.

    The row order is partial pivoting's on the first sample whose matrix
    is finite, as in the static pivot order of KLU's refactorization
    (Davis & Palamadai Natarajan, ACM TOMS 2010). J and R are copied
    state-major, (m, m, B) and (m, k, B), so each step works on
    contiguous B-wide rows; a stamped circuit batch's J arrives
    state-major, so its copy is contiguous. A sample is accepted when
    every multiplier is at most ``MAX_MULTIPLIER`` in magnitude and its
    solution is finite; the rejected samples (another order's pivots,
    singular or non-finite matrices) are solved again together by
    ``_lapack_solve``.
    """
    first = 0
    if not np.isfinite(J[0]).all():
        finite = np.isfinite(J).all(axis=(1, 2))
        if not finite.any():
            out[...] = _lapack_solve(J, R)
            return
        first = int(np.argmax(finite))
    A = J.transpose(1, 2, 0).copy()
    X = R.transpose(1, 2, 0).copy()
    growth = np.zeros(J.shape[0])  # largest multiplier per sample
    with np.errstate(all="ignore"):
        for p, i in enumerate(_pivot_rows(J[first])):
            if i != p:
                A[[p, i]] = A[[i, p]]
                X[[p, i]] = X[[i, p]]
            L = A[p + 1 :, p] / A[p, p]
            np.maximum(growth, np.abs(L).max(axis=0), out=growth)
            A[p + 1 :, p + 1 :] -= L[:, None] * A[p, p + 1 :]
            X[p + 1 :] -= L[:, None] * X[p]
        for p in reversed(range(J.shape[-1])):
            X[p] -= (A[p, p + 1 :, None] * X[p + 1 :]).sum(axis=0)
            X[p] /= A[p, p]
        ok = (growth <= MAX_MULTIPLIER) & np.isfinite(X).all(axis=(0, 1))
    out[...] = X.transpose(2, 0, 1)
    if not ok.all():
        rows = np.flatnonzero(~ok)
        out[rows] = _lapack_solve(J[rows], R[rows])


def norm_inf(a):
    """max |a| over the last axis: one maximum reduction over a state-major
    copy, so each step of it compares B-wide rows (the ufunc is called
    directly, not through the ``max`` method's Python wrapper)."""
    return np.maximum.reduce(np.abs(a.T, order="C"), axis=0).T


def _evaluate(system, w, t):
    """(Q, F, linearization) at (w, t)."""
    lin = system.linearize(w, t)
    return (*system.terms(lin)[:2], lin)


def _newton_step(system, w, t_prev, h, scheme, opts, prev, ignore):
    """Solve one implicit step from w; returns (new w, ``_evaluate`` at it, converged_mask).

    ``prev`` is ``_evaluate`` at (w, t_prev); its linearization, moved to
    the new time, is the first iterate's. Samples flagged in ``ignore``
    stay put and count as converged (used to skip batch members that
    failed earlier in the run); when every sample is, the step returns at
    once with w and ``prev`` as they are.

    What the step fixes is computed once: g2 F(w_{k-1}), g1 h and the
    residual tolerance. The residual is cleaned of non-finite entries only
    when its norm is not finite, and the converged samples' step is zeroed
    only once some sample has converged; either way the iterates are those
    of doing both at every iteration.
    """
    if ignore.all():
        return w, prev, ignore.copy()
    g1, tol = scheme.gamma1, opts.tol
    q_prev, f_prev, lin = prev
    t_new, g1h, g2f_prev = t_prev + h, g1 * h, scheme.gamma2 * f_prev
    r_tol = tol * (1.0 + (norm_inf(q_prev) + abs(h) * norm_inf(f_prev)))
    converged = ignore.copy()
    for k in range(STEP_MAX_ITER):
        q, f, dq, df = system.terms(lin, t_new) if k == 0 else system.eval_with_jac(w, t_new)
        r = q - q_prev + h * (g1 * f + g2f_prev)
        rnorm = norm_inf(r)  # not finite exactly where r has a non-finite entry
        if not np.isfinite(rnorm).all():
            r = np.where(np.isfinite(r), r, 1e300)
            rnorm = norm_inf(r)
        delta = batched_solve(dq + g1h * df, r[..., None])[..., 0]
        unorm = norm_inf(delta)
        bad = ~np.isfinite(unorm)  # a NaN or inf entry anywhere in the step
        if bad.any():
            delta = np.where(np.isfinite(delta), delta, 0.0)
        w = w - (np.where(converged[..., None], 0.0, delta) if converged.any() else delta)
        converged = ignore | ((converged | (
            (rnorm <= r_tol) & (unorm <= tol * (1.0 + norm_inf(w)))
        )) & ~bad)
        # a sample with a non-finite step did not move, so it would repeat
        # that step at every further iteration
        if (converged | bad).all():
            break
    return w, _evaluate(system, w, t_new), converged


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
    into=None,
):
    """Integrate from t0 to t1 on a uniform grid of ``n_steps`` steps.

    Batched initial states integrate in lockstep on a shared grid. A step
    that fails for any sample is bisected for the whole batch down to the
    floor (``H_MIN`` or 40 halvings). A sample that still fails there is
    frozen at the start of the grid step and the step is taken again for
    the others without the bisection's points, so a sample that can never
    take a step leaves the grid as it was. ``Trajectory.failed`` flags it,
    with that time in ``Trajectory.fail_times`` (both 0-d for one circuit).
    It never raises on a failed step, and once every sample is flagged the
    remaining steps keep the states without evaluating the system.

    The accepted states go straight into one buffer of ``n_steps + 1``
    points, grown only when a bisection adds points and trimmed once at
    the end; the returned ``Trajectory`` owns it. The run keeps no other
    copy and leaves no reference cycle, so its memory goes when the
    trajectory does, not at the next full garbage collection. With
    ``into``, the ``Trajectory.take`` of a live run from t0 to t1, the
    states overwrite its rows instead and the returned trajectory shares
    its buffer, until the first point off ``into``'s grid (a bisection
    either run took): there the run copies the states it wrote so far to
    a buffer of its own and goes on in it. An ``into`` without times, the
    rows of a blank (NaN) buffer of a wider batch, is the run's own buffer:
    it is grown and trimmed as one, its other rows kept NaN.

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
        return Trajectory.point(t0, w0)
    failed = np.zeros(w0.shape[:-1], dtype=bool)
    fail_times = np.full(w0.shape[:-1], np.nan)

    grid = np.linspace(t0, t1, n_steps + 1)
    times = [float(t0)]
    gammas = []
    # the accepted states, written into ``into``'s rows or a buffer of the run's
    # own, grown by a bisection and trimmed at the end: one copy of the trajectory
    if into is None:
        states, rows = np.empty((n_steps + 1,) + w0.shape), ...
    else:  # a blank buffer (no times) is the run's own, with no grid to follow
        states, rows, into = into.states, into.rows, None if into.times is None else into
    states[0, rows] = w0
    w, ev = w0, _evaluate(system, w0, t0)
    for k in range(n_steps):
        sch = BACKWARD_EULER if (k == 0 and stabilized_start) else scheme
        mark, w_start, ev_start = len(times), w, ev
        # steps still to take, as (start, size, depth), the next on top
        whole = (grid[k], grid[k + 1] - grid[k], 0)
        pending = [whole]
        while pending:
            t, h, depth = pending.pop()
            w_new, ev_new, conv = _newton_step(system, w, t, h, sch, newton, ev, ignore=failed)
            if conv.all():
                i = len(times)
                if into is not None and (i == len(states) or into.times[i] != t + h):
                    # off ``into``'s grid: on in a buffer of the run's own
                    states, rows, into = np.array(states[:i, rows], order="C"), ..., None
                if i == len(states):
                    # room for the grid points still to come and an eighth more
                    size = i + n_steps - k + len(states) // 8
                    states.resize((size,) + states.shape[1:], refcheck=False)  # no views exist
                    states[i:] = np.nan  # a blank buffer's other rows stay NaN
                states[i, rows] = w_new
                times.append(t + h)
                gammas.append((sch.gamma1, sch.gamma2))
                w, ev = w_new, ev_new
            elif h * 0.5 < H_MIN or depth > 40:
                # freeze the samples failing at the floor and take the grid
                # step again for the others without the bisection's points
                failed |= ~conv
                fail_times[~conv] = grid[k]
                del times[mark:], gammas[mark:]
                w, ev = w_start, ev_start
                pending = [whole]
            else:
                pending += [(t + 0.5 * h, 0.5 * h, depth + 1), (t, 0.5 * h, depth + 1)]

    if into is None and len(times) < len(states):
        states.resize((len(times),) + states.shape[1:], refcheck=False)
    return Trajectory(np.asarray(times), states, np.asarray(gammas), failed, fail_times, rows)


def _jacobians(system, w, t, scaled):
    """(dQ/dw, dF/dw, dF/dscale or None) at (w, t): Jacobians only, or one full evaluation."""
    if not scaled:
        return (*system.jacobians(w, t), None)
    lin = system.linearize(w, t)
    return (*system.terms(lin)[2:], system.scale_columns(lin))


def transition_chain(system, trajectory, with_scale_columns=False):
    """Accumulate d(end state)/d(initial state) along a trajectory.

    Walks the recorded steps and chains the exact derivatives of each
    implicit step equation (using each step's own scheme weights). With
    ``with_scale_columns`` the derivative of the end state with respect to
    the system's auxiliary scaling coefficients (``system.scale_columns``)
    is accumulated as well, starting from zero.
    Returns (M, S) where S is None unless requested.

    Only the columns of M that the first step leaves nonzero for some
    sample are chained, the rest being exactly zero: after a backward-Euler
    first step, the charge and flux states; after a trapezoidal one, all.
    """
    times, states, gam = trajectory.times, trajectory.states, trajectory.gammas
    rows = trajectory.rows  # read per grid point: a run's rows are never copied whole
    batch, n = states[0, rows].shape[:-1], states.shape[-1]
    M = np.broadcast_to(np.eye(n), batch + (n, n))
    cols = np.arange(n)
    E, A, P = _jacobians(system, states[0, rows], times[0], with_scale_columns)
    S = np.zeros(batch + (n, P.shape[-1])) if with_scale_columns else None
    t_list, gam_list = times.tolist(), gam.tolist()
    for k in range(1, times.size):
        h = t_list[k] - t_list[k - 1]
        g1, g2 = gam_list[k - 1]
        # contiguous, so the products below are BLAS's whatever the layout
        # of E and A (numpy's own loop, for a state-major batch, rounds otherwise)
        carry = np.ascontiguousarray(E - (g2 * h) * A)
        rhs = carry @ M
        if k == 1:
            cols = np.flatnonzero(np.any(rhs != 0, axis=tuple(range(rhs.ndim - 1))))
            rhs = rhs[..., cols]
        E, A, P_k = _jacobians(system, states[k, rows], times[k], with_scale_columns)
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


def _rows(mask):
    """Indices of the rows ``mask`` marks; ``...`` (views, no copies) for all."""
    return Ellipsis if np.all(mask) else np.flatnonzero(mask)


def damped_newton(u0, run, newton_step, tol, max_iter, max_halvings):
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
    is finite and lower. A sample whose residual or step is not finite, or
    that has not improved after ``max_halvings`` halvings, stalls; its
    trajectory row is meaningless. At most ``max_iter`` iterations are
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
    while len(history) <= max_iter:
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
        for _ in range(max_halvings + 1):
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
