"""Monte Carlo baseline and statistical post-processing.

The Monte Carlo driver draws standardized coordinates from a counter-based
stream keyed by (seed, sample index), so results are reproducible bit for
bit regardless of execution order, and solves the whole sample batch in
lockstep (``shooting.solve_at``) from the first-order parameter
sensitivity of the nominal solution it is given (``shooting.linear_start``),
the one ``compare``'s chaos solve starts from (``shooting.solve_nominal``),
so both share its period and phase anchor.
Post-processing turns converged chaos solutions into mean/std waveforms,
metric distributions (period, harmonic distortion, average power) sampled
cheaply from the surrogate, and the chaos-vs-Monte-Carlo comparison record
that ``compare`` writes as ``compare.json`` (``build_uq_report``). A
solution is an oscillator's when it has period-scaling coefficients.
Every chaos expansion is a plain array, chaos index first, over the basis
its testing set carries: the mean and std are ``gpc.moments`` of the
blocks, and the value at xi is ``basis.eval(xi) @ blocks``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .gpc import family_for, lookup_family, moments
from .shooting import linear_start, solve_at
from .transient import ConvergenceError


# ---------------------------------------------------------------------------
# reproducible sampling


def draw_standardized(families, seed, count):
    """Standardized coordinate draws for each sample index.

    Sample i consumes its own fixed block of a counter-based (Philox)
    uniform stream keyed by the seed, so the draw depends only on
    (seed, i): draw(seed, n) is the first n rows of draw(seed, n + m), so
    a larger run keeps every sample of a smaller one.
    Coordinate j maps the next uniforms of the block through the sampler
    of chaos family ``families[j]``.
    """
    samplers = [lookup_family(f) for f in families]
    need = max(sum(fam.uniforms for fam in samplers), 1)
    # one counter block yields four doubles; pad so blocks stay aligned
    block = -(-need // 4) * 4
    bitgen = np.random.Philox(key=int(seed) & 0xFFFFFFFFFFFFFFFF)
    u = np.random.Generator(bitgen).random((count, block))
    out = np.empty((count, len(samplers)))
    c = 0
    for j, fam in enumerate(samplers):
        out[:, j] = fam.sample(u[:, c : c + fam.uniforms])
        c += fam.uniforms
    return out


# ---------------------------------------------------------------------------
# Monte Carlo driver

MAX_FAILURE_FRACTION = 0.01  # share of failed samples a Monte Carlo run tolerates
STATS_BLOCK_BYTES = 2**20  # waveform values copied at once by ``McRun.waveform_mean_std``


@dataclass
class McRun:
    """Per-sample periodic steady states of a parameter sample batch; ``waveforms``
    is a view of the shooting solver's trajectory buffer, not a copy."""

    seed: int
    xi: np.ndarray  # (N, d)
    times: np.ndarray  # (P,)
    waveforms: np.ndarray  # (N, P, n) view of a (P, N, n) buffer
    y: np.ndarray  # (N, n)
    failed: np.ndarray  # (N,)
    period: np.ndarray | float  # (N,) for oscillators, scalar otherwise
    iterations: int
    _stats: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_samples(self):
        return self.xi.shape[0]

    @property
    def failure_fraction(self):
        return float(np.mean(self.failed))

    def ok(self):
        return ~self.failed

    def waveform_mean_std(self):
        """Unbiased per-time-point statistics over the converged samples, computed once:
        per block of time points copied C-ordered, so with the bits of one
        reduction over a C-ordered copy of all the waveforms, without one."""
        if self._stats is None:
            (N, P, n), ok = self.waveforms.shape, self.ok()[:, None, None]
            mean, std = np.empty((P, n)), np.empty((P, n))
            step = max(STATS_BLOCK_BYTES // (8 * N * n), 1)
            for lo in range(0, P, step):
                w = np.ascontiguousarray(self.waveforms[:, lo : lo + step])
                mean[lo : lo + step] = w.mean(axis=0, where=ok)
                std[lo : lo + step] = w.std(axis=0, ddof=1, where=ok)
            self._stats = mean, std
        return self._stats

    def scalar_stats(self, values):
        v = np.asarray(values)[self.ok()]
        return float(v.mean()), float(v.std(ddof=1))


def monte_carlo(circuit, nominal, n_samples, seed, **options):
    """Reference uncertainty propagation by repeated deterministic solves.

    ``nominal`` is the nominal circuit's solution (``solve_nominal``). Every
    sample starts from its ``linear_start`` and is solved the same way
    (``solve_at``; both take ``options``): over the nominal period for a
    driven circuit, or, for an oscillator, with its phase condition over
    that period as the scaled horizon. Failing samples are recorded, not
    fatal, unless their fraction exceeds ``MAX_FAILURE_FRACTION``; then the
    run raises ConvergenceError.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    xi = draw_standardized([family_for(s) for _, s in circuit.random_params], seed, n_samples)
    sol = solve_at(circuit, linear_start(circuit, nominal, xi, **options), xi, **options)
    run = McRun(
        seed=seed,
        xi=xi,
        times=sol.trajectory.times.copy(),
        waveforms=np.moveaxis(sol.trajectory.states, 0, 1),
        y=sol.y.copy(),
        failed=~sol.converged,
        period=sol.period,
        iterations=sol.iterations,
    )
    if run.failure_fraction > MAX_FAILURE_FRACTION:
        raise ConvergenceError(
            f"{run.failure_fraction:.1%} of Monte Carlo samples failed to converge"
        )
    return run


# ---------------------------------------------------------------------------
# chaos-solution statistics


@dataclass
class WaveformStats:
    times: np.ndarray
    mean: np.ndarray  # (P, n)
    std: np.ndarray  # (P, n)


def _trajectory_blocks(solution):
    """The coefficient trajectory as (K, P, n) blocks, chaos index first (a view)."""
    P = solution.trajectory.times.size
    return solution.trajectory.states.reshape(P, solution.testing.size, -1).swapaxes(0, 1)


def waveform_stats(solution):
    """Mean/std waveforms of a converged stochastic PSS solution."""
    mean, std = moments(_trajectory_blocks(solution))
    return WaveformStats(solution.trajectory.times.copy(), mean, std)


def surrogate_waveforms(solution, xi, state):
    """Waveform realizations of one state from the chaos surrogate.

    Returns (S, P): one row per row of ``xi``; no circuit solves involved.
    """
    H = solution.testing.basis.eval(np.atleast_2d(xi))  # (S, K)
    return H @ _trajectory_blocks(solution)[:, :, state]


def sample_periods(solution, xi):
    """Period realizations T0 * a(xi) from an autonomous solution."""
    if solution.scale_coeffs is None:
        raise ValueError("period sampling needs an autonomous solution")
    H = solution.testing.basis.eval(np.atleast_2d(xi))  # (S, K)
    return solution.horizon * (H @ solution.scale_coeffs)


# ---------------------------------------------------------------------------
# scalar metrics


def thd(values):
    """Total harmonic distortion of one uniformly sampled period.

    ``values`` spans exactly one period, closed: the final sample repeats
    the first (trajectory convention) and is dropped. The DC bin is
    excluded; the result is the RMS of harmonics 2.. relative to the
    fundamental magnitude.
    """
    v = np.asarray(values, dtype=float)[..., :-1]
    spec = np.fft.rfft(v, axis=-1)
    fund = np.abs(spec[..., 1])
    rest = np.sqrt(np.sum(np.abs(spec[..., 2:]) ** 2, axis=-1))
    norm = np.sqrt(np.mean(v**2, axis=-1)) * v.shape[-1]
    bad = fund < 1e-12 * np.maximum(norm, 1e-300)
    if np.any(bad):
        raise ValueError("fundamental amplitude is numerically zero")
    return rest / fund


def avg_power(v, i, times):
    """Mean of v*i over the spanned interval (trapezoidal quadrature).

    Positive values mean power flowing in the direction of the current
    convention used by the caller; pass the source branch current negated
    to report power delivered by a source as positive.
    """
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    times = np.asarray(times, dtype=float)
    span = times[-1] - times[0]
    return np.trapezoid(v * i, times, axis=-1) / span


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic.

    The largest gap between the two empirical CDFs; both step functions
    jump only at sample values, so the pooled samples are where it is
    attained.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    pooled = np.concatenate([a, b])
    # counts at or below each pooled value; the gap |ca/na - cb/nb| is
    # compared in integers, so the result is the exact fraction, rounded once
    ca = np.searchsorted(a, pooled, side="right")
    cb = np.searchsorted(b, pooled, side="right")
    return float(np.max(np.abs(ca * b.size - cb * a.size)) / (a.size * b.size))


# ---------------------------------------------------------------------------
# metric distributions

MIN_METRIC_SAMPLES = 1000  # fewest surrogate samples a metric distribution takes


@dataclass
class MetricDistribution:
    name: str
    samples: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray
    kde_grid: np.ndarray | None
    kde_density: np.ndarray | None
    mean: float
    std: float


def _freedman_diaconis_edges(samples):
    s = np.sort(samples)
    iqr = s[int(0.75 * (s.size - 1))] - s[int(0.25 * (s.size - 1))]
    if iqr <= 0:
        n_bins = max(int(np.ceil(np.log2(s.size) + 1)), 1)
    else:
        width = 2.0 * iqr / s.size ** (1.0 / 3.0)
        n_bins = max(int(np.ceil((s[-1] - s[0]) / width)), 1)
    return np.histogram_bin_edges(samples, bins=min(n_bins, 512))


# sorted samples per block of the kernel sum: 256 samples x at most 512
# grid points keeps the block's one temporary at 1 MB
KDE_BLOCK = 256
# squared reach of a kernel beyond a grid point's nearest sample, in units
# of 2 bw^2: every kernel left out is below exp(-46) ~ 1e-20 of the largest
KDE_REACH2 = 46.0


def _gaussian_kde(samples, grid, bw):
    """Gaussian kernel density estimate with bandwidth ``bw`` on ``grid`` (ascending).

    Each grid point sums the kernels of the samples within
    sqrt(d**2 + ``KDE_REACH2``) of it, d the distance to its nearest sample
    (all lengths in units of sqrt(2) bw). The bounds g -/+ reach rise with
    g, so the grid points one block of sorted samples reaches are a range.
    """
    scale = bw * math.sqrt(2.0)
    zg = grid / scale
    zs = np.sort(samples) / scale
    at = np.searchsorted(zs, zg)
    near = np.minimum(np.abs(zg - zs[np.maximum(at - 1, 0)]),
                      np.abs(zs[np.minimum(at, zs.size - 1)] - zg))
    reach = np.sqrt(near * near + KDE_REACH2)
    total = np.zeros(grid.size)
    for start in range(0, zs.size, KDE_BLOCK):
        block = zs[start : start + KDE_BLOCK]
        lo = np.searchsorted(zg + reach, block[0])
        hi = np.searchsorted(zg - reach, block[-1], side="right")
        d = block[:, None] - zg[lo:hi]
        np.square(d, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        total[lo:hi] += d.sum(axis=0)
    return total / (samples.size * math.sqrt(2.0 * math.pi) * bw)


def distribution_from_samples(name, samples):
    """Freedman-Diaconis histogram plus Gaussian-kernel density estimate.

    The kernel bandwidth is Scott's rule, n**(-1/5) times the sample
    standard deviation; the estimate is taken on 512 points spanning the
    samples and six bandwidths beyond them.
    """
    samples = np.asarray(samples, dtype=float)
    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if samples.size > 1 else 0.0
    if samples.max() - samples.min() <= 0:
        edges = np.array([samples[0] - 0.5, samples[0] + 0.5])
        return MetricDistribution(
            name, samples, edges, np.array([1.0]), None, None, mean, 0.0
        )
    edges = _freedman_diaconis_edges(samples)
    density, _ = np.histogram(samples, bins=edges, density=True)
    bw = samples.size ** -0.2 * samples.std(ddof=1)
    grid = np.linspace(samples.min() - 6 * bw, samples.max() + 6 * bw, 512)
    return MetricDistribution(
        name, samples, edges, density, grid, _gaussian_kde(samples, grid, bw), mean, std
    )


def metric_distribution(
    solution,
    metric,
    n_samples,
    seed,
    state=None,
    v_state=None,
    i_state=None,
    power_sign=1.0,
):
    """Distribution of a scalar metric sampled from the chaos surrogate.

    ``metric`` is "period", "thd" (of ``state``) or "power" (mean of
    ``power_sign`` times the product of ``v_state`` and ``i_state``).
    Sampling costs no circuit solves; parameters are drawn with the same
    counter-based stream as the Monte Carlo driver.
    """
    if n_samples < MIN_METRIC_SAMPLES:
        raise ValueError(f"metric distributions need at least {MIN_METRIC_SAMPLES} samples")
    xi = draw_standardized(solution.testing.basis.families, seed, n_samples)
    if metric == "period":
        vals = sample_periods(solution, xi)
        return distribution_from_samples("period", vals)
    if metric == "thd":
        if state is None:
            raise ValueError("thd metric needs a state index")
        waves = surrogate_waveforms(solution, xi, state)
        return distribution_from_samples("thd", thd(waves))
    if metric == "power":
        if v_state is None or i_state is None:
            raise ValueError("power metric needs v_state and i_state")
        v = surrogate_waveforms(solution, xi, v_state)
        i = surrogate_waveforms(solution, xi, i_state)
        vals = power_sign * avg_power(v, i, solution.trajectory.times)
        return distribution_from_samples("power", vals)
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# chaos vs Monte Carlo comparison


def _shared_time_points(ta, tb):
    """Indices (ia, ib) of the points two time grids share, to rounding.

    None unless the grids span the same interval. Grids that bisected
    different steps of the same uniform grid share all its points.
    """
    tol = 1e-12 * (ta[-1] - ta[0])
    if abs(ta[0] - tb[0]) > tol or abs(ta[-1] - tb[-1]) > tol:
        return None
    j = np.clip(np.searchsorted(tb, ta), 1, tb.size - 1)
    j = np.where(np.abs(tb[j - 1] - ta) <= np.abs(tb[j] - ta), j - 1, j)
    hit = np.abs(tb[j] - ta) <= tol
    return np.nonzero(hit)[0], j[hit]


def build_uq_report(solution, mc_run, surrogate_periods=None):
    """Compare a converged chaos solution against a Monte Carlo run: the
    ``compare.json`` record.

    Both must come from the same circuit over the same interval. The
    waveforms are compared at the time points both grids hold: a step one
    of the runs bisected adds points only that run has. The waveform
    deltas are infinity norms over those points, normalized by each
    state's peak Monte Carlo mean magnitude. An oscillator's record adds
    the period statistics and their relative deltas (``period_*``); pass
    an independent surrogate period sample of the same size as the MC run
    to add the distribution (KS) comparison.
    """
    ws = waveform_stats(solution)
    mc_mean, mc_std = mc_run.waveform_mean_std()
    shared = _shared_time_points(ws.times, mc_run.times)
    if shared is None or ws.mean.shape[1:] != mc_mean.shape[1:]:
        raise ValueError("chaos and Monte Carlo runs use different grids")
    ia, ib = shared
    mc_mean, mc_std = mc_mean[ib], mc_std[ib]
    peak = np.max(np.abs(mc_mean), axis=0)
    peak = np.where(peak > 0, peak, 1.0)
    out = {
        "kind": "forced" if solution.scale_coeffs is None else "autonomous",
        "max_rel_mean_delta": float(np.max(np.abs(ws.mean[ia] - mc_mean) / peak)),
        "max_rel_std_delta": float(np.max(np.abs(ws.std[ia] - mc_std) / peak)),
        "normalization": "per-state peak of the Monte Carlo mean waveform",
        "mc_samples": mc_run.n_samples,
    }
    if solution.scale_coeffs is not None:
        pm, ps = mc_run.scalar_stats(mc_run.period)
        sm, ss = solution.period_moments()
        out.update({
            "period_mean_chaos": float(sm),
            "period_mean_mc": pm,
            "period_std_chaos": float(ss),
            "period_std_mc": ps,
            "period_mean_rel_delta": abs(sm - pm) / pm,
            "period_std_rel_delta": abs(ss - ps) / ps,
        })
        if surrogate_periods is not None:
            out["period_ks_statistic"] = ks_statistic(
                surrogate_periods, np.asarray(mc_run.period)[mc_run.ok()]
            )
    return out
