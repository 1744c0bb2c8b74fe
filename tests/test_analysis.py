"""Monte Carlo driver, metric math, and surrogate statistics."""

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from pssuq import analysis, load_netlist, parse_netlist, shooting, transient
from pssuq.analysis import (
    _shared_time_points,
    avg_power,
    build_uq_report,
    distribution_from_samples,
    draw_standardized,
    ks_statistic,
    metric_distribution,
    monte_carlo,
    sample_periods,
    surrogate_waveforms,
    thd,
    waveform_stats,
)
from pssuq.circuit import DistributionSpec
from pssuq.gpc import (
    HERMITE,
    LEGENDRE,
    GpcError,
    build_basis,
    family_for,
    moments,
    select_testing_nodes,
    tensor_rule,
)
from pssuq.stpss import StochasticPssSolution, assemble_forced, shoot_forced
from pssuq.shooting import SCALE_FLOOR, linear_start, solve_forced, solve_nominal
from pssuq.transient import SHARED_ORDER_MIN_BATCH, Trajectory

from conftest import CIRCUITS_DIR, SHORTED_AT_A_NODE, draws_with_short, nominal_start

G = DistributionSpec.gaussian(0.0, 1.0)
U = DistributionSpec.uniform(-1.0, 1.0)


# -- scalar metrics -----------------------------------------------------------


def test_thd_pure_sine():
    t = np.linspace(0, 1, 513)
    assert thd(np.sin(2 * np.pi * t)) < 1e-10


def test_thd_two_harmonics():
    t = np.linspace(0, 1, 1025)
    v = np.sin(2 * np.pi * t) + 0.1 * np.sin(6 * np.pi * t)
    assert thd(v) == pytest.approx(0.1, abs=1e-6)


def test_thd_square_wave():
    t = np.linspace(0, 1, 1025)
    v = np.sign(np.sin(2 * np.pi * t + 1e-12))
    oracle = np.sqrt(np.pi**2 / 8 - 1)  # Fourier series of the ideal square
    assert thd(v) == pytest.approx(oracle, rel=5e-3)


def test_thd_rejects_zero_fundamental():
    with pytest.raises(ValueError):
        thd(np.ones(65))


def test_avg_power_examples():
    t = np.linspace(0, 1, 2001)
    assert avg_power(np.ones_like(t), np.ones_like(t), t) == pytest.approx(1.0)
    s, c = np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)
    assert avg_power(s, c, t) == pytest.approx(0.0, abs=1e-10)
    assert avg_power(s, s, t) == pytest.approx(0.5, abs=1e-8)


# -- sampling -----------------------------------------------------------------


def test_draws_are_reproducible_and_splittable():
    families = [HERMITE, LEGENDRE, HERMITE]
    a = draw_standardized(families, 42, 50)
    b = draw_standardized(families, 42, 50)
    assert np.array_equal(a, b)
    c = draw_standardized(families, 42, 20)
    assert np.array_equal(a[:20], c)
    assert not np.array_equal(a, draw_standardized(families, 43, 50))


def test_draws_have_right_marginals():
    xi = draw_standardized([HERMITE, LEGENDRE], 0, 200_000)
    assert abs(xi[:, 0].mean()) < 0.01 and abs(xi[:, 0].std() - 1.0) < 0.01
    assert abs(xi[:, 1].mean()) < 0.01 and abs(xi[:, 1].std() - 1 / np.sqrt(3)) < 0.01
    assert xi[:, 1].min() > -1 and xi[:, 1].max() < 1


def _per_kind_draw(dists, seed, count):
    """The Box-Muller / 2u - 1 branch the family samplers replaced, as it was."""
    need = max(sum(2 if s.kind == "gaussian" else 1 for s in dists), 1)
    block = -(-need // 4) * 4
    bitgen = np.random.Philox(key=int(seed) & 0xFFFFFFFFFFFFFFFF)
    u = np.random.Generator(bitgen).random((count, block))
    out = np.empty((count, len(dists)))
    c = 0
    for j, spec in enumerate(dists):
        if spec.kind == "gaussian":
            u1, u2 = u[:, c], u[:, c + 1]
            c += 2
            out[:, j] = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
        else:
            out[:, j] = 2.0 * u[:, c] - 1.0
            c += 1
    return out


@pytest.mark.parametrize("dists", [[], [G], [U], [G, U, G], [U, U, G, U, G]])
def test_family_samplers_reproduce_the_per_kind_draws(dists):
    families = [family_for(s) for s in dists]
    for seed in (0, 7):
        assert np.array_equal(draw_standardized(families, seed, 64), _per_kind_draw(dists, seed, 64))


def test_draw_rejects_an_unknown_family():
    with pytest.raises(GpcError, match="unknown family"):
        draw_standardized([HERMITE, "laguerre"], 0, 4)


# -- Monte Carlo ---------------------------------------------------------------


def test_mc_deterministic_circuit_has_zero_spread():
    c = parse_netlist("V1 in 0 SIN(0 1 1k)\nR1 in out 1k\nC1 out 0 1u\n")
    run = monte_carlo(c, solve_nominal(c, n_steps=64), 8, seed=0, n_steps=64)
    mean, std = run.waveform_mean_std()
    assert np.abs(std).max() < 1e-14
    assert run.failure_fraction == 0.0


def test_mc_same_seed_bit_identical(rc_circuit):
    a = monte_carlo(rc_circuit, solve_nominal(rc_circuit, n_steps=64), 64, seed=5, n_steps=64)
    b = monte_carlo(rc_circuit, solve_nominal(rc_circuit, n_steps=64), 64, seed=5, n_steps=64)
    assert np.array_equal(a.waveforms, b.waveforms)
    assert np.array_equal(a.xi, b.xi)


@pytest.mark.parametrize("name, phase_index", [("rc_circuit", None), ("vdp_random", 0)])
def test_mc_of_one_sample_keeps_the_batch_axis(request, name, phase_index):
    """A one-sample run is a batch of one: every per-sample array has N = 1 rows."""
    c = request.getfixturevalue(name)
    nominal = solve_nominal(c, phase_index=phase_index, n_steps=64)
    run = monte_carlo(c, nominal, 1, seed=2, n_steps=64)
    assert run.waveforms.shape == (1, run.times.size, c.n)
    assert run.waveforms[:, 0].shape == (1, c.n) and run.failed.shape == (1,)
    assert np.shape(run.period) == (() if phase_index is None else (1,))


def test_mc_members_above_the_crossover_match_their_solo_solves():
    """A 2,000-sample rectifier batch, whose step, chain and shooting solves
    take the shared row order, gives each member's state and waveform as
    that member solved alone from its row of the linear start, within 1e-12."""
    circuit = load_netlist(CIRCUITS_DIR / "rectifier.cir")
    nominal = solve_nominal(circuit)
    run = monte_carlo(circuit, nominal, 2000, seed=3)
    assert run.n_samples >= SHARED_ORDER_MIN_BATCH and not run.failed.any()
    start = linear_start(circuit, nominal, run.xi)
    for i in (0, 777, 1999):
        solo = solve_forced(circuit.realize(run.xi[i]), nominal.period, y0=start.y[i])
        assert np.array_equal(solo.trajectory.times, run.times)
        wave = solo.trajectory.states
        assert np.abs(solo.y - run.waveforms[i, 0]).max() <= 1e-12 * np.abs(solo.y).max()
        assert np.abs(wave - run.waveforms[i]).max() <= 1e-12 * np.abs(wave).max()


def test_a_wide_monte_carlo_run_keeps_its_memory_bounded():
    """A 2,000-sample rectifier Monte Carlo peaks below 34 MB of traced
    memory (31.2 MB measured) and keeps its result and at most 256 kB more
    once it returns (43 kB measured): scatter indices kept for every batch
    size the run meets would keep 0.59 MB."""
    circuit = load_netlist(CIRCUITS_DIR / "rectifier.cir")
    nominal = solve_nominal(circuit)
    monte_carlo(circuit, nominal, 50, seed=1)  # first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run = monte_carlo(circuit, nominal, 2000, seed=3)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (run.xi, run.times, run.waveforms, run.failed))
    assert peak - start < 34e6
    assert end - start <= kept + 2**18


def test_a_wide_monte_carlo_run_holds_one_copy_of_its_trajectory():
    """The 2,000-sample rectifier Monte Carlo peaks at most 8 MB above its
    12.9 MB trajectory (18.4 MB measured; 31.2 MB when the Newton step,
    the line search and the result each held a second copy), its
    waveforms are a view of the solver's buffer, and its statistics take
    at most 4 MB more (2.1 MB measured; 13.0 MB reduced in one piece),
    once: a second call returns the same arrays."""
    circuit = load_netlist(CIRCUITS_DIR / "rectifier.cir")
    nominal = solve_nominal(circuit)
    monte_carlo(circuit, nominal, 50, seed=1)  # first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run = monte_carlo(circuit, nominal, 2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        stats = run.waveform_mean_std()
        stats_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= run.waveforms.nbytes + 8e6
    assert stats_peak - before <= 4e6
    assert run.waveforms.base is not None and run.waveforms.shape == (2000, 201, 4)
    assert all(a is b for a, b in zip(stats, run.waveform_mean_std()))


def _rerun_of_a_wide_monte_carlo(monkeypatch, stall):
    """The 2,000-sample rectifier Monte Carlo with its first line-search run
    refused at the mid-period step, so it bisects (and, with ``stall``,
    sample 0's first Newton step NaN): the buffer each run of the batch was
    given (``own``: none, ``live``: the live trajectory's rows, ``blank``: a
    blank batch buffer's; the linear start's run is not counted), the result
    and its traced peak above the start."""
    circuit = load_netlist(CIRCUITS_DIR / "rectifier.cir")
    nominal = solve_nominal(circuit)
    monte_carlo(circuit, nominal, 50, seed=1)  # first-call allocations
    gc.collect()
    runs, integrate, step = [], shooting.integrate, transient._newton_step
    newton_step = shooting.Shooting.newton_step
    mid = np.linspace(0.0, float(nominal.period), 201)[100:102]

    def counted(system, w0, *args, into=None, **kwargs):
        if len(w0) == 2000 or into is not None:  # a run of the batch or of its rows
            runs.append("own" if into is None else "live" if into.times is not None else "blank")
        return integrate(system, w0, *args, into=into, **kwargs)

    def refusing(system, w, t, h, *args, **kwargs):
        w_new, ev, conv = step(system, w, t, h, *args, **kwargs)
        if len(runs) == 2 and t == mid[0] and h == mid[1] - mid[0]:
            conv = np.zeros_like(conv)
        return w_new, ev, conv

    def stalling(self, u, g, traj, rows):
        delta = newton_step(self, u, g, traj, rows)
        if stall and len(runs) == 1:
            delta[0] = np.nan
        return delta

    monkeypatch.setattr(shooting, "integrate", counted)
    monkeypatch.setattr(transient, "_newton_step", refusing)
    monkeypatch.setattr(shooting.Shooting, "newton_step", stalling)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run = monte_carlo(circuit, nominal, 2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return runs, run, peak - start


def test_a_wide_monte_carlo_rerun_holds_two_copies_at_most(monkeypatch):
    """When the first line-search run of the 2,000-sample rectifier batch
    bisects its mid-period step, every sample runs again beside the live
    trajectory, but not beside the bisected run: the peak stays within two
    trajectories and 10 MB (32.9 MB measured; 43.5 MB with it held)."""
    runs, run, peak = _rerun_of_a_wide_monte_carlo(monkeypatch, stall=False)
    assert runs[:3] == ["own", "live", "own"] and not run.failed.any()
    assert peak <= 2 * run.waveforms.nbytes + 10e6


def test_a_wide_monte_carlo_rerun_beside_a_stalled_sample_holds_two_copies_at_most(monkeypatch):
    """With sample 0 stalled by a NaN Newton step as well, the other samples
    run again straight into a blank buffer of the batch: the peak stays
    within two trajectories and 10 MB (32.7 MB measured; 40.2 MB when the
    rerun's own buffer was spread to the batch by a copy)."""
    runs, run, peak = _rerun_of_a_wide_monte_carlo(monkeypatch, stall=True)
    assert runs[:3] == ["own", "live", "blank"]
    assert run.failed.tolist() == [True] + [False] * 1999
    assert np.isnan(run.waveforms[0]).all()
    assert peak <= 2 * run.waveforms.nbytes + 10e6


@pytest.mark.parametrize("N, P, n, block", [(2000, 201, 4, None), (5, 37, 3, 4), (3, 9, 2, 1)])
def test_blocked_waveform_statistics_are_numpy_one_shot_bits(N, P, n, block, monkeypatch):
    """Mean and std over a strided (N, P, n) view of a (P, N, n) buffer,
    reduced in blocks of time points, equal bit for bit numpy's one-shot
    mean and std(ddof=1) over a C-ordered copy, failed samples masked."""
    if block is not None:  # time points per block, the last one short
        monkeypatch.setattr(analysis, "STATS_BLOCK_BYTES", 8 * N * n * block)
    rng = np.random.default_rng(N)
    states = rng.normal(size=(P, N, n)) * 10.0 ** rng.uniform(-6, 3, n)
    failed = rng.random(N) < 0.1
    failed[:3] = True, False, False
    run = analysis.McRun(0, np.zeros((N, 1)), np.arange(P), np.moveaxis(states, 0, 1),
                         failed, 1.0, 1)
    copy, ok = np.moveaxis(states, 0, 1).copy(), ~failed[:, None, None]
    mean, std = run.waveform_mean_std()
    assert np.array_equal(mean, copy.mean(axis=0, where=ok), equal_nan=True)
    assert np.array_equal(std, copy.std(axis=0, ddof=1, where=ok), equal_nan=True)


@pytest.fixture(scope="module")
def rc_big_mc(rc_circuit):
    nominal = solve_nominal(rc_circuit, n_steps=50)
    return monte_carlo(rc_circuit, nominal, 120_000, seed=2, n_steps=50)


def test_mc_mean_matches_quadrature_within_clt_band(rc_circuit, rc_big_mc):
    run = rc_big_mc
    # oracle: 10-point quadrature of the discrete solver over the parameter
    from pssuq.gpc import gauss_rule
    from pssuq.shooting import solve_forced

    nodes, wts = gauss_rule("legendre", 10)
    det = solve_forced(rc_circuit.realize(nodes[:, None]), 1e-3, n_steps=50)
    ref_mean = wts @ det.y
    ref_std = np.sqrt(wts @ (det.y - ref_mean) ** 2)
    se = ref_std / np.sqrt(run.n_samples)
    assert np.all(np.abs(run.waveforms[:, 0].mean(axis=0) - ref_mean) <= 3 * se + 1e-15)


def test_mc_error_shrinks_like_sqrt_n(rc_circuit, rc_big_mc):
    """Group-mean spread over one pooled run scales as N^(-1/2)."""
    run = rc_big_mc
    v0 = run.waveforms[:, 0, rc_circuit.node_state("out")]
    ses = []
    sizes = [100, 1_000, 10_000]
    for n in sizes:
        groups = v0[: (v0.size // n) * n].reshape(-1, n).mean(axis=1)
        ses.append(groups.std(ddof=1))
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_mc_autonomous_periods(vdp_random):
    nominal = solve_nominal(vdp_random, phase_index=0, n_steps=300)
    run = monte_carlo(vdp_random, nominal, 100, seed=3, n_steps=300)
    assert run.failure_fraction == 0.0
    pm, ps = run.scalar_stats(run.period)
    assert pm == pytest.approx(6.287, rel=1e-3)
    assert 0.5e-3 < ps < 5e-3  # spread driven by the mu variation


# -- chaos-solution statistics ---------------------------------------------------


def _toy_solution(blocks_t0, basis, times=None, kind="forced"):
    """Wrap constant-in-time coefficient blocks as a solution object, at
    the testing nodes of ``basis``."""
    K, n = blocks_t0.shape
    P = 5 if times is None else times.size
    times = np.linspace(0.0, 1.0, P) if times is None else times
    states = np.tile(blocks_t0.reshape(-1), (P, 1))
    traj = Trajectory(times, states, None)
    return StochasticPssSolution(
        blocks_t0,
        select_testing_nodes(basis, tensor_rule(basis, basis.order + 1)),
        1.0,
        blocks_t0[:, 0] if kind == "autonomous" else None,
        traj,
        1,
        0.0,
        np.zeros(K),
    )


def test_waveform_stats_single_block_is_deterministic():
    basis = build_basis([G], 2)
    blocks = np.zeros((3, 2))
    blocks[0] = [1.5, -0.5]
    mean, std = waveform_stats(_toy_solution(blocks, basis))
    assert np.allclose(mean, [1.5, -0.5])
    assert np.abs(std).max() == 0.0


def test_waveform_stats_match_mc_on_rectifier(rectifier):
    basis = build_basis([s for _, s in rectifier.random_params], 3)
    testing = select_testing_nodes(basis, tensor_rule(basis, 4))
    system = assemble_forced(rectifier, testing)
    sol = shoot_forced(system, nominal_start(system, n_steps=100), n_steps=100)
    mean, std = waveform_stats(sol)
    run = monte_carlo(rectifier, solve_nominal(rectifier, n_steps=100), 4000, seed=11, n_steps=100)
    mc_mean, mc_std = run.waveform_mean_std()
    peak = np.max(np.abs(mc_mean), axis=0)
    assert np.max(np.abs(mean - mc_mean) / peak) < 0.01
    assert np.max(np.abs(std - mc_std) / peak) < 0.01


def test_waveform_stats_are_the_moments_of_the_coefficient_blocks(rectifier):
    """The one mean/std formula: ``gpc.moments`` of the (K, P, n) blocks of a
    solved chaos trajectory is the ``waveform_stats`` mean and std, bit for bit."""
    basis = build_basis([s for _, s in rectifier.random_params], 2)
    testing = select_testing_nodes(basis, tensor_rule(basis, 3))
    system = assemble_forced(rectifier, testing)
    sol = shoot_forced(system, nominal_start(system, n_steps=64), n_steps=64)
    n, states = rectifier.n, sol.trajectory.states
    blocks = np.stack([states[:, k * n : (k + 1) * n] for k in range(testing.size)])
    mean, std = moments(blocks)
    got_mean, got_std = waveform_stats(sol)
    assert np.array_equal(got_mean, mean) and np.array_equal(got_std, std)


def test_period_point_mass():
    basis = build_basis([G], 2)
    blocks = np.zeros((3, 1))
    blocks[0] = 2.0
    sol = _toy_solution(blocks, basis, kind="autonomous")
    sol.scale_coeffs = np.array([1.0, 0.0, 0.0])
    dist = metric_distribution(sol, "period", 2000, seed=0)
    assert dist.std == 0.0
    assert dist.samples.min() == dist.samples.max() == pytest.approx(1.0)
    assert np.sum(dist.density * np.diff(dist.bin_edges)) == pytest.approx(1.0)


def test_period_linear_gaussian_map():
    """Scaling a(xi) = 1 + 0.1 xi: the period spread is 0.1 T0 exactly."""
    basis = build_basis([G], 1)
    blocks = np.zeros((2, 1))
    blocks[0] = 1.0
    sol = _toy_solution(blocks, basis, kind="autonomous")
    sol.scale_coeffs = np.array([1.0, 0.1])
    dist = metric_distribution(sol, "period", 1_000_000, seed=4)
    assert dist.mean == pytest.approx(1.0, rel=1e-3)
    assert dist.std == pytest.approx(0.1, rel=0.01)
    # surrogate sampling converges to the coefficient-derived moments
    mean, std = moments(sol.scale_coeffs)
    assert abs(dist.mean - mean) / mean < 0.005
    assert abs(dist.std - std) / std < 0.005
    assert np.sum(dist.density * np.diff(dist.bin_edges)) == pytest.approx(1.0, abs=1e-6)
    kde_mass = np.trapezoid(dist.kde_density, dist.kde_grid)
    assert kde_mass == pytest.approx(1.0, abs=1e-6)


def test_metric_distribution_needs_enough_samples():
    basis = build_basis([G], 1)
    sol = _toy_solution(np.ones((2, 1)), basis, kind="autonomous")
    sol.scale_coeffs = np.array([1.0, 0.1])
    with pytest.raises(ValueError):
        metric_distribution(sol, "period", 10, seed=0)


def test_surrogate_waveforms_shape(rectifier):
    basis = build_basis([s for _, s in rectifier.random_params], 2)
    testing = select_testing_nodes(basis, tensor_rule(basis, 3))
    system = assemble_forced(rectifier, testing)
    sol = shoot_forced(system, nominal_start(system, n_steps=64), n_steps=64)
    xi = draw_standardized(basis.families, 0, 7)
    waves = surrogate_waveforms(sol, xi, rectifier.node_state("out"))
    assert waves.shape == (7, sol.trajectory.times.size)
    with pytest.raises(ValueError):
        sample_periods(sol, xi)  # period sampling needs an autonomous solution


def test_ks_statistic_sanity():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=4000), rng.normal(size=4000)
    assert ks_statistic(a, b) < 0.05
    assert ks_statistic(a, b + 3.0) > 0.8


def test_distribution_from_samples_histogram_mass():
    rng = np.random.default_rng(1)
    dist = distribution_from_samples(rng.normal(size=20_000))
    assert np.sum(dist.density * np.diff(dist.bin_edges)) == pytest.approx(1.0, abs=1e-9)
    assert np.trapezoid(dist.kde_density, dist.kde_grid) == pytest.approx(1.0, abs=1e-6)


def test_ks_statistic_matches_scipy():
    import scipy.stats

    rng = np.random.default_rng(2)
    a, b = rng.normal(size=300), rng.normal(size=1234) + 0.1
    # unequal sizes, ties within and across the samples, a tiny sample
    for x, y in ((a, b), (np.round(a, 1), np.round(b, 1)), (b, a[:7])):
        assert ks_statistic(x, y) == scipy.stats.ks_2samp(x, y).statistic
    # above 10,000 samples scipy reports its floating-point CDF difference,
    # which can differ from the exact fraction in the last bit
    big = rng.normal(size=20_000)
    assert ks_statistic(big, b) == pytest.approx(scipy.stats.ks_2samp(big, b).statistic, rel=1e-14)


@pytest.mark.parametrize("n", [5, 2_000, 50_000])
def test_kde_matches_scipy(n):
    import scipy.stats

    rng = np.random.default_rng(n)
    samples = 1.6e-8 + 3e-10 * rng.standard_t(5, size=n)
    dist = distribution_from_samples(samples)
    kde = scipy.stats.gaussian_kde(samples)
    bw = kde.covariance_factor() * samples.std(ddof=1)
    grid = np.linspace(samples.min() - 6 * bw, samples.max() + 6 * bw, 512)
    np.testing.assert_allclose(dist.kde_grid, grid, rtol=1e-12, atol=0)
    np.testing.assert_allclose(dist.kde_density, kde(dist.kde_grid), rtol=1e-12, atol=0)


def test_kde_reaches_across_a_gap_of_negligible_density():
    """Between a far cluster and the bulk the density falls to about 1e-40;
    there the nearest kernels are what a fixed cut-off would drop."""
    rng = np.random.default_rng(7)
    samples = np.concatenate([rng.normal(size=2000), 28.0 + rng.normal(size=40)])
    dist = distribution_from_samples(samples)
    bw = samples.size ** -0.2 * samples.std(ddof=1)
    z = (dist.kde_grid[:, None] - samples) / bw
    full = np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * np.sqrt(2.0 * np.pi) * bw)
    assert 1e-42 < full.min() < 1e-38
    np.testing.assert_allclose(dist.kde_density, full, rtol=1e-12, atol=0)


def test_p0_mean_waveform_is_nominal_waveform(rc_circuit):
    from pssuq.shooting import solve_forced as _solve

    basis = build_basis([s for _, s in rc_circuit.random_params], 0)
    testing = select_testing_nodes(basis, tensor_rule(basis, 1))
    system = assemble_forced(rc_circuit, testing)
    sol = shoot_forced(system, nominal_start(system, n_steps=100), n_steps=100)
    mean, std = waveform_stats(sol)
    det = _solve(rc_circuit.realize_nominal(), 1e-3, n_steps=100)
    assert np.abs(mean - det.trajectory.states).max() < 1e-10
    assert np.abs(std).max() == 0.0


def test_uq_report_forced(rectifier):
    basis = build_basis([s for _, s in rectifier.random_params], 2)
    testing = select_testing_nodes(basis, tensor_rule(basis, 3))
    system = assemble_forced(rectifier, testing)
    sol = shoot_forced(system, nominal_start(system, n_steps=100), n_steps=100)
    run = monte_carlo(rectifier, solve_nominal(rectifier, n_steps=100), 1000, seed=21, n_steps=100)
    report = build_uq_report(sol, run)
    assert report["max_rel_mean_delta"] < 0.05
    assert np.all(waveform_stats(sol)[1] >= 0) and np.all(run.waveform_mean_std()[1] >= 0)
    assert report["kind"] == "forced" and not any(k.startswith("period") for k in report)
    assert report["mc_samples"] == 1000


def test_monte_carlo_and_compare_leave_out_a_shorted_sample(monkeypatch):
    """A sample that cannot be integrated is flagged, keeps the batch on
    the uniform grid and changes no statistic of the others."""
    c = parse_netlist(SHORTED_AT_A_NODE)
    draws_with_short(monkeypatch, [7])
    with np.errstate(divide="ignore", invalid="ignore"):
        run = monte_carlo(c, solve_nominal(c, n_steps=64), 100, seed=3, n_steps=64)
    assert np.nonzero(run.failed)[0].tolist() == [7]
    assert run.times.size == 65
    draws_with_short(monkeypatch, [7], drop=True)
    sound = monte_carlo(c, solve_nominal(c, n_steps=64), 99, seed=3, n_steps=64)
    assert not sound.failed.any()
    assert np.array_equal(run.times, sound.times)
    for a, b in zip(run.waveform_mean_std(), sound.waveform_mean_std()):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    basis = build_basis([s for _, s in c.random_params], 2)
    testing = select_testing_nodes(basis, tensor_rule(basis, 3))
    system = assemble_forced(c, testing)
    sol = shoot_forced(system, nominal_start(system, n_steps=64), n_steps=64)
    report = build_uq_report(sol, run)
    assert _shared_time_points(sol.trajectory.times, run.times)[0].size == 65
    assert report["mc_samples"] == 100
    assert report["max_rel_mean_delta"] == build_uq_report(sol, sound)["max_rel_mean_delta"]


def test_the_linear_start_gives_a_shorted_neighbour_no_slope(monkeypatch):
    """On the shorted-resistor netlist the linear start's -e_0 neighbour is
    the short: its run is flagged, so the parameter gets slope 0 and every
    sample starts at the nominal state, and each sample but the shorted
    one equals its solve alone from there."""
    c = parse_netlist(SHORTED_AT_A_NODE)
    nominal = solve_nominal(c, n_steps=64)
    draws_with_short(monkeypatch, [7])
    with np.errstate(divide="ignore", invalid="ignore"):
        run = monte_carlo(c, nominal, 100, seed=3, n_steps=64)
        start = linear_start(c, nominal, run.xi, n_steps=64)
    assert np.nonzero(run.failed)[0].tolist() == [7]
    assert np.array_equal(start.y, np.tile(nominal.y, (100, 1))) and start.scale is None
    for i in range(0, 100, 9):
        solo = solve_forced(c.realize(run.xi[i]), nominal.period, y0=start.y[i], n_steps=64)
        assert np.abs(solo.y - run.waveforms[i, 0]).max() <= 1e-12 * np.abs(solo.y).max()
    sound = linear_start(parse_netlist(SHORTED_AT_A_NODE.replace("1k, 1k", "1k, 100")),
                         nominal, run.xi, n_steps=64)
    assert not np.array_equal(sound.y, start.y)  # no short, a slope


def test_an_oscillator_linear_start_keeps_its_scales_above_the_floor(vdp_random):
    """A sample whose first-order period scale would fall to ``SCALE_FLOOR``
    or below starts at the nominal orbit and scale 1; the others move."""
    nominal = solve_nominal(vdp_random, phase_index=0, n_steps=100)
    start = linear_start(vdp_random, nominal, np.array([[0.5], [1e4], [-1e4]]), n_steps=100)
    assert np.all(start.scale > SCALE_FLOOR) and start.scale[0] != 1.0
    (reset,) = np.flatnonzero(start.scale == 1.0)
    assert reset in (1, 2) and np.array_equal(start.y[reset], nominal.y)
    assert start.scale[3 - reset] > 1.0


def test_uq_report_compares_on_shared_time_points(rc_circuit):
    """Points a bisected step added to one grid are left out of the deltas."""
    basis = build_basis([s for _, s in rc_circuit.random_params], 1)
    testing = select_testing_nodes(basis, tensor_rule(basis, 2))
    system = assemble_forced(rc_circuit, testing)
    sol = shoot_forced(system, nominal_start(system, n_steps=50), n_steps=50)
    run = monte_carlo(rc_circuit, solve_nominal(rc_circuit, n_steps=50), 20, seed=4, n_steps=50)
    base = build_uq_report(sol, run)
    quarter = run.times[10] + np.array([0.25, 0.5, 0.75]) * (run.times[11] - run.times[10])
    refined = dataclasses.replace(
        run,
        times=np.insert(run.times, 11, quarter),
        waveforms=np.insert(run.waveforms, [11] * 3, 1e6, axis=1),
    )
    for mc in (refined, run):
        ia, _ = _shared_time_points(sol.trajectory.times, mc.times)
        assert np.array_equal(sol.trajectory.times[ia], sol.trajectory.times)
        report = build_uq_report(sol, mc)
        assert report["max_rel_mean_delta"] == base["max_rel_mean_delta"]
        assert report["max_rel_std_delta"] == base["max_rel_std_delta"]
    shifted = dataclasses.replace(run, times=2.0 * run.times)
    with pytest.raises(ValueError, match="different grids"):
        build_uq_report(sol, shifted)


def test_uq_report_autonomous(vdp_random):
    from pssuq.stpss import assemble_autonomous, shoot_autonomous

    det = solve_nominal(vdp_random, phase_index=0, n_steps=300)
    basis = build_basis([s for _, s in vdp_random.random_params], 2)
    testing = select_testing_nodes(basis, tensor_rule(basis, 3))
    sys_a = assemble_autonomous(vdp_random, testing, float(det.period))
    guess = np.zeros((basis.size, 2))
    guess[0] = det.y
    scale = np.zeros(basis.size)
    scale[0] = 1.0
    sol = shoot_autonomous(sys_a, det.phase, guess, scale, n_steps=300)
    run = monte_carlo(vdp_random, det, 300, seed=5, n_steps=300)
    surro = sample_periods(sol, draw_standardized([LEGENDRE], 6, 300))
    report = build_uq_report(sol, run, surrogate_periods=surro)
    assert report["period_mean_rel_delta"] < 0.01
    assert report["period_ks_statistic"] < 0.2
