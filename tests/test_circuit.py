"""Device evaluation: stamps, Jacobians, parameter maps, conservation."""

import numpy as np
import pytest

import pssuq.circuit as circuit
import pssuq.transient as transient
from pssuq import load_netlist, parse_netlist
from pssuq.circuit import DC_TOL, CircuitError, DistributionSpec, dc_operating_point, thermal_voltage

# one of everything, with both distribution kinds in play
ALL_DEVICES = """
.param rr = uniform(900, 1100)
.param cc = gauss(1u, 0.05u)
.param vt = gauss(0.4238, 0.01)
.param isat = const(1e-13)
V1 1 0 SIN(0.2 1 1k 30)
R1 1 2 {rr}
C1 2 0 {cc}
L1 2 3 10m
I1 0 3 DC 1m
D1 3 4 IS={isat} N=1.5 CJ=2p
R2 4 0 2k
M1 5 2 0 KP=2m VT0={vt} LAMBDA=0.05 CGS=1p CGD=2p
R3 5 1 1k
M2 0 6 5 KP=1m VT0=0.5 PMOS
R5 6 2 5k
Q1 7 6 0 ALPHA=0.98 IS=1e-13
R4 7 1 3k
NVDP 4 0 MU=0.2
"""


@pytest.fixture(scope="module")
def devices():
    return parse_netlist(ALL_DEVICES)


def test_realize_affine_maps():
    gauss = DistributionSpec.gaussian(0.4238, 0.01)
    assert gauss.to_physical(0.0) == pytest.approx(0.4238)
    uni = DistributionSpec.uniform(900, 1100)
    assert uni.to_physical(1.0) == pytest.approx(1100.0)
    nh = DistributionSpec.uniform(0.8e-9, 2.0e-9)
    assert nh.to_physical(-1.0) == pytest.approx(0.8e-9)
    assert nh.to_physical(0.0) == pytest.approx(1.4e-9)


def test_realize_dimension_mismatch(devices):
    with pytest.raises(Exception, match="coordinates"):
        devices.realize([0.0])  # circuit has three random parameters


def test_zero_state_current_source():
    c = parse_netlist("R1 1 0 1\nC1 1 0 1\nI1 0 1 DC 1\n")
    ev = c.realize_nominal().eval_dae(np.zeros(1), 0.0)
    assert np.allclose(ev.q, 0) and np.allclose(ev.f, 0)
    assert ev.bu[0] == pytest.approx(1.0)


def test_diode_small_signal_conductance():
    c = parse_netlist("D1 1 0 IS=1e-14\nI1 0 1 DC 0\n")
    ev = c.realize_nominal().eval_dae(np.zeros(1), 0.0)
    g = 1e-14 / thermal_voltage()
    assert ev.f[0] == pytest.approx(0.0, abs=1e-30)
    assert ev.df_dx[0, 0] == pytest.approx(g, rel=1e-12)
    assert g == pytest.approx(3.868e-13, rel=1e-3)


def test_junction_limiting_is_tangent_and_finite():
    c = parse_netlist("D1 1 0 IS=1e-14\nI1 0 1 DC 0\n")
    inst = c.realize_nominal()
    vt = thermal_voltage()
    vc = vt * np.log(1e10)
    below = inst.eval_dae(np.array([vc - 1e-9]), 0.0)
    above = inst.eval_dae(np.array([vc + 1e-9]), 0.0)
    # C1 continuation: value and slope agree across the cutoff
    assert above.f[0] - below.f[0] == pytest.approx(2e-9 * below.df_dx[0, 0], rel=1e-4)
    huge = inst.eval_dae(np.array([100.0]), 0.0)
    assert np.isfinite(huge.f).all() and np.isfinite(huge.df_dx).all()


def _rel_err(a, b):
    scale = np.max(np.abs(a)) + np.max(np.abs(b)) + 1e-30
    return np.max(np.abs(a - b)) / scale


def test_jacobians_match_finite_differences(devices):
    rng = np.random.default_rng(42)
    n = devices.n
    worst = 0.0
    for _ in range(100):
        xi = rng.normal(size=devices.dim) * 0.5
        inst = devices.realize(xi)
        x = rng.normal(size=n) * 0.3
        t = rng.uniform(0, 1e-3)
        ev = inst.eval_dae(x, t)
        fd_q = np.empty((n, n))
        fd_f = np.empty((n, n))
        for i in range(n):
            h = 1e-7 * (1.0 + abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            evp, evm = inst.eval_dae(xp, t), inst.eval_dae(xm, t)
            fd_q[:, i] = (evp.q - evm.q) / (2 * h)
            fd_f[:, i] = (evp.f - evm.f) / (2 * h)
        worst = max(worst, _rel_err(ev.dq_dx, fd_q), _rel_err(ev.df_dx, fd_f))
    assert worst < 1e-6


@pytest.mark.parametrize(
    "net, rows",
    [
        ("D1 1 2 IS=1e-14\nR1 1 0 1k\nR2 2 0 1k\n", ("1", "2")),
        ("NVDP 1 2 MU=0.3\nR1 1 0 1k\nR2 2 0 1k\n", ("1", "2")),
        ("M1 1 2 3 KP=2m VT0=0.4\nR1 1 0 1k\nR2 2 0 1k\nR3 3 0 1k\n", ("1", "2", "3")),
        ("Q1 1 2 3 ALPHA=0.99 IS=1e-14\nR1 1 0 1k\nR2 2 0 1k\nR3 3 0 1k\n", ("1", "2", "3")),
        ("C1 1 2 1u\nR1 1 0 1k\nR2 2 0 1k\n", ("1", "2")),
    ],
)
def test_charge_and_current_conservation(net, rows):
    """Each device's terminal contributions sum to zero (KCL stamping)."""
    c = parse_netlist(net)
    inst = c.realize_nominal()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=c.n) * 0.4
        ev = inst.eval_dae(x, 0.0)
        idx = [c.node_state(r) for r in rows]
        # subtract the grounded test resistors, which close KCL to ground
        resist = np.array([x[c.node_state(r)] / 1e3 for r in rows])
        assert np.sum(ev.f[idx] - resist) == pytest.approx(0.0, abs=1e-12)
        assert np.sum(ev.q[idx]) == pytest.approx(0.0, abs=1e-18)


def test_linear_elements_are_exactly_linear():
    c = parse_netlist("V1 1 0 DC 1\nR1 1 2 1k\nC1 2 0 1u\nL1 2 3 10m\nR2 3 0 50\n")
    inst = c.realize_nominal()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=c.n)
        ev = inst.eval_dae(x, 0.0)
        assert np.allclose(ev.q, ev.dq_dx @ x, rtol=1e-14, atol=1e-18)
        assert np.allclose(ev.f, ev.df_dx @ x, rtol=1e-14, atol=1e-15)


def test_realize_at_zero_is_nominal(devices):
    nominal_text = (
        ALL_DEVICES.replace("{rr}", "1000").replace("{cc}", "1u")
        .replace("{vt}", "0.4238").replace("{isat}", "1e-13")
    )
    nominal_text = "\n".join(
        ln for ln in nominal_text.splitlines() if not ln.startswith(".param")
    )
    lit = parse_netlist(nominal_text)
    rng = np.random.default_rng(5)
    x = rng.normal(size=devices.n) * 0.2
    a = devices.realize(np.zeros(devices.dim)).eval_dae(x, 2e-4)
    b = lit.realize_nominal().eval_dae(x, 2e-4)
    assert np.allclose(a.q, b.q) and np.allclose(a.f, b.f) and np.allclose(a.bu, b.bu)
    assert np.allclose(a.dq_dx, b.dq_dx) and np.allclose(a.df_dx, b.df_dx)


def _shared_order_batch(c=None, seed=22):
    """(circuit, xi, x): a batch of ``SHARED_ORDER_MIN_BATCH`` rows of the
    bundled rectifier (or of circuit ``c``), which ``batched_solve``
    eliminates in a shared row order."""
    from conftest import CIRCUITS_DIR

    c = c or load_netlist(CIRCUITS_DIR / "rectifier.cir")
    rng = np.random.default_rng(seed)
    rows = transient.SHARED_ORDER_MIN_BATCH
    return c, rng.normal(size=(rows, c.dim)) * 0.5, rng.normal(size=(rows, c.n)) * 0.3


def test_batched_evaluation_matches_loop(devices):
    """A batch gives each row its solo bits, also a batch the solver
    eliminates in a shared row order."""
    rng = np.random.default_rng(9)
    xi = rng.normal(size=(8, devices.dim)) * 0.5
    x = rng.normal(size=(8, devices.n)) * 0.3
    for c, xi, x in ((devices, xi, x), _shared_order_batch(seed=9)):
        batch = c.realize(xi).eval_dae(x, 1e-4)
        for b in range(len(xi)):
            one = c.realize(xi[b]).eval_dae(x[b], 1e-4)
            for name in ("q", "f", "bu", "dq_dx", "df_dx"):
                assert np.array_equal(getattr(batch, name)[b], getattr(one, name))


def test_every_batch_is_stamped_state_major(devices):
    """dq/dx and df/dx of every batch of parameter sets, from ``eval_dae``
    and ``jacobians``, are (B, n, n) views of (n, n, B) buffers: with and
    without devices, and in and out of the solver's shared-order gate."""
    c, xi, x = _shared_order_batch()
    rng = np.random.default_rng(23)
    rc = _linear_circuits()[0]
    cases = [
        (c, xi, x), (c, xi[1:], x[1:]), (c, xi[:2], x[:2]),
        (devices, rng.normal(size=(8, devices.dim)) * 0.5, rng.normal(size=(8, devices.n)) * 0.3),
        (rc, rng.normal(size=(4, rc.dim)), rng.normal(size=(4, rc.n))),
    ]
    for c, xi, x in cases:
        inst = c.realize(xi)
        ev = inst.eval_dae(x, 2e-4)
        for a in (ev.dq_dx, ev.df_dx, *inst.jacobians(x)):
            assert a.shape == (len(xi), c.n, c.n)
            assert a.transpose(1, 2, 0).flags.c_contiguous


def test_a_state_major_batch_integrates_and_chains_with_the_same_bits(monkeypatch):
    """One ``integrate`` and the ``transition_chain`` over it, plain and
    with a period scale's columns, give the same bits with the batch's
    Jacobians stamped state-major as with them handed out C-contiguous."""
    from conftest import contiguous_jacobians
    from pssuq.shooting import CircuitDae

    c, xi, x = _shared_order_batch()
    T = c.fundamental_period()

    def run():
        inst = c.realize(xi)
        traj = transient.integrate(CircuitDae(inst), x, 0.0, T / 4, n_steps=20)
        M, _ = transient.transition_chain(CircuitDae(inst), traj)
        scaled = CircuitDae(inst, np.linspace(0.9, 1.1, len(xi)))
        Ms, S = transient.transition_chain(scaled, traj, with_scale_columns=True)
        return traj.states, M, Ms, S

    state_major = run()
    contiguous_jacobians(monkeypatch)
    for got, want in zip(state_major, run()):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("amplitude", ["1", "{amp}"], ids=["literal", "random"])
def test_batched_sources_are_the_solo_bits(amplitude):
    """A batch's B u(t), from ``source`` and from ``eval_dae``, gives each
    row its solo bits: with a literal sine, evaluated once and broadcast,
    and with a random amplitude."""
    from conftest import RECTIFIER

    text = RECTIFIER.replace("SIN(0 1 1k)", f"SIN(0 {amplitude} 1k)")
    c, xi, x = _shared_order_batch(parse_netlist(".param amp = uniform(0.9, 1.1)\n" + text))
    batch = c.realize(xi)
    for t in (0.0, 1.3e-4, 7.7e-4):
        bu, ev = batch.source(t), batch.eval_dae(x, t)
        for k in range(len(xi)):
            one = c.realize(xi[k])
            assert bu[k].tobytes() == one.source(t)[0].tobytes()
            assert ev.bu[k].tobytes() == one.eval_dae(x[k], t).bu.tobytes()


def test_dc_operating_point_resistive():
    c = parse_netlist("R1 1 0 1k\nV1 1 0 DC 1\n")
    x = dc_operating_point(c.realize_nominal())
    assert x[0] == pytest.approx(1.0)
    assert x[1] == pytest.approx(-1e-3)


def test_dc_operating_point_falls_back_to_source_stepping():
    """A 12 V source across a cubic conductor (2.8 kA). Damped Newton from
    0 only creeps there: its line search keeps the cubic KCL residual below
    the source row's, so the direct solve runs out of iterations, and so
    does the gmin ladder's first rung, whose conductance is negligible.
    Ramping the source reaches the point; each of the three stages starts
    from x = 0."""
    c = parse_netlist("V1 1 0 DC 12\nN1 1 0 MU=5\n")
    inst = c.realize_nominal()
    starts = []
    eval_dae = inst.eval_dae

    def recording(x, t):
        starts.append(not np.any(x))
        return eval_dae(x, t)

    inst.eval_dae = recording
    x = dc_operating_point(inst)
    assert sum(starts) == 3
    assert x[0] == 12.0
    assert x[1] == pytest.approx(-5.0 * (12.0**3 / 3.0 - 12.0), rel=1e-12)
    ev = eval_dae(x, 0.0)
    assert np.abs(ev.f - ev.bu).max() <= DC_TOL


@pytest.mark.parametrize("netlist, message", [
    # a short: the residual at x = 0 is not finite, so the element is named
    (".param r = const(0)\nV1 in 0 DC 1\nR1 in out {r}\nC1 out 0 1u\n",
     r"\(residual nan\) \(non-finite contribution from element R1\)$"),
    # every stage creeps on the cubic conductor: a finite failure names none
    ("V1 1 0 DC 40\nN1 1 0 MU=5\n", r"\(residual 2\.350e\+00\)$"),
], ids=["short", "cubic"])
def test_dc_failure_names_a_non_finite_element(netlist, message):
    inst = parse_netlist(netlist).realize_nominal()
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(CircuitError, match=r"^DC operating point did not converge " + message):
            dc_operating_point(inst)


def test_dc_stages_end_at_once_on_a_non_finite_start():
    """A shorted resistor makes the residual at x = 0 NaN: every stage
    starts there, so each fails on its first evaluation instead of
    halving every Newton step to exhaustion."""
    netlist = ".param r = const(0)\nV1 in 0 DC 1\nR1 in out {r}\nC1 out 0 1u\n"
    inst = parse_netlist(netlist).realize_nominal()
    calls = []
    eval_dae = inst.eval_dae

    def counting(x, t):
        calls.append(t)
        return eval_dae(x, t)

    inst.eval_dae = counting
    expect = (r"^DC operating point did not converge \(residual nan\) "
              r"\(non-finite contribution from element R1\)$")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(CircuitError, match=expect):
            dc_operating_point(inst)
    assert len(calls) <= 20


@pytest.mark.parametrize("volts", [3, 8, 12, None], ids=["3V", "8V", "12V", "lna"])
def test_batched_dc_points_are_the_solo_ones_bit_for_bit(volts):
    """A source through a random resistor into a cubic conductor, at nine
    points, and the bundled LNA at eight: each sample of a batch damps its
    own Newton step and runs the stages alone, so its DC point has the bits
    of its solo solve."""
    from conftest import CIRCUITS_DIR

    if volts is None:
        c, xi = load_netlist(CIRCUITS_DIR / "lna.cir"), np.random.default_rng(5).uniform(-1, 1, (8, 2))
    else:
        netlist = f".param r = uniform(0.01, 100)\nV1 a 0 DC {volts}\nR1 a b {{r}}\nN1 b 0 MU=5\n"
        c, xi = parse_netlist(netlist + "R2 b 0 1\n"), np.linspace(-1.0, 1.0, 9)[:, None]
    batch = dc_operating_point(c.realize(xi))
    solo = np.array([dc_operating_point(c.realize(row)) for row in xi])
    assert np.array_equal(batch, solo)


def test_dc_rungs_are_damped_newton_calls(monkeypatch):
    """At 12 V across the cubic conductor the direct solve fails, the gmin
    ladder stops at its first rung, and source stepping takes ten rungs:
    twelve ``transient.damped_newton`` calls, the point the last one's."""
    assert circuit.damped_newton is transient.damped_newton
    calls = []

    def recording(*args):
        calls.append(transient.damped_newton(*args))
        return calls[-1]

    monkeypatch.setattr(circuit, "damped_newton", recording)
    x = dc_operating_point(parse_netlist("V1 1 0 DC 12\nN1 1 0 MU=5\n").realize_nominal())
    assert len(calls) == 12
    assert np.array_equal(calls[-1][0][0], x)


def test_a_dc_solve_makes_no_jacobians_call(monkeypatch):
    """Each DC Newton step takes df/dx from the evaluation of its iterate:
    through the cubic conductor's gmin and source steps, and on a batch of
    the bundled LNA, no device is stamped again by ``jacobians``."""
    from conftest import CIRCUITS_DIR

    def jacobians(self, x):
        raise AssertionError("a DC solve called jacobians")

    monkeypatch.setattr(circuit.CircuitInstance, "jacobians", jacobians)
    x = dc_operating_point(parse_netlist("V1 1 0 DC 12\nN1 1 0 MU=5\n").realize_nominal())
    assert x[0] == 12.0
    lna = load_netlist(CIRCUITS_DIR / "lna.cir")
    assert np.isfinite(dc_operating_point(lna.realize(np.random.default_rng(5).uniform(-1, 1, (8, 2))))).all()


def test_a_failed_batched_dc_solve_names_the_sample():
    c = parse_netlist(".param v = uniform(2, 42)\nV1 1 0 DC {v}\nN1 1 0 MU=5\n")
    expect = r"^DC operating point did not converge at sample 1 \(residual 2\.443e\+00\)$"
    with pytest.raises(CircuitError, match=expect):
        dc_operating_point(c.realize(np.array([[-1.0], [1.0]])))


def test_pmos_conducts_with_negative_vgs():
    # source at 1.5 V, gate at 0: |vgs| = 1.5 > VT0 -> current s -> d
    c = parse_netlist("V1 s 0 DC 1.5\nM1 d g s KP=1m VT0=0.5 PMOS\nR1 d 0 1k\nR2 g 0 1k\n")
    inst = c.realize_nominal()
    x = dc_operating_point(inst)
    vd = x[c.node_state("d")]
    assert vd > 0.1  # pulled up by the PMOS
    ev = inst.eval_dae(x, 0.0)
    assert np.isfinite(ev.df_dx).all()


def _linear_circuits():
    from pssuq.cli import synthetic_ladder

    from conftest import CIRCUITS_DIR

    return [parse_netlist((CIRCUITS_DIR / "rc_lowpass.cir").read_text()), synthetic_ladder(12, 4)]


@pytest.mark.parametrize("index", [0, 1], ids=["rc_lowpass", "ladder"])
def test_linear_circuit_evaluates_through_its_matrices(index):
    """An all-linear circuit's q and f are exactly its Jacobians times x:
    one circuit's by numpy's product as they are, a batch's, 4 rows and one
    the solver eliminates in a shared row order, by the BLAS product of
    their C-contiguous copies, the one ``eval_dae`` takes (numpy's own loop,
    which a state-major operand takes, rounds otherwise)."""
    c = _linear_circuits()[index]
    rng = np.random.default_rng(12)
    inst, x = c.realize(rng.normal(size=c.dim) * 0.5), rng.normal(size=c.n)
    ev = inst.eval_dae(x, 3e-4)
    assert np.array_equal(ev.q, ev.dq_dx @ x)
    assert np.array_equal(ev.f, ev.df_dx @ x)
    for rows in (4, transient.SHARED_ORDER_MIN_BATCH):
        x = rng.normal(size=(rows, c.n))
        ev = c.realize(rng.normal(size=(rows, c.dim)) * 0.5).eval_dae(x, 3e-4)
        assert np.array_equal(ev.q, (np.ascontiguousarray(ev.dq_dx) @ x[..., None])[..., 0])
        assert np.array_equal(ev.f, (np.ascontiguousarray(ev.df_dx) @ x[..., None])[..., 0])


def test_one_parameter_set_evaluates_a_state_batch(devices):
    rng = np.random.default_rng(13)
    inst = devices.realize(rng.normal(size=devices.dim) * 0.5)
    x = rng.normal(size=(3, devices.n)) * 0.3
    batch = inst.eval_dae(x, 2e-4)
    assert batch.q.shape == (3, devices.n) and batch.df_dx.shape == (3, devices.n, devices.n)
    for k in range(3):
        one = inst.eval_dae(x[k], 2e-4)
        for name in ("q", "f", "bu", "dq_dx", "df_dx"):
            np.testing.assert_array_equal(getattr(batch, name)[k], getattr(one, name))


# result-ownership cases -> the results their evaluation shares with the
# instance, read-only: C, G without devices and a constant B u (every case
# here has a sine source)
_SHARED = {
    "rc_lowpass": {"dq_dx", "df_dx"},
    "all_devices": {"dq_dx"},
    "state_major": {"dq_dx"},
    "state_major_rc_lowpass": {"dq_dx", "df_dx"},
}
_RESULTS = ("q", "f", "bu", "dq_dx", "df_dx")


def _results_case(case, devices):
    """(instance, states) of one result-ownership case."""
    if case.startswith("state_major"):
        c, xi, x = _shared_order_batch(_linear_circuits()[0] if case.endswith("rc_lowpass") else None)
        return c.realize(xi), x
    c = _linear_circuits()[0] if case == "rc_lowpass" else devices
    return c.realize(np.zeros(c.dim)), np.random.default_rng(14).normal(size=c.n) * 0.3


@pytest.mark.parametrize("case", list(_SHARED))
def test_results_are_fresh_arrays(devices, case):
    """q, f, a device df/dx and a time-varying B u are new arrays: writing
    into them leaves the next evaluation unchanged."""
    inst, x = _results_case(case, devices)
    first = inst.eval_dae(x, 1e-4)
    keep = {name: getattr(first, name).copy() for name in _RESULTS if name not in _SHARED[case]}
    for name in keep:
        getattr(first, name)[...] = 7.0
    again = inst.eval_dae(x, 1e-4)
    for name, value in keep.items():
        np.testing.assert_array_equal(getattr(again, name), value)


@pytest.mark.parametrize("case", [*_SHARED, "one_set_state_batch", "constant_source"])
def test_shared_results_are_read_only(devices, case):
    """C, G without devices and a constant B u are the instance's own
    arrays, from ``eval_dae`` and ``jacobians``: writing into them raises,
    and the other results are writeable. When one parameter set evaluates
    a batch of states, its one row of B u is broadcast, read-only too."""
    if case == "one_set_state_batch":
        inst, x = devices.realize(np.zeros(devices.dim)), np.zeros((3, devices.n))
        shared = {"bu", "dq_dx"}
    elif case == "constant_source":
        inst, x = parse_netlist("V1 1 0 DC 1\nR1 1 2 1k\nC1 2 0 1u\n").realize_nominal(), np.ones(3)
        shared = {"bu", "dq_dx", "df_dx"}
    else:
        (inst, x), shared = _results_case(case, devices), _SHARED[case]
    ev = inst.eval_dae(x, 1e-4)
    assert {name for name in _RESULTS if not getattr(ev, name).flags.writeable} == shared
    dq, df = inst.jacobians(x)
    assert not dq.flags.writeable and df.flags.writeable == ("df_dx" not in shared)
    for a in (getattr(ev, name) for name in shared):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 7.0


def test_find_nonfinite_element_names_a_shorted_resistor():
    from conftest import SHORTED_AT_A_NODE

    c = parse_netlist(SHORTED_AT_A_NODE)  # r = gauss(1k, 1k): xi = -1 is a short
    x = np.array([1.0, 0.5, -1e-3])
    assert c.realize([0.5]).find_nonfinite_element(x, 0.0) is None
    with np.errstate(divide="ignore", invalid="ignore"):
        assert c.realize([-1.0]).find_nonfinite_element(x, 0.0) == "R1"
        batch = c.realize([[0.5], [-1.0], [0.2]])
        assert batch.find_nonfinite_element(np.tile(x, (3, 1)), 0.0) == "R1"
        assert not np.isfinite(batch.eval_dae(np.tile(x, (3, 1)), 0.0).f[1]).all()


def _jacobian_case(case, devices):
    """(instance, states) of one ``jacobians`` test case."""
    from conftest import CIRCUITS_DIR, RECTIFIER, SHORTED_AT_A_NODE
    from pssuq.gpc import build_basis, select_testing_nodes, tensor_rule

    rng = np.random.default_rng(16)
    if case == "one-circuit":
        c = parse_netlist(RECTIFIER)
        return c.realize_nominal(), rng.normal(size=c.n) * 0.3
    if case == "one-set-state-batch":
        return devices.realize(rng.normal(size=devices.dim) * 0.5), rng.normal(size=(3, devices.n)) * 0.3
    if case == "node-batch":
        c = parse_netlist((CIRCUITS_DIR / "lna.cir").read_text())
        basis = build_basis([s for _, s in c.random_params], 2)
        nodes = select_testing_nodes(basis, tensor_rule(basis, 3)).nodes
        return c.realize(nodes), rng.normal(size=(len(nodes), c.n)) * 0.3
    if case == "2000-samples":
        c = parse_netlist(RECTIFIER)
        return c.realize(rng.normal(size=(2000, c.dim))), rng.normal(size=(2000, c.n)) * 0.3
    if case == "all-devices":
        return devices.realize(rng.normal(size=(8, devices.dim)) * 0.5), rng.normal(size=(8, devices.n)) * 0.3
    c = parse_netlist(SHORTED_AT_A_NODE)  # xi = -1 shorts R1: infinite conductances
    return c.realize([[0.5], [-1.0], [0.2]]), rng.normal(size=(3, c.n))


@pytest.mark.parametrize("case", [
    "one-circuit", "one-set-state-batch", "node-batch", "2000-samples", "all-devices", "shorted",
])
def test_jacobian_only_evaluation_is_eval_dae_bit_for_bit(devices, case):
    """``jacobians`` stamps dq/dx and df/dx alone, with ``eval_dae``'s bits
    and shapes; what it shares with the instance is read-only."""
    inst, x = _jacobian_case(case, devices)
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = inst.eval_dae(x, 2e-4)
        dq, df = inst.jacobians(x)
    for got, want in ((dq, ev.dq_dx), (df, ev.df_dx)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    assert not dq.flags.writeable
    if case == "shorted":
        assert np.isinf(df[1]).any() and np.isfinite(df[[0, 2]]).all()


def _per_slot_bjts(plan, elems):
    """The BJT compiler with one product and one store per slot, the form
    the fused fill must reproduce bit for bit: kept here as its reference."""
    from pssuq.circuit import DEFAULT_TEMPERATURE, _limited_exp

    c_, b_, e_ = plan._nidx(elems, 0), plan._nidx(elems, 1), plan._nidx(elems, 2)
    av, isv = plan._pval(elems, "ALPHA"), plan._pval(elems, "IS")
    tv = plan._pval(elems, "TEMP", default=DEFAULT_TEMPERATURE)
    fc, fb, fe = (plan._slots(plan.nl, elems, lambda k: [(t[k], 1.0)]) for t in (c_, b_, e_))
    jc, jb, je = (
        plan._slots(plan.nl, elems, lambda k: [(t[k], b_[k], +1.0), (t[k], e_[k], -1.0)])
        for t in (c_, b_, e_)
    )

    def bind(resolve):
        i_s, alpha, vt = resolve(isv), resolve(av), thermal_voltage(resolve(tv))
        beta = 1.0 - alpha

        def fill(x, out):
            ev, dev = _limited_exp((x[b_] - x[e_]) / vt)
            i_f, gpi = i_s * (ev - 1.0), i_s * dev / vt
            out[fc], out[fb], out[fe] = alpha * i_f, beta * i_f, -i_f
            out[jc], out[jb], out[je] = alpha * gpi, beta * gpi, -gpi

        return fill

    plan.devices.append(bind)


def _same_bits(a, b):
    """Equal bit for bit, except that a NaN matches a NaN of either sign:
    negating a NaN flips its sign bit, a product by -1 keeps it, and IEEE
    754 leaves that sign to the operation; no caller reads it."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and (
        np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes()
    )


@pytest.mark.parametrize("case", ["all-devices", "colpitts-nodes", "non-finite"])
def test_fused_device_stores_write_the_per_slot_bits(monkeypatch, case):
    """A device kind whose slots form one block fills it with one product
    and one store; the slot values equal those of one store per slot."""
    from conftest import COLPITTS
    from pssuq.circuit import _EvalPlan
    from pssuq.gpc import build_basis, select_testing_nodes, tensor_rule

    rng = np.random.default_rng(21)
    text = ALL_DEVICES if case == "all-devices" else COLPITTS
    fused = parse_netlist(text)
    got = fused.plan().nl  # compiled before the reference compiler goes in
    if case == "all-devices":
        xi = rng.normal(size=(8, fused.dim)) * 0.5
    else:
        basis = build_basis([s for _, s in fused.random_params], 2)
        xi = select_testing_nodes(basis, tensor_rule(basis, 3)).nodes
    # wide enough that some junctions pass the exponential's cutoff
    x = rng.normal(size=(len(xi), fused.n))
    if case == "non-finite":
        b, e = fused.node_state("base"), fused.node_state("emit")
        x[[0, 1, 2, 3], [b, b, e, e]] = np.nan, np.inf, np.inf, -np.inf
    monkeypatch.setattr(_EvalPlan, "_compile_bjts", _per_slot_bjts)
    reference = parse_netlist(text)
    want = reference.plan().nl
    assert got.names == want.names and np.array_equal(got.flat, want.flat)
    with np.errstate(invalid="ignore", over="ignore"):
        v_got = fused.realize(xi)._nonlinear(x)[1]
        v_want = reference.realize(xi)._nonlinear(x)[1]
    assert _same_bits(v_got, v_want)
    assert np.isnan(v_got).any() == (case == "non-finite")
