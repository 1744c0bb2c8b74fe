"""Shared circuit fixtures for the test suite."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pssuq.analysis as analysis
import pssuq.stpss as stpss
from pssuq import load_netlist, parse_netlist
from pssuq.circuit import CircuitInstance
from pssuq.gpc import build_basis, select_testing_nodes, tensor_rule
from pssuq.shooting import PhaseCondition, estimate_period, solve_autonomous, solve_nominal
from pssuq.stpss import (
    _coefficient_trajectory,
    _raise_on_failed_node,
    assemble_forced,
    nominal_guess,
)
from pssuq.transient import integrate

CIRCUITS_DIR = Path(__file__).resolve().parents[1] / "src" / "pssuq" / "circuits"

RC_FORCED = """
.param r = uniform(800, 1200)
V1 in 0 SIN(0 1 1k)
R1 in out {r}
C1 out 0 1u
"""

RECTIFIER = """
.param rload = uniform(900, 1100)
.param cload = gauss(1u, 0.05u)
V1 in 0 SIN(0 1 1k)
RS in drive 100
D1 drive out IS=1e-12
R1 out 0 {rload}
C1 out 0 {cload}
"""

VDP_FIXED = """
C1 1 0 1
L1 1 0 1
NVDP 1 0 MU=0.1
"""

VDP_RANDOM = """
.param mu = uniform(0.07, 0.13)
C1 1 0 1
L1 1 0 1
NVDP 1 0 MU={mu}
"""

COLPITTS = (CIRCUITS_DIR / "colpitts.cir").read_text()

# gauss(1k, 1k) at chaos order 1 puts a testing node at xi = -1, where the
# resistor is a short (non-finite conductance); the nominal circuit is sound
SHORTED_AT_A_NODE = """
.param r = gauss(1k, 1k)
V1 in 0 SIN(0 1 1k)
R1 in out {r}
C1 out 0 1u
"""


@pytest.fixture(scope="session")
def rc_circuit():
    return parse_netlist(RC_FORCED)


@pytest.fixture(scope="session")
def rectifier():
    return parse_netlist(RECTIFIER)


@pytest.fixture(scope="session")
def vdp_circuit():
    return parse_netlist(VDP_FIXED)


@pytest.fixture(scope="session")
def vdp_random():
    return parse_netlist(VDP_RANDOM)


@pytest.fixture(scope="session")
def colpitts():
    return parse_netlist(COLPITTS)


@pytest.fixture(scope="session")
def vdp_nominal(vdp_circuit):
    """Estimated and refined nominal limit cycle of the relaxation oscillator."""
    inst = vdp_circuit.realize_nominal()
    est = estimate_period(inst, 0)
    phase = PhaseCondition(0, est.level)
    sol = solve_autonomous(inst, phase, est.period, est.y0, n_steps=400)
    return est, phase, sol


@pytest.fixture(scope="session")
def colpitts_nominal(colpitts):
    inst = colpitts.realize_nominal()
    idx = colpitts.node_state("coll")
    est = estimate_period(inst, idx)
    phase = PhaseCondition(idx, est.level)
    sol = solve_autonomous(inst, phase, est.period, est.y0, n_steps=300)
    return est, phase, sol


@pytest.fixture(scope="session")
def lna_perturbed():
    """The bundled amplifier at chaos order 2 (K = 6) and a start near its PSS.

    The start is the nominal coefficient guess plus a seeded 1e-3
    perturbation; on 200 steps per period one testing node cannot take
    the second step whole, so the run bisects it (205 points, not 201).
    Returns ``(stacked system, coefficient stack)``.
    """
    circuit = load_netlist(CIRCUITS_DIR / "lna.cir")
    basis = build_basis([s for _, s in circuit.random_params], 2)
    testing = select_testing_nodes(basis, tensor_rule(basis, 3))
    system = assemble_forced(circuit, testing)
    guess = nominal_guess(system, solve_nominal(circuit, n_steps=200)).ravel()
    return system, guess + 1e-3 * np.random.default_rng(0).normal(size=guess.size)


def nominal_start(system, tol=1e-5, n_steps=200):
    """``shoot_forced``'s coefficient guess: the nominal solution, solved
    over the system's period with the same tolerance and grid, in block 1."""
    nominal = solve_nominal(system.circuit, system.horizon, tol=tol, n_steps=n_steps)
    return nominal_guess(system, nominal)


def newton_iterates(solve, *args, **kwargs):
    """``solve(*args, **kwargs)`` and the iterates of the one chaos Newton
    it runs, read from the history ``stpss.damped_newton`` returns."""
    histories = []

    def spy(*a, _newton=stpss.damped_newton, **kw):
        out = _newton(*a, **kw)
        histories.append(out[-1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stpss, "damped_newton", spy)
        sol = solve(*args, **kwargs)
    (history,) = histories
    return sol, [u for u, _, _ in history]


def gram_matrix(basis, rule):
    """Quadrature approximation of the basis Gram matrix (identity, ideally)."""
    nodes, weights = rule
    H = basis.eval(nodes)  # (M, K)
    return H.T @ (H * weights[:, None])


def period_map(system, coeffs, **options):
    """One period of the coefficient stack, integrated at the testing nodes.

    The surrogate states at the K testing nodes start at V @ coeffs and
    advance as one lockstep batch of the node circuits over the forcing
    period (forced) or the reference period in scaled time (oscillators,
    with the scaling set in ``system.scale_coeffs``), first step backward
    Euler; ``options`` (``n_steps``, ``scheme``, ``newton``) go to
    ``integrate``. Returns ``(coefficient trajectory, node trajectory)``:
    the same grid, with the node states mapped back by V^{-1} at every
    point. A failing testing node raises as in the solvers. The solvers
    run this batch through the shooting engine; ``period_map`` is the
    coefficient map as a function, the reference their Jacobians are
    checked against.
    """
    node_traj = integrate(
        system.node_dae(), system.node_states(coeffs), 0.0, system.horizon, stabilized_start=True,
        **options,
    )
    _raise_on_failed_node(system, node_traj)
    return _coefficient_trajectory(system, node_traj), node_traj


def draws_with_short(monkeypatch, rows, drop=False):
    """Make Monte Carlo draws put a shorted resistor (xi = -1) at ``rows``,
    or leave those draws out with ``drop``. The other draws stay at
    xi >= -0.5: near the short the RC pole is fast and unstable enough
    that shooting fails on its own."""
    draw = analysis.draw_standardized

    def patched(families, seed, count):
        xi = np.maximum(draw(families, seed, count + (len(rows) if drop else 0)), -0.5)
        if drop:
            return np.delete(xi, rows, axis=0)
        xi[rows] = -1.0
        return xi

    monkeypatch.setattr(analysis, "draw_standardized", patched)


def contiguous_jacobians(monkeypatch):
    """Make circuit instances hand their Jacobians out C-contiguous, from
    ``eval_dae`` and ``jacobians``: the batch-major layout, which every
    numpy matrix product hands to BLAS as it is."""
    eval_dae, jacobians = CircuitInstance.eval_dae, CircuitInstance.jacobians

    def eval_contiguous(self, x, t):
        ev = eval_dae(self, x, t)
        return replace(ev, dq_dx=np.ascontiguousarray(ev.dq_dx), df_dx=np.ascontiguousarray(ev.df_dx))

    def jacobians_contiguous(self, x):
        return tuple(np.ascontiguousarray(a) for a in jacobians(self, x))

    monkeypatch.setattr(CircuitInstance, "eval_dae", eval_contiguous)
    monkeypatch.setattr(CircuitInstance, "jacobians", jacobians_contiguous)


# acceptance-criterion results, emitted after the run regardless of capture
criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
