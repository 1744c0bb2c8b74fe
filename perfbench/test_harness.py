"""Self-tests of the benchmark harness (no workload is run)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracer  # noqa: E402


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["stpss.shoot_forced", 1.0, 4.0, 0, None],
        ["linalg.solve", 2.0, 3.0, 1, None],
        ["analysis.waveform_stats", 5.0, 6.0, 0, None],
        ["analysis.draw_standardized", 5.5, 7.0, 0, None],  # overlaps its sibling
    ]
    own = tracer.self_times(spans)
    # children of the root cover [1, 4] and the union [5, 7]
    assert own == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def test_summary_counts_newton_iterations_inside_integrate_only():
    jac = "shooting.CircuitDae.eval_with_jac"
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["transient.integrate", 1.0, 5.0, 0, {"steps": 2}],
        [jac, 1.0, 2.0, 1, None],
        ["circuit.CircuitInstance.eval_dae", 1.2, 1.8, 2, {"points": 3}],
        [jac, 2.0, 3.0, 1, None],
        [jac, 3.0, 4.0, 1, None],
        ["transient.transition_chain", 5.0, 8.0, 0, None],
        [jac, 5.0, 6.0, 6, None],
    ]
    m = tracer.summarize(spans)
    assert m["transient.newton_iters"][0] == 3
    assert m["transient.newton_iters_per_step"][0] == pytest.approx(1.5)
    assert m["circuit.eval_points"][0] == 3
    assert m["circuit.eval_self_s"][0] == pytest.approx(0.6)
    assert m["transient.integrate_self_s"][0] == pytest.approx(1.0)
    assert m["transient.chain_self_s"][0] == pytest.approx(2.0)
    assert m["shooting.layer_self_s"][0] == pytest.approx(3.4)
    assert m["cli.self_s"][0] == pytest.approx(3.0)
    assert m["cli.main_s"][0] == pytest.approx(10.0)


def _snapshot(owners):
    return {id(o): dict(vars(o)) for o in owners}


def test_wrappers_record_spans_and_restore_the_originals():
    import numpy as np
    import numpy.linalg

    import pssuq
    from pssuq import analysis, circuit, cli, gpc, netlist, shooting, stpss, transient

    owners = [pssuq, analysis, circuit, cli, gpc, netlist, shooting, stpss, transient,
              numpy.linalg, circuit.Circuit, circuit.CircuitInstance,
              shooting.CircuitDae, stpss.StackedSystem]
    before = _snapshot(owners)
    t = tracer.Tracer()
    tracer.install(t)
    try:
        # names imported with "from .x import y" are rebound where imported
        assert stpss.integrate is not before[id(stpss)]["integrate"]
        assert cli.parse_netlist is not before[id(cli)]["parse_netlist"]
        c = cli.parse_netlist("R1 1 0 1k\nI1 0 1 DC 1m\n")
        x = pssuq.dc_operating_point(c.realize_nominal())
        np.linalg.solve(np.eye(3), np.ones(3))
    finally:
        t.uninstall()
    assert x == pytest.approx([1.0])
    names = [s[tracer.NAME] for s in t.spans]
    assert names[0] == "netlist.parse_netlist"
    assert "circuit.dc_operating_point" in names
    assert "circuit.CircuitInstance.eval_dae" in names
    assert names[-1] == "linalg.solve"
    assert t.spans[-1][tracer.ATTRS]["order"] == 3
    after = _snapshot(owners)
    for o in owners:
        changed = [k for k in before[id(o)] if after[id(o)].get(k) is not before[id(o)][k]]
        assert not changed, (o, changed)


def _run(harness, tmp_path, name, code=0, outputs=None, timed_out=False):
    out = tmp_path / name
    out.mkdir()
    if outputs is not None:
        (out / "manifest.json").write_text(json.dumps({"outputs": outputs}))
    child = harness.Child(code, 1.0, 50.0, timed_out, out / "log")
    return harness.Run(child, out)


def test_a_failed_check_counts_as_a_failed_run(tmp_path):
    harness = _load_harness()
    same = {"summary.txt": "aa"}
    runs = [
        _run(harness, tmp_path, "a", outputs=same),
        _run(harness, tmp_path, "b", outputs=same),
        _run(harness, tmp_path, "c", outputs={"summary.txt": "bb"}),
        _run(harness, tmp_path, "d", code=3, outputs=same),
        _run(harness, tmp_path, "e", code=-9, timed_out=True),
    ]
    assert harness.classify(runs, reference_ok=True) == 3
    assert [r.failure is None for r in runs] == [True, True, False, False, False]
    assert runs[2].failure == "outputs differ from the first run"
    assert runs[4].failure == "timeout"
    # a failed reference check fails every run
    assert harness.classify(runs, reference_ok=False) == 5
    assert runs[0].failure == "reference check failed"


def test_speed_normalisation_uses_the_samples_taken_during_a_run():
    harness = _load_harness()
    probe = harness.SpeedProbe.__new__(harness.SpeedProbe)  # no sampler thread
    ref = harness.REFERENCE_KERNEL_S
    probe.samples = [(0.5, ref), (1.5, 2 * ref), (2.5, 4 * ref), (3.5, ref)]
    speed, busy = probe.window(1.0, 3.0)
    assert speed == pytest.approx((0.5 + 0.25) / 2)
    assert busy == pytest.approx(6 * ref)
    # a run too short to hold a sample takes the latest speed before it
    assert probe.window(3.6, 3.7) == (pytest.approx(1.0), 0.0)
