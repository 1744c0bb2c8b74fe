"""pssuq benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, both modes

Each workload (see workloads.py and README.md) runs as a fresh `pssuq` CLI
process with the BLAS and OpenMP thread variables pinned to 1, closed
loop, one process at a time, repeated for ``--seconds``. With
``--trace 0`` the harness reports the end-to-end metrics: the median wall
time of a run (spawn to exit), the median set-up time of a fresh process
that solves nothing, and the median peak resident memory. With
``--trace 1`` it runs the command once more under the span tracer
(tracer.py) and reports the per-layer metrics and the tracing overhead.

Correctness is checked outside the timed region: once per seed against an
independent reference (reference.py), and every run must reproduce the
first run's output hashes. A run fails on a non-zero exit, a timeout, or a
failed check. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The reported times are normalised to a reference CPU speed. On a shared
host the speed of a vCPU swings by up to 2.5x within seconds (other
tenants on the same cores), which no number of repeats averages out. The
harness and its children are therefore pinned to one CPU, and a sampler
thread on that CPU times a short kernel (a Python loop and a small dense
solve) in thread CPU time every 0.1 s while a child runs; a run's time is
scaled by its mean speed over the run relative to REFERENCE_KERNEL_S (see
SpeedProbe). The raw wall times stay in result.json and in the per-layer
metrics.

The harness imports numpy only for that kernel, after pinning the BLAS
thread variables to 1 in its own environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probe import THREAD_VARS
from tracer import summarize
from workloads import INPUT_CONFIG, INPUT_NETLIST, ROOT, WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
TIME_LIMIT_S = 170.0  # one invocation must end within 180 s
REFERENCE_RESERVE_S = 25.0  # kept free for the reference check
SAMPLE_PERIOD_S = 0.1  # speed probe: one kernel every 0.1 s while a child runs
KERNEL_ITERS = 10000
KERNEL_ORDER = 200
KERNEL_SOLVES = 4
# thread CPU time of the kernel on an uncontended vCPU of the 2-vCPU Xeon
# guest the baseline was taken on (the fastest twentieth of its samples);
# normalised times are seconds at that speed
REFERENCE_KERNEL_S = 0.0025


def _make_kernel():
    """The speed probe's kernel: returns a function giving its thread CPU time.

    It is a Python loop (dict and float work, about 1 ms) followed by
    dense solves of order 200 (about 1.5 ms): contention on a shared core
    slows interpreter-bound and BLAS-bound code by different factors, and
    the workloads mix both. Thread CPU time leaves out the time the thread
    waits while the child holds the CPU, so only the speed of the CPU is
    measured.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((KERNEL_ORDER, KERNEL_ORDER)) + KERNEL_ORDER * np.eye(KERNEL_ORDER)
    b = rng.standard_normal(KERNEL_ORDER)
    solve = np.linalg.solve

    def kernel():
        t0 = time.thread_time()
        d, x = {}, 0.5
        for i in range(KERNEL_ITERS):
            d[i & 63] = d.get(i & 63, 0) + i
            x = x * 1.0000001 + 0.1
        for _ in range(KERNEL_SOLVES):
            solve(a, b)
        return time.thread_time() - t0

    return kernel


class SpeedProbe:
    """Samples the speed of the CPU the harness and its children are pinned to.

    A daemon thread runs the kernel every SAMPLE_PERIOD_S and keeps
    (end time, kernel CPU time). A child whose run covered samples k_i ran
    at a mean speed of mean(REFERENCE_KERNEL_S / k_i) (the samples are
    evenly spaced in time, so this weights each part of the run by its
    length); its normalised time is (wall - time the kernels took) times
    that speed.
    """

    def __init__(self):
        self.samples = []
        self._kernel = _make_kernel()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            k = self._kernel()
            self.samples.append((time.monotonic(), k))

    def window(self, t0, t1):
        """(mean speed, kernel CPU seconds) of the samples taken in [t0, t1].

        A window too short to hold a sample takes the speed of the latest
        sample before it.
        """
        ks = [k for t, k in list(self.samples) if t0 <= t <= t1]
        if not ks:
            before = [k for t, k in list(self.samples) if t < t0]
            return (REFERENCE_KERNEL_S / before[-1] if before else 1.0), 0.0
        return statistics.fmean(REFERENCE_KERNEL_S / k for k in ks), sum(ks)

    def close(self):
        self._stop.set()
        self._thread.join()


class Child:
    """Outcome of one child process: exit code, wall time, peak RSS.

    ``norm_s`` is the wall time normalised to the reference CPU speed and
    ``speed`` the mean speed relative to it (see SpeedProbe).
    """

    def __init__(self, code, wall_s, rss_mb, timed_out, log, cpu_s=0.0, norm_s=None,
                 speed=1.0):
        self.code = code
        self.wall_s = wall_s
        self.norm_s = wall_s if norm_s is None else norm_s
        self.speed = speed
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.timed_out = timed_out
        self.log = log


def child_env():
    # inherited interpreter settings (no bytecode cache, dev mode, ...) would
    # change what is measured, so the children get only the ones set here
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({var: "1" for var in THREAD_VARS})
    # a fixed hash seed repeats set and dict order, hence the allocation
    # pattern: with random seeds the peak RSS of one mc-rectifier command
    # moved between 171 and 214 MB
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, log, timeout, probe=None):
    """Run ``argv`` to completion; wall time is measured from spawn to exit.

    With a SpeedProbe the wall time is also normalised to the reference speed.
    """
    killed = threading.Event()
    m0 = time.monotonic()
    t0 = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.1), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    speed, busy = probe.window(m0, time.monotonic()) if probe else (1.0, 0.0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, killed.is_set(), log,
                 usage.ru_utime + usage.ru_stime, (wall - busy) * speed, speed)


def python(script, *args):
    return [sys.executable, str(HERE / script), *map(str, args)]


class Run:
    """One CLI run of the workload and what its correctness checks found."""

    def __init__(self, child, out, traced=False):
        self.child = child
        self.out = out
        self.traced = traced
        self.manifest = None
        manifest = out / "manifest.json"
        if child.code == 0 and manifest.is_file():
            self.manifest = json.loads(manifest.read_text(encoding="utf-8"))
        self.failure = None

    @property
    def outputs(self):
        return self.manifest["outputs"] if self.manifest else None


def classify(runs, reference_ok):
    """Mark failed runs; returns the number of failures.

    The first run that exited cleanly is the reference run: its outputs
    went through the independent check, so when that check failed every
    run fails. Any other run fails unless it exited 0 in time and
    reproduced the reference run's output hashes byte for byte.
    """
    first = next((r for r in runs if r.outputs is not None), None)
    for r in runs:
        if r.child.timed_out:
            r.failure = "timeout"
        elif r.child.code != 0 or r.outputs is None:
            r.failure = f"exit code {r.child.code}"
        elif not reference_ok:
            r.failure = "reference check failed"
        elif r.outputs != first.outputs:
            r.failure = "outputs differ from the first run"
    return sum(r.failure is not None for r in runs)


def median(values):
    return statistics.median(values) if values else 0.0


def pin_to_one_cpu():
    """Pin this process (and so every child and thread it starts) to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(name, seed, seconds, trace):
    """Run one workload; returns the result record (with a metrics map)."""
    probe = SpeedProbe()
    try:
        return _measure(name, seed, seconds, trace, probe)
    finally:
        probe.close()


def _measure(name, seed, seconds, trace, speed_probe):
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    load = os.getloadavg()
    work = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli_args = prepare(name, seed, work)
    netlist, config = work / INPUT_NETLIST, work / INPUT_CONFIG

    probe = spawn(python("probe.py", "env"), work / "env.log", 60)
    if probe.code != 0:
        raise RuntimeError(f"environment probe failed, see {probe.log}")
    env = json.loads(probe.log.read_text(encoding="utf-8").splitlines()[-1])
    env["loadavg_at_start"] = list(load)
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    if env["blas_threads_verified"] not in (None, 1):
        raise RuntimeError(f"BLAS runs {env['blas_threads_verified']} threads, not 1")

    def setup_probe(tag):
        child = spawn(python("probe.py", "setup", netlist, config), work / f"setup{tag}.log",
                      deadline - time.monotonic(), speed_probe)
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed, see {child.log}")
        return child

    setup_probe("_warm")  # compiles bytecode and fills the file cache; not timed

    def cli_run(index, traced=False):
        out = work / f"run{index}"
        argv = [*cli_args, "--out", out]
        if traced:
            argv = python("tracer.py", "--spans", work / "spans.json", "--", *argv)
        else:
            argv = [sys.executable, "-m", "pssuq.cli", *map(str, argv)]
        budget = deadline - time.monotonic() - REFERENCE_RESERVE_S
        return Run(spawn(argv, work / f"run{index}.log", budget, speed_probe), out, traced)

    # On a shared host the CPU speed drifts in phases of a few seconds, so
    # the set-up probes alternate with the CLI runs instead of running back
    # to back, and both medians span the whole window.
    runs = [cli_run("_traced", traced=True)] if trace else []
    setup = []
    t0 = time.monotonic()
    while True:
        if not trace:
            setup.append(setup_probe(len(setup)))
        runs.append(cli_run(len(runs)))
        now = time.monotonic()
        if now - t0 >= seconds or now >= deadline - REFERENCE_RESERVE_S:
            break

    first = next((r for r in runs if r.outputs is not None), None)
    reference = {"ok": False, "error": "no run completed"}
    if first is not None:
        ref = spawn(python("reference.py", name, netlist, config, first.out, seed),
                    work / "reference.log", deadline - time.monotonic())
        lines = ref.log.read_text(encoding="utf-8").splitlines()
        if ref.code == 0 and lines:
            reference = json.loads(lines[-1])
        else:
            reference = {"ok": False, "error": f"reference exited {ref.code}, see {ref.log}"}
    failed = classify(runs, reference["ok"])

    timed = [r for r in runs if not r.traced]
    good = [r for r in timed if r.failure is None] or timed
    if trace:
        metrics = trace_metrics(runs[0], good)
    else:
        metrics = {
            "wall_s": (median([r.child.norm_s for r in good]), "s"),
            "setup_s": (median([c.norm_s for c in setup]), "s"),
            "peak_rss_mb": (median([r.child.rss_mb for r in good]), "MB"),
        }
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": env,
        "reference": reference,
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "setup": [{"wall_s": c.wall_s, "norm_s": c.norm_s, "speed": c.speed} for c in setup],
        "runs": [{"traced": r.traced, "exit": r.child.code, "wall_s": r.child.wall_s,
                  "norm_s": r.child.norm_s, "speed": r.child.speed, "cpu_s": r.child.cpu_s,
                  "peak_rss_mb": r.child.rss_mb, "failure": r.failure,
                  "timings_s": (r.manifest or {}).get("timings_s")} for r in runs],
        "correct": failed == 0 and bool(reference["ok"]),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def trace_metrics(traced, untraced):
    path = traced.out.parent / "spans.json"
    # a traced run killed on timeout writes no spans; it already counts as failed
    spans = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []
    metrics = summarize(spans)
    walls = [r.child.norm_s for r in untraced]
    outputs = traced.outputs or {}
    rates = []
    for r in untraced:
        mc = (r.manifest or {}).get("timings_s", {}).get("monte_carlo")
        if mc:
            info = json.loads((r.out / "mc.json").read_text(encoding="utf-8"))
            rates.append((info["samples"] - info["failures"]) / mc)
    metrics.update({
        "cli.output_bytes": (sum((traced.out / f).stat().st_size for f in outputs), "B"),
        "process.startup_s": (traced.child.wall_s - metrics["cli.main_s"][0], "s"),
        "mc_samples_per_s": (median(rates), "1/s"),
        "trace.wall_s": (traced.child.norm_s, "s"),
        "trace.overhead_s": (traced.child.norm_s - median(walls), "s"),
        "run.raw_wall_s": (median([r.child.wall_s for r in untraced]), "s"),
        "host.slowdown": (median([1.0 / r.child.speed for r in untraced]), "ratio"),
    })
    return metrics


def report(result):
    """Human-readable lines for one result (the JSON line comes last)."""
    env = result["environment"]
    print(f"# {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} runs, {result['failed']} failed, "
          f"reference {'ok' if result['reference']['ok'] else 'FAILED'}")
    print(f"# env: nproc {env['nproc']}, {env['blas']} {env['blas_version']}, "
          f"BLAS threads {env['blas_threads_verified']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, "
          f"load {' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}")
    walls = " ".join(f"{r['wall_s']:.3f}/{r['norm_s']:.3f}" for r in result["runs"])
    print(f"# run walls, raw/normalised (s): {walls}")
    for key, m in result["metrics"].items():
        print(f"{result['workload']:>13} {key:<34} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pssuq" / "__init__.py").is_file():
        print(f"error: no pssuq sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # before any thread or child starts: they inherit the mask, so the speed
    # probe samples the CPU the children run on
    pin_to_one_cpu()

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        report(result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = measure(name, args.seed, args.seconds, trace)
            report(result)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                total["metrics"][f"{name}/{key}"] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
