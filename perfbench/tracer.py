"""Span tracing of `pssuq` from outside the package.

The tracer wraps the public entry points of each `pssuq` module (and the
``numpy.linalg.solve`` the modules call) with recording wrappers. Names a
module imported with ``from .x import y`` are rebound in every importing
module; methods are patched on their classes. Each call records a span:
name, start, end, parent span, and a few counts taken at the same
boundary (batch rows, steps, iterations, matrix orders). Spans stay in
memory and are written out once, at the end of the traced process.

Run as a script it executes one `pssuq` CLI command under the tracer::

    python3 perfbench/tracer.py --spans OUT.json -- st-forced --netlist ...

The summary functions at the bottom turn a span list into the per-layer
metrics; they use the standard library only, so the harness can call them
without importing numpy.
"""

import functools
import json
import sys
import time

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Records nested spans; installs and removes wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self._stack = []
        self._patches = []  # (owner, attribute, original), in patch order

    def wrap(self, name, fn, measure=None):
        """Return ``fn`` wrapped so each call records a span ``name``.

        ``measure(args, kwargs, result)`` returns the span's counts; it runs
        inside the span, after the call returned.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if measure is not None:
                    rec[ATTRS] = measure(args, kwargs, out)
                return out
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr, name, measure=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, measure))
        self._patches.append((owner, attr, original))

    def patch_function(self, modules, home, attr, name, measure=None):
        """Wrap ``home.attr`` and rebind it wherever ``modules`` import it."""
        original = getattr(home, attr)
        wrapped = self.wrap(name, original, measure)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# counts taken at the span boundaries


def _eval_points(args, kwargs, ev):
    return {"points": ev.q.shape[0] if ev.q.ndim == 2 else 1}


def _integrate_counts(args, kwargs, traj):
    out = {"steps": int(traj.times.size - 1)}
    if traj.failed is not None:
        out["failed"] = int(traj.failed.sum())
    return out


def _iterations(args, kwargs, sol):
    return {"iterations": int(sol.iterations)}


def _basis_size(args, kwargs, basis):
    return {"size": int(basis.size)}


def _stacked_dim(args, kwargs, system):
    return {"dim": int(system.ndim)}


def _mc_counts(args, kwargs, run):
    return {
        "samples": int(run.n_samples),
        "failed": int(run.failed.sum()),
        "iterations": int(run.iterations),
    }


def _solve_counts(args, kwargs, x):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    m = a.shape[-1]
    batch = 1
    for s in a.shape[:-2]:
        batch *= s
    nrhs = b.shape[-1] if b.ndim > 1 else 1
    # LU factorisation plus forward and back substitution, from the shapes
    return {"order": int(m), "flops": batch * (2.0 * m**3 / 3.0 + 2.0 * m * m * nrhs)}


def install(tracer):
    """Wrap the public entry points of every `pssuq` module."""
    import numpy.linalg

    import pssuq
    from pssuq import analysis, circuit, cli, gpc, netlist, shooting, stpss, transient

    modules = [pssuq, analysis, circuit, cli, gpc, netlist, shooting, stpss, transient]

    def fn(home, attr, measure=None):
        name = f"{home.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer.patch_function(modules, home, attr, name, measure)

    def method(cls, attr, layer, measure=None):
        tracer.patch(cls, attr, f"{layer}.{cls.__name__}.{attr}", measure)

    fn(netlist, "parse_netlist")
    fn(netlist, "load_netlist")
    fn(gpc, "build_basis", _basis_size)
    fn(gpc, "tensor_rule")
    fn(gpc, "select_testing_nodes")
    fn(circuit, "dc_operating_point")
    method(circuit.Circuit, "realize", "circuit")
    method(circuit.CircuitInstance, "eval_dae", "circuit", _eval_points)
    fn(transient, "integrate", _integrate_counts)
    fn(transient, "transition_chain")
    fn(shooting, "solve_forced", _iterations)
    fn(shooting, "solve_autonomous", _iterations)
    fn(shooting, "estimate_period")
    for attr in ("eval", "eval_with_jac", "dF_dscale"):
        method(shooting.CircuitDae, attr, "shooting")
        method(stpss.StackedSystem, attr, "stpss")
    fn(stpss, "assemble_forced", _stacked_dim)
    fn(stpss, "assemble_autonomous", _stacked_dim)
    fn(stpss, "shoot_forced", _iterations)
    fn(stpss, "shoot_autonomous", _iterations)
    fn(analysis, "monte_carlo", _mc_counts)
    fn(analysis, "waveform_stats")
    fn(analysis, "build_uq_report")
    fn(analysis, "metric_distribution")
    fn(analysis, "sample_periods")
    fn(analysis, "draw_standardized")
    tracer.patch(numpy.linalg, "solve", "linalg.solve", _solve_counts)


# ---------------------------------------------------------------------------
# per-layer metrics from a span list (standard library only)

# layers whose total self time is reported as <layer>.layer_self_s; for
# netlist, gpc, linalg and cli that total is parse_s, setup_s, solve_s, self_s
LAYERS = ("circuit", "transient", "shooting", "stpss", "analysis")
EVAL_WITH_JAC = ("shooting.CircuitDae.eval_with_jac", "stpss.StackedSystem.eval_with_jac")
ASSEMBLE = tuple(f"stpss.StackedSystem.{a}" for a in ("eval", "eval_with_jac", "dF_dscale"))
SHOOT = ("stpss.shoot_forced", "stpss.shoot_autonomous")


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def summarize(spans):
    """Per-layer metrics (name -> (value, unit)) from one traced CLI run."""
    own = self_times(spans)
    names = [s[NAME] for s in spans]

    def where(pred):
        return [i for i, nm in enumerate(names) if pred(nm)]

    def attr(i, key):
        a = spans[i][ATTRS]
        return a.get(key, 0) if a else 0

    def outermost(group):
        """Total inclusive time of spans in ``group`` not nested in another."""
        total = 0.0
        for i, nm in enumerate(names):
            if nm not in group:
                continue
            p = spans[i][PARENT]
            while p >= 0 and names[p] not in group:
                p = spans[p][PARENT]
            if p < 0:
                total += spans[i][END] - spans[i][START]
        return total

    def selfsum(idx):
        return sum(own[i] for i in idx)

    evals = where(lambda nm: nm == "circuit.CircuitInstance.eval_dae")
    integ = where(lambda nm: nm == "transient.integrate")
    chains = where(lambda nm: nm == "transient.transition_chain")
    solves = where(lambda nm: nm == "linalg.solve")
    shoots = where(lambda nm: nm in SHOOT)
    mcs = where(lambda nm: nm == "analysis.monte_carlo")
    integ_set = set(integ)
    shoot_set = set(shoots)
    newton = sum(1 for i in where(lambda nm: nm in EVAL_WITH_JAC)
                 if spans[i][PARENT] in integ_set)
    steps = sum(attr(i, "steps") for i in integ)
    points = sum(attr(i, "points") for i in evals)
    eval_self = selfsum(evals)
    cli_spans = where(lambda nm: nm == "cli.main")

    m = {
        "netlist.parse_s": (outermost({"netlist.parse_netlist", "netlist.load_netlist"}), "s"),
        "gpc.setup_s": (outermost({"gpc.build_basis", "gpc.tensor_rule",
                                   "gpc.select_testing_nodes"}), "s"),
        "gpc.basis_size": (max([attr(i, "size") for i in where(
            lambda nm: nm == "gpc.build_basis")] or [0]), "count"),
        "circuit.eval_calls": (len(evals), "count"),
        "circuit.eval_points": (points, "count"),
        "circuit.eval_self_s": (eval_self, "s"),
        "circuit.s_per_point": (eval_self / points if points else 0.0, "s"),
        "circuit.dc_s": (outermost({"circuit.dc_operating_point"}), "s"),
        "transient.integrate_calls": (len(integ), "count"),
        "transient.steps": (steps, "count"),
        "transient.newton_iters": (newton, "count"),
        "transient.newton_iters_per_step": (newton / steps if steps else 0.0, "ratio"),
        "transient.integrate_self_s": (selfsum(integ), "s"),
        "transient.chain_calls": (len(chains), "count"),
        "transient.chain_self_s": (selfsum(chains), "s"),
        "transient.failed_samples": (sum(attr(i, "failed") for i in integ), "count"),
        "linalg.solve_calls": (len(solves), "count"),
        "linalg.solve_s": (selfsum(solves), "s"),
        "linalg.max_order": (max([attr(i, "order") for i in solves] or [0]), "count"),
        "linalg.solve_flops_computed": (sum(attr(i, "flops") for i in solves), "flop"),
        "stpss.assemble_self_s": (selfsum(where(lambda nm: nm in ASSEMBLE)), "s"),
        "stpss.shoot_self_s": (selfsum(shoots), "s"),
        "stpss.newton_iters": (sum(attr(i, "iterations") for i in shoots), "count"),
        "stpss.residual_evals": (sum(1 for i in integ if spans[i][PARENT] in shoot_set),
                                 "count"),
        "stpss.stacked_dim": (max([attr(i, "dim") for i in where(
            lambda nm: nm.startswith("stpss.assemble_"))] or [0]), "count"),
        "shooting.estimate_period_s": (outermost({"shooting.estimate_period"}), "s"),
        "shooting.solve_s": (outermost({"shooting.solve_forced",
                                        "shooting.solve_autonomous"}), "s"),
        "shooting.newton_iters": (sum(attr(i, "iterations") for i in where(
            lambda nm: nm.startswith("shooting.solve_"))), "count"),
        "analysis.mc_s": (outermost({"analysis.monte_carlo"}), "s"),
        "analysis.mc_samples": (sum(attr(i, "samples") for i in mcs), "count"),
        "analysis.mc_failed": (sum(attr(i, "failed") for i in mcs), "count"),
        "analysis.mc_newton_iters": (sum(attr(i, "iterations") for i in mcs), "count"),
        "analysis.metric_s": (outermost({"analysis.metric_distribution"}), "s"),
        "analysis.stats_s": (outermost({"analysis.waveform_stats",
                                        "analysis.build_uq_report"}), "s"),
        "cli.self_s": (selfsum(cli_spans), "s"),
        "cli.main_s": (sum(spans[i][END] - spans[i][START] for i in cli_spans), "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = (
            selfsum(where(lambda nm: nm.split(".", 1)[0] == layer)), "s")
    return m


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <pssuq CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[3:]
    from pssuq import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
