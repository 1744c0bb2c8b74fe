"""Benchmark workloads: seeded inputs and the `pssuq` command each one runs.

Every workload is one fresh `pssuq` CLI process, run the way a user runs
it. The benchmark derives the inputs from the workload seed; the program
only ever sees the generated netlist and config files (and, for
``st-colpitts``, the seed through ``--seed``).

Standard library only: this module is imported by the harness process,
which must not load numpy before the BLAS thread variables are pinned.
"""

import json
import random
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CIRCUITS = ROOT / "src" / "pssuq" / "circuits"

INPUT_NETLIST = "input.cir"
INPUT_CONFIG = "input.json"

LADDER_SECTIONS = 10  # 11 nodes + the source current: n = 12 states
LADDER_RANDOM = 4  # random resistors: d = 4, so order 3 gives K = 35
# R0, at the source, is always random and the others sit among R1-R5, where
# the signal is strong: drawn among all eleven, they could all land at the
# far end (seed 11 put them at R7-R10), where the chaos terms they add stay
# below the shooting tolerance, the nominal guess is accepted without a
# Newton iteration and the run does a third less work than for other seeds
LADDER_RANDOM_SLOTS = 6
LADDER_ORDER = 3
LADDER_STEPS = 128


def ladder_netlist(seed):
    """Sine-driven RC ladder whose values and random slots come from ``seed``.

    The ladder is linear and its random resistors sit where they move the
    waveform well above the shooting tolerance, so its work per run (one
    shooting Newton iteration, grid, matrix sizes) does not depend on the
    drawn values; only the numbers change from seed to seed.
    """
    rng = random.Random(seed)
    n = LADDER_SECTIONS
    resistors = [("R0", "in", "n1")]
    resistors += [(f"R{k}", f"n{k}", f"n{k + 1}") for k in range(1, n)]
    resistors.append((f"R{n}", f"n{n}", "0"))
    slots = [0] + sorted(rng.sample(range(1, LADDER_RANDOM_SLOTS), LADDER_RANDOM - 1))
    lines = [f"* sine-driven RC ladder, {n} sections, benchmark seed {seed}"]
    for j in range(len(slots)):
        r = rng.uniform(500.0, 2000.0)
        if j % 2 == 0:
            lines.append(f".param p{j} = gauss({r:.6g}, {0.05 * r:.6g})")
        else:
            lines.append(f".param p{j} = uniform({0.9 * r:.6g}, {1.1 * r:.6g})")
    lines.append("V1 in 0 SIN(0 1 1k)")
    for i, (name, a, b) in enumerate(resistors):
        if i in slots:
            value = "{p%d}" % slots.index(i)
        else:
            value = f"{rng.uniform(500.0, 2000.0):.6g}"
        lines.append(f"{name} {a} {b} {value}")
    for k in range(1, n + 1):
        lines.append(f"C{k} n{k} 0 {rng.uniform(0.2, 1.0):.6g}u")
    return "\n".join(lines) + "\n"


def ladder_config(seed):
    return {
        "analysis": "st-forced",
        "gpc_order": LADDER_ORDER,
        "steps_per_period": LADDER_STEPS,
        "mode": "decoupled",
        "seed": seed,
    }


def _write_ladder(seed, netlist, config):
    netlist.write_text(ladder_netlist(seed), encoding="utf-8")
    config.write_text(json.dumps(ladder_config(seed), indent=2) + "\n", encoding="utf-8")


def _bundled(stem):
    def write(seed, netlist, config):
        shutil.copyfile(CIRCUITS / f"{stem}.cir", netlist)
        shutil.copyfile(CIRCUITS / f"{stem}.json", config)

    return write


# workload -> (CLI command, input writer, pass the seed as --seed); README.md
# gives the reasons. mc-rectifier keeps its bundled seed: the seed picks the
# Monte Carlo samples, and with them whether the lockstep batch needs an
# extra line-search integration (12 or 13 integrations, 7.1M or 8.6M device
# evaluation points), so its cost would change by a fifth from seed to seed.
WORKLOADS = {
    "st-ladder": ("st-forced", _write_ladder, True),
    "mc-rectifier": ("compare", _bundled("rectifier"), False),
    "st-colpitts": ("st-osc", _bundled("colpitts"), True),
}


def prepare(name, seed, work):
    """Write the inputs of workload ``name`` into ``work``.

    Returns the CLI arguments, without ``--out``.
    """
    command, write_inputs, pass_seed = WORKLOADS[name]
    netlist, config = Path(work) / INPUT_NETLIST, Path(work) / INPUT_CONFIG
    write_inputs(seed, netlist, config)
    args = [command, "--netlist", str(netlist), "--config", str(config)]
    return args + ["--seed", str(seed)] if pass_seed else args
