"""Child-process probes: the environment block and the set-up time.

    python3 perfbench/probe.py env
    python3 perfbench/probe.py setup NETLIST CONFIG

``env`` prints one JSON object: interpreter and library versions, the BLAS
library from numpy's build configuration and the thread count the loaded
OpenBLAS reports. ``setup`` does what every CLI run does before solving
anything (import the CLI, parse the netlist, compile the evaluation plan,
build the chaos basis and testing nodes) and exits; the harness times the
whole process from spawn to exit.
"""

import ctypes
import json
import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _openblas_threads():
    """Thread count of the loaded OpenBLAS, or None where it is not exposed."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", "_64", ""):
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return getter()
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_verified": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def setup(netlist_path, config_path):
    from pssuq import cli
    from pssuq.gpc import build_basis, select_testing_nodes, tensor_rule

    cfg = cli.load_config(config_path)
    circuit = cli.parse_netlist(open(netlist_path, encoding="utf-8").read())
    circuit.plan()
    basis = build_basis([s for _, s in circuit.random_params], cfg["gpc_order"])
    select_testing_nodes(basis, tensor_rule(basis, cfg["gpc_order"] + 1))


def main(argv):
    if argv[:1] == ["env"]:
        print(json.dumps(environment()))
    elif argv[:1] == ["setup"] and len(argv) == 3:
        setup(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
