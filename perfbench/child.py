"""One benchmark execution in a fresh interpreter.

    python3 child.py <src-dir> import
    python3 child.py <src-dir> run <trace 0|1> <esfem argv...>

Prints one JSON line last: the monotonic clock reading when ``esfem.cli``
finished importing (the parent subtracts its spawn time), and for ``run``
the wall time of ``esfem.cli.main``, its exit code, the process's peak RSS
and, when traced, the per-layer metrics.  ``import`` also reports the
environment the run sees.
"""

import json
import os
import resource
import sys
import time


def _environment():
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.25 cannot return its config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {key: os.environ.get(key) for key in sorted(os.environ)
                    if key.endswith("_NUM_THREADS")
                    or key == "VECLIB_MAXIMUM_THREADS"},
    }


def main(argv):
    src, mode = argv[0], argv[1]
    sys.path.insert(0, src)
    import esfem.cli

    imported_at = time.monotonic()
    if not os.path.abspath(esfem.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"esfem imported from {esfem.cli.__file__}, not {src}")
    result = {"imported_at": imported_at}
    if mode == "import":
        result["environment"] = _environment()
    else:
        trace, cli_argv = argv[2] == "1", argv[3:]
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer().install()
        start = time.perf_counter()
        rc = esfem.cli.main(cli_argv)
        wall = time.perf_counter() - start
        result.update(
            rc=rc,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(wall)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
