"""Write references.json: the checked output values of every workload.

    python3 perfbench/make_references.py --seeds 0-31,42

Seeded workloads are run once per seed, the others once.  Run it only at a
commit whose numerics are meant to be the reference; the benchmark compares
later commits against these values (see checks.py).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

from checks import REFERENCES, check, observe
from run import RUNS, child_env, spawn
from workloads import WORKLOADS


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-31,42"))
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    with open(REFERENCES, encoding="ascii") as fh:
        references = json.load(fh)
    env = child_env()
    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUNS)
    try:
        for name in args.workload or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            stored = references.setdefault(name, {})
            for seed in args.seeds if workload.seeded else [None]:
                ini = f"{workdir}/config.ini"
                with open(ini, "w", encoding="ascii") as fh:
                    fh.write(workload.ini(seed))
                outdir = f"{workdir}/out"
                result = spawn(["run", "0", workload.command, "--config", ini,
                                "--out", outdir], env, workdir)
                problems = check(workload, seed, outdir, {})
                if result["rc"] != 0 or problems:
                    print(f"{name} seed {seed}: not stored {problems}", file=sys.stderr)
                else:
                    stored[str(seed) if workload.seeded else "*"] = observe(workload, outdir)
                    print(f"{name} seed {seed}: {result['wall_s']:.2f} s", flush=True)
                shutil.rmtree(outdir, ignore_errors=True)
                with open(REFERENCES, "w", encoding="ascii") as fh:
                    json.dump(references, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
