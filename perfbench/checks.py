"""Correctness checks of a workload's output files.

``observe`` reads the values a study wrote; ``check`` compares them with the
values stored in ``references.json`` for the same workload and seed, and for
a seed without stored values checks what holds for every seed: all
outputs present, every ``richardson_ok`` true, every value finite and
positive, and each ratio equal to (norm_dtu + norm_lapu) / norm_f.

Stored values are compared to a relative tolerance, not byte for byte: a
solver that meets the same ``cg_tol`` differently (a direct factorization,
block CG, another start vector) legitimately moves the last digits.  CG
stops at a relative residual of cg_tol = 1e-12 (1e-11 inside the kernel
difference).  The systems M and M + dt A with dt = 0.5 h^2 are well
conditioned after Jacobi scaling, and the heat flow does not amplify step
errors.  Measured at seed 42: tightening cg_tol to 1e-13 moves every checked
value by at most 3e-12 relative.  RTOL = 1e-8 leaves a factor of 1000 above
that, and sits far below the relative changes that a change of
discretization makes (the dt-halving deviations are about 5e-3).
``richardson_error`` is a difference of two kernel differences, so it is
compared on the scale of ``l1_difference``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

RTOL = 1e-8

REFERENCES = Path(__file__).resolve().parent / "references.json"

_MAXREG_FIELDS = ("h", "dt", "norm_dtu", "norm_lapu", "norm_f", "ratio")


def load_references():
    with open(REFERENCES, encoding="ascii") as fh:
        return json.load(fh)


def reference_key(workload, seed):
    return str(seed) if workload.seeded else "*"


def _require(outdir, names):
    missing = [n for n in names if not os.path.isfile(os.path.join(outdir, n))]
    if missing:
        raise ValueError(f"missing outputs {missing}")


def observe(workload, outdir):
    """The checked values of one run's outputs; raises ValueError if absent."""
    if workload.command == "maxreg":
        _require(outdir, ["maxreg.csv", "maxreg_summary.txt", "maxreg_manifest.json"])
        rows = {}
        with open(os.path.join(outdir, "maxreg.csv"), encoding="ascii") as fh:
            for row in csv.DictReader(fh):
                rows[row["level"]] = {
                    **{k: float(row[k]) for k in _MAXREG_FIELDS},
                    "richardson_ok": row["richardson_ok"] == "true",
                }
        return {"rows": rows}
    levels = workload.levels
    _require(outdir, ["greens_summary.txt", "greens_manifest.json",
                      "greens_kernel_difference.txt"]
             + [f"greens_decay_level{level}.csv" for level in levels])
    rates = {}
    with open(os.path.join(outdir, "greens_summary.txt"), encoding="ascii") as fh:
        for line in fh:
            _, level, _, rate = line.split()
            rates[level] = float(rate)
    kernel = {}
    with open(os.path.join(outdir, "greens_kernel_difference.txt"),
              encoding="ascii") as fh:
        for line in fh:
            key, value = line.split()
            kernel[key] = float(value)
    return {"decay_rates": rates, "kernel_difference": kernel}


def _close(value, reference, scale=None):
    scale = abs(reference) if scale is None else scale
    return abs(value - reference) <= RTOL * scale


def check(workload, seed, outdir, references):
    """List of problems with one run's outputs; empty when they are correct."""
    try:
        got = observe(workload, outdir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = []
    expected_levels = sorted(str(level) for level in workload.levels)
    if workload.command == "maxreg":
        rows = got["rows"]
        if sorted(rows) != expected_levels:
            problems.append(f"levels {sorted(rows)} != {expected_levels}")
        for level, row in rows.items():
            if not row["richardson_ok"]:
                problems.append(f"level {level}: richardson_ok is false")
            if not all(math.isfinite(row[k]) and row[k] > 0 for k in _MAXREG_FIELDS):
                problems.append(f"level {level}: non-finite or non-positive value")
            elif abs(row["ratio"] - (row["norm_dtu"] + row["norm_lapu"])
                     / row["norm_f"]) > 1e-12 * row["ratio"]:
                problems.append(f"level {level}: ratio != (dtu + lapu) / f")
    else:
        if sorted(got["decay_rates"]) != expected_levels:
            problems.append(f"decay-rate levels {sorted(got['decay_rates'])}")
        values = list(got["decay_rates"].values()) + list(got["kernel_difference"].values())
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append("non-finite or non-positive value")
    ref = references.get(workload.name, {}).get(reference_key(workload, seed))
    if ref is None:
        return problems
    if workload.command == "maxreg":
        for level, want in ref["rows"].items():
            have = got["rows"].get(level)
            if have is None:
                continue
            for key, value in want.items():
                ok = have[key] == value if key == "richardson_ok" else _close(have[key], value)
                if not ok:
                    problems.append(f"level {level} {key}: {have[key]!r} != reference {value!r}")
    else:
        for level, value in ref["decay_rates"].items():
            have = got["decay_rates"].get(level)
            if have is not None and not _close(have, value):
                problems.append(f"level {level} decay_rate: {have!r} != reference {value!r}")
        want = ref["kernel_difference"]
        for key, value in want.items():
            scale = want["l1_difference"] if key == "richardson_error" else None
            have = got["kernel_difference"].get(key)
            if have is None or not _close(have, value, scale):
                problems.append(f"kernel {key}: {have!r} != reference {value!r}")
    return problems
