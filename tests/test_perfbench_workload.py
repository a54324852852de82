"""Benchmark workloads run here and checked the way the benchmark checks them.

``perfbench/references.json`` stores the outputs of every gated workload.
Running the smallest one here (``maxreg-ellipsoid`` at seed 42, about 0.2 s)
makes a change of the numerics beyond the benchmark's tolerance fail the
test suite, not only a benchmark run.  The gated workloads also run traced,
through ``perfbench/child.py`` in a fresh interpreter, so a solver path that
bypasses the traced ``solve_heat`` fails here too, and the traced outputs of
each (``greens-kernel`` among them) are checked against the references.
The workloads, the check and the child are taken from the checkout's
``perfbench/`` by path.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from esfem.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_maxreg_ellipsoid_matches_its_references(tmp_path, monkeypatch):
    workloads, checks = _load("workloads", monkeypatch), _load("checks", monkeypatch)
    workload = workloads.WORKLOADS["maxreg-ellipsoid"]
    references = checks.load_references()
    assert checks.reference_key(workload, 42) in references[workload.name]
    ini = tmp_path / "config.ini"
    ini.write_text(workload.ini(42), encoding="ascii")
    out = tmp_path / "out"
    assert main([workload.command, "--config", str(ini), "--out", str(out)]) == 0
    assert checks.check(workload, 42, str(out), references) == []


@pytest.mark.parametrize("name", ["maxreg-ellipsoid", "greens-kernel"])
def test_traced_workload_recounts_its_solver_work(tmp_path, monkeypatch, name):
    # the recount identities the benchmark's traced self-test checks, and the
    # traced run's outputs against their references
    workload = _load("workloads", monkeypatch).WORKLOADS[name]
    checks = _load("checks", monkeypatch)
    ini = tmp_path / "config.ini"
    ini.write_text(workload.ini(42), encoding="ascii")
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "ESFEM_OUTDIR")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, str(PERFBENCH / "child.py"), str(ROOT / "src"), "run", "1",
            workload.command, "--config", str(ini), "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    layers = result["layers"]
    if workload.command == "maxreg":
        solves = layers["timestepping.solve_heat.calls"]
        assert solves == 2
        assert layers["sparse.cg.calls"] == 2 * layers["timestepping.steps"] + 2 * solves
    assert layers["timestepping.dof_steps"] == workload.work + workload.uncounted
    references = checks.load_references()
    assert checks.reference_key(workload, 42) in references[workload.name]
    assert checks.check(workload, 42, str(tmp_path / "out"), references) == []
