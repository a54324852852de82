"""One benchmark workload run in process and checked against its references.

``perfbench/references.json`` stores the outputs of every gated workload.
Running the smallest one here (``maxreg-ellipsoid`` at seed 42, about 0.2 s)
makes a change of the numerics beyond the benchmark's tolerance fail the
test suite, not only a benchmark run.  The workload and its check are loaded
from the checkout's ``perfbench/`` by path.
"""

import importlib.util
import sys
from pathlib import Path

from esfem.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
