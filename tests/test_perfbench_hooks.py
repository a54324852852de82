"""The names and matrix attributes that perfbench's tracer reads from esfem.

The tracer wraps esfem from outside the package, by name, so a rename in
esfem would only show as a failed traced benchmark run.  These tests load
``perfbench/tracer.py`` from the checkout and check its hooks here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from esfem.fem import FeSpace, assemble_mass, assemble_stiffness
from esfem.meshing import build_sphere_mesh
from esfem.surfaces import Sphere

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracer):
    targets = [t for ts in tracer.FUNCTIONS.values() for t in ts]
    targets.append(tracer.FORCING[:2])
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_every_traced_method_resolves(tracer):
    for module, cls_name, method in tracer.METHODS.values():
        cls = getattr(importlib.import_module(module), cls_name)
        # the tracer replaces the method found in the class's own namespace
        assert callable(cls.__dict__[method]), (module, cls_name, method)


def test_matvec_bytes_of_sphere_matrices(tracer):
    # the traced sparse.matvec.gb_computed adds these up on every matvec
    mass = assemble_mass(FeSpace(build_sphere_mesh(Sphere(), 3, 1)))
    assert (mass.n, mass.indices.size) == (642, 4482)
    assert tracer._matvec_bytes(mass) == 117_848
    stiff = assemble_stiffness(FeSpace(build_sphere_mesh(Sphere(), 2, 2)))
    assert tracer._matvec_bytes(stiff) == 186_968
