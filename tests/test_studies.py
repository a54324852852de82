import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from esfem import fem, studies, timestepping
from esfem.errors import ConfigError
from esfem.fem import FeSpace, assemble_mass, assemble_stiffness, load_from_geometry
from esfem.meshing import SurfaceMesh, build_circle_mesh
from esfem.studies import (
    StudyConfig,
    StudyReport,
    StudyRow,
    config_hash,
    convergence_study,
    emit_reports,
    inequality_suite,
    maxreg_study,
)
from esfem.surfaces import forcing_profile
from esfem.timestepping import TimeGrid
from oracles import dense, unshared_cell

TINY = StudyConfig(levels=(16, 24), pq_pairs=((2.0, 2.0),), profile="osc-seed42",
                   richardson_rtol=0.05)


def test_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(scheme="C").validate()
    with pytest.raises(ConfigError):
        StudyConfig(pq_pairs=((1.0, 2.0),)).validate()
    with pytest.raises(ConfigError):
        StudyConfig(levels=(32, 16)).validate()
    for profile in ("nope", "osc-seedx", "osc-seed-1"):
        with pytest.raises(ConfigError, match="study.profile"):
            StudyConfig(profile=profile).validate()
    assert StudyConfig().validate() is not None


@pytest.mark.parametrize("kind,dimension", [
    ("circle", 1), ("sphere", 2), ("scaled_sphere_flow", 2), ("ellipsoid_flow", 2)])
def test_config_dimension_defaults_to_the_kind_s_own(kind, dimension):
    config = StudyConfig(surface_kind=kind, levels=(16,)).validate()
    assert config.dimension == dimension
    assert config.surface().dimension == dimension
    assert config == StudyConfig(surface_kind=kind, dimension=dimension, levels=(16,))
    assert config_hash(dataclasses.asdict(config)) == config_hash(
        dataclasses.asdict(StudyConfig(surface_kind=kind, dimension=dimension, levels=(16,))))


def test_config_rejects_a_dimension_the_kind_cannot_have():
    for kind, dimension in (("circle", 2), ("sphere", 1), ("ellipsoid_flow", 3),
                            ("scaled_sphere_flow", 0)):
        with pytest.raises(ConfigError, match=r"^surface\.dimension \("):
            StudyConfig(surface_kind=kind, dimension=dimension, levels=(16,)).validate()
    # the flows take either dimension
    for kind in ("scaled_sphere_flow", "ellipsoid_flow"):
        config = StudyConfig(surface_kind=kind, dimension=1, levels=(16,)).validate()
        assert config.surface().dimension == 1


def test_config_hash_changes_iff_semantics_change():
    a = dataclasses.asdict(StudyConfig())
    b = dataclasses.asdict(StudyConfig())
    assert config_hash(a) == config_hash(b)
    c = dataclasses.asdict(StudyConfig(seed=43))
    assert config_hash(a) != config_hash(c)


def test_cli_import_leaves_openssl_out_and_the_manifest_hash_pinned():
    # hashlib loads OpenSSL (_hashlib), about 3.5 MB of RSS, so config_hash
    # takes SHA-256 from CPython's builtin module and never loads it; the
    # digest stays the first 16 hex digits of SHA-256, so manifests stay
    # byte-identical
    parameters = {"kind": "sphere", "levels": [1, 3], "t_end": 3.0}
    pinned = "32ab6746632d463f"
    payload = json.dumps(parameters, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest()[:16] == pinned
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import esfem.cli\n"
            "from esfem.studies import config_hash\n"
            "print('_hashlib' in sys.modules)\n"
            f"print(config_hash({parameters!r}))\n"
            "print('_hashlib' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    assert run.stdout.split() == ["False", pinned, "False"]


def test_cli_maxreg_on_an_osc_seed_profile_loads_neither_numpy_random_nor_openssl(tmp_path):
    # the osc-seed coefficients are numpy's PCG64 stream reproduced in pure
    # Python, and config_hash uses CPython's builtin SHA-256: numpy.random
    # (nine extension modules, and OpenSSL through secrets and hmac) stays
    # unloaded unless importing numpy itself loads it
    config = tmp_path / "ellipsoid.cfg"
    config.write_text("[surface]\nkind = ellipsoid_flow\ndimension = 2\n"
                      "[study]\nscheme = A\nlevels = 1\nprofile = osc-seed42\n"
                      "richardson_rtol = 1\n")
    out = tmp_path / "out"
    watched = ["numpy.random", "secrets", "hmac", "_hashlib"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            f"watched = {watched!r}\n"
            "import numpy\n"
            "before = [m for m in watched if m in sys.modules]\n"
            "from esfem.cli import main\n"
            f"assert main(['maxreg', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
            "print(sorted(set(m for m in watched if m in sys.modules) - set(before)))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    assert run.stdout.splitlines()[-1] == "[]"
    manifest = json.loads((out / "maxreg_manifest.json").read_text())
    payload = json.dumps(manifest["parameters"], sort_keys=True, default=list).encode()
    assert manifest["config_hash"] == hashlib.sha256(payload).hexdigest()[:16]


def test_maxreg_study_smoke_and_determinism(tmp_path):
    rep1 = maxreg_study(TINY)
    rep2 = maxreg_study(TINY)
    assert len(rep1.rows) == 2
    for r1, r2 in zip(rep1.rows, rep2.rows):
        assert r1 == r2
    out1 = emit_reports(rep1, tmp_path / "a")
    out2 = emit_reports(rep2, tmp_path / "b")
    assert (tmp_path / "a" / "maxreg.csv").read_bytes() == (
        tmp_path / "b" / "maxreg.csv"
    ).read_bytes()
    assert all((tmp_path / "a" / n.split("/")[-1]).exists() for n in map(str, out1))


def test_maxreg_zero_forcing_reports_na(tmp_path):
    cfg = dataclasses.replace(TINY, profile="zero", levels=(16,))
    rep = maxreg_study(cfg)
    assert math.isnan(rep.rows[0].ratio)
    emit_reports(rep, tmp_path)
    text = (tmp_path / "maxreg.csv").read_text().splitlines()
    assert text[1].split(",")[8] == "NA"


def test_maxreg_ratio_matches_direct_energy_path():
    # independent path: dense backward-Euler loop with numpy solves and
    # mass-matrix norms, same grid and trapezoid rule
    cfg = StudyConfig(levels=(24,), pq_pairs=((2.0, 2.0),), profile="bump",
                      richardson_rtol=0.05)
    rep = maxreg_study(cfg)
    row = rep.rows[0]

    mesh = build_circle_mesh(cfg.surface(), 24, 1)
    space = FeSpace(mesh)
    mass = dense(assemble_mass(space))
    stiff = dense(assemble_stiffness(space))
    forcing = forcing_profile("bump", cfg.surface())
    grid = TimeGrid.from_mesh(mesh, 1.0, cfg.dt_factor).halved()
    times = grid.times()
    dt = grid.dt
    u = np.zeros(space.num_dofs)
    series = {"udot": [], "lap": [], "fh": []}

    def mnorm(v):
        return math.sqrt(float(v @ mass @ v))

    def load(t):
        return load_from_geometry(space.geometry(), mesh.elements, space.num_dofs, forcing, t)

    b = load(0.0)
    fh = np.linalg.solve(mass, b)
    lap = np.linalg.solve(mass, -stiff @ u)
    series["udot"].append(mnorm(fh + lap))
    series["lap"].append(mnorm(lap))
    series["fh"].append(mnorm(fh))
    for t in times[1:]:
        b = load(t)
        u_new = np.linalg.solve(mass + dt * stiff, mass @ u + dt * b)
        udot = (u_new - u) / dt
        fh = np.linalg.solve(mass, b)
        lap = np.linalg.solve(mass, -stiff @ u_new)
        u = u_new
        series["udot"].append(mnorm(udot))
        series["lap"].append(mnorm(lap))
        series["fh"].append(mnorm(fh))

    def bochner(name):
        vals = np.array(series[name])
        return math.sqrt(float(np.trapezoid(vals**2, times)))

    ratio = (bochner("udot") + bochner("lap")) / bochner("fh")
    assert abs(ratio - row.ratio) <= 1e-8 * ratio


def test_convergence_study_circle_k1():
    cfg = StudyConfig(levels=(16, 32, 64), mode=1)
    rows, order = convergence_study(cfg)
    assert [row[0] for row in rows] == [16, 32, 64]
    assert abs(order - 2.0) <= 0.3


def test_inequality_suite_smoke():
    cfg = StudyConfig(levels=(16, 32))
    out = inequality_suite(cfg)
    assert out["all_stable"], out["stable"]
    assert len(out["h"]) == 2


def test_inequality_suite_solves_each_projection_and_laplacian_once(monkeypatch):
    # per level: one L2 projection per test function, shared by p = 1, 2, 4,
    # one discrete Laplacian per random function, shared by q = 2, 4, and
    # the Ritz projection: 5 + 20 + 1 CG solves
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cg_solve(*args, **kwargs)

    cg_solve = fem.cg_solve
    monkeypatch.setattr(fem, "cg_solve", counted)
    inequality_suite(StudyConfig(levels=(16, 32)))
    assert len(calls) == 2 * 26


def test_emit_reports_empty_and_rows(tmp_path):
    cfg = StudyConfig()
    empty = StudyReport(config=cfg)
    emit_reports(empty, tmp_path / "empty")
    lines = (tmp_path / "empty" / "maxreg.csv").read_text().splitlines()
    assert lines == ["level,h,dt,p,q,norm_dtu,norm_lapu,norm_f,ratio,richardson_ok"]

    rows = [
        StudyRow(level=2 ** (4 + i), h=0.1 / (i + 1), dt=1e-3, p=2.0, q=2.0,
                 norm_dtu=1.0, norm_lapu=0.5, norm_f=1.0, ratio=1.5,
                 richardson_ok=True)
        for i in range(3)
    ]
    rep = StudyReport(config=cfg, rows=rows)
    emit_reports(rep, tmp_path / "three")
    lines = (tmp_path / "three" / "maxreg.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("16,")


ELLIPSOID_A = StudyConfig(surface_kind="ellipsoid_flow", dimension=2, scheme="A",
                          levels=(3,), profile="osc-seed7")
SHARED_CELLS = {
    "ellipsoid-A-L3": ELLIPSOID_A,
    "ellipsoid-B-L3": dataclasses.replace(ELLIPSOID_A, scheme="B"),
    "sphere-stationary-L2": StudyConfig(surface_kind="sphere", dimension=2,
                                        scheme="stationary", levels=(2,),
                                        profile="osc-seed7", richardson_rtol=0.05),
    "ellipsoid-A-L2-zero": dataclasses.replace(ELLIPSOID_A, levels=(2,), profile="zero"),
}


@pytest.mark.parametrize("name", sorted(SHARED_CELLS))
def test_shared_frames_leave_the_cell_and_its_outputs_unchanged(tmp_path, monkeypatch, name):
    # the lockstep cell against two streams that share nothing: the dt/2
    # series bit for bit, the dt series' u-derived norms bit for bit and its
    # re-solved fh (and lap = udot - fh) to solver tolerance; the written
    # table and summary byte for byte
    config = SHARED_CELLS[name]
    surface = config.surface()
    level = config.levels[0]
    _, grid, coarse, fine = studies._solve_level(config, surface, level)
    _, oracle_grid, oracle_coarse, oracle_fine = unshared_cell(config, surface, level)
    assert grid == oracle_grid
    assert np.array_equal(fine[0], oracle_fine[0])
    assert fine[1].keys() == oracle_fine[1].keys()
    for key, series in oracle_fine[1].items():
        assert np.array_equal(fine[1][key], series), key
    assert np.array_equal(coarse[0], oracle_coarse[0])
    for key, series in oracle_coarse[1].items():
        if key[0] == "udot" or (key[0] == "lap" and config.scheme == "B"):
            assert np.array_equal(coarse[1][key], series), key
        else:
            scale = max(float(np.abs(series).max()), 1e-300)
            assert np.abs(coarse[1][key] - series).max() <= 1e-10 * scale, key

    emit_reports(maxreg_study(config), tmp_path / "shared")
    monkeypatch.setattr(studies, "_solve_level", unshared_cell)
    emit_reports(maxreg_study(config), tmp_path / "unshared")
    for file in ("maxreg.csv", "maxreg_summary.txt"):
        assert (tmp_path / "shared" / file).read_bytes() == (
            tmp_path / "unshared" / file).read_bytes(), file


def test_zero_profile_cell_evaluates_no_load_and_solves_no_fh(monkeypatch):
    # profile = zero reaches solve_heat as f = None: the L2 cell (19 dt
    # steps) then evaluates none of its 39 loads, one per dt/2 node, and
    # runs only the system solves and each stream's first lap solve, 59 CG
    # calls instead of 118 (its outputs: the "-zero" case above)
    calls = {"load": 0, "cg": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(timestepping, "load_from_geometry",
                        counted("load", timestepping.load_from_geometry))
    monkeypatch.setattr(timestepping, "cg_solve", counted("cg", timestepping.cg_solve))
    config = SHARED_CELLS["ellipsoid-A-L2-zero"]
    _, grid, _, fine = studies._solve_level(config, config.surface(), 2)
    assert grid.n_steps == 19
    assert calls == {"load": 0, "cg": 59}
    assert not fine[1][("fh", 2.0)].any()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,bound", [
    ("ellipsoid-A-L3", 1.05), ("ellipsoid-B-L3", 1.08), ("ellipsoid-A-L2-zero", 1.08),
    ("sphere-stationary-L2", 1.12),
])
def test_shared_frames_keep_the_cell_peak_memory(name, bound):
    # both streams are alive at once, but the slot holds one frame and the
    # nodes are dropped as they are reduced: each cell may peak at most
    # ``bound`` times as high as two streams run one after the other
    # (tracemalloc, lockstep over unshared: A L3 1.035, B L3 1.059, zero L2
    # 1.051, stationary sphere L2 1.092; a prototype that kept one more frame
    # and geometry alive peaked 30% above on A L3)
    config = SHARED_CELLS[name]
    surface = config.surface()
    level = config.levels[0]
    for fn in (unshared_cell, studies._solve_level):  # warm caches and imports
        fn(config, surface, level)
    unshared = _traced_peak(unshared_cell, config, surface, level)
    shared = _traced_peak(studies._solve_level, config, surface, level)
    assert shared <= bound * unshared, (shared / unshared, shared, unshared)


def test_shared_frames_build_each_snapshot_with_no_other_alive(monkeypatch):
    # the slot gives up its frame before a stream builds the next one, and
    # the cell drops each node once it is reduced: whenever the mesh is
    # evolved, no earlier evolved snapshot is alive
    snapshots, alive = [], []
    original = SurfaceMesh.evolved

    def watched(self, t):
        alive.append(sum(ref() is not None for ref in snapshots))
        snapshot = original(self, t)
        snapshots.append(weakref.ref(snapshot))
        return snapshot

    monkeypatch.setattr(SurfaceMesh, "evolved", watched)
    config = dataclasses.replace(ELLIPSOID_A, levels=(2,))
    _, grid, _, _ = studies._solve_level(config, config.surface(), 2)
    assert alive == [0] * (2 * grid.n_steps)
