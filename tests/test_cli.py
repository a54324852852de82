import inspect
import json
import re
import sys

import pytest

import esfem.cli
from esfem.cli import main, parse_config
from esfem.errors import ConfigError
from esfem.studies import StudyReport

GOOD_CONFIG = """
[surface]
kind = circle
dimension = 1

[study]
scheme = stationary
degree = 1
levels = 16,24
pq = 2:2
profile = osc-seed42
richardson_rtol = 0.05

[output]
directory = {out}
"""


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "study.cfg"
    path.write_text((text or GOOD_CONFIG).format(**fmt))
    return str(path)


def test_parse_config_roundtrip(tmp_path):
    path = write_config(tmp_path, out=str(tmp_path / "out"))
    config, extras = parse_config(path)
    assert config.levels == (16, 24)
    assert config.pq_pairs == ((2.0, 2.0),)
    assert extras["directory"].endswith("out")


def test_parse_config_missing_required_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[surface]\ndimension = 1\n")
    with pytest.raises(ConfigError, match="surface.kind"):
        parse_config(str(path))


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[surface]\nkind = circle\ncolour = blue\n")
    with pytest.raises(ConfigError, match="colour"):
        parse_config(str(path))


def test_parse_config_takes_the_ellipsoid_without_the_kernel_difference(tmp_path):
    # only the kernel difference and the delta command need a radial kind
    path = tmp_path / "ellipsoid.cfg"
    path.write_text("[surface]\nkind = ellipsoid_flow\ndimension = 2\n"
                    "[study]\nlevels = 1,2\nkernel_difference = false\n")
    config, extras = parse_config(str(path))
    assert config.surface_kind == "ellipsoid_flow"
    assert extras["kernel_difference"] is False


@pytest.mark.parametrize("raw,value", [
    *((raw, True) for raw in ("1", "yes", "true", "on", "On", "TRUE")),
    *((raw, False) for raw in ("0", "no", "false", "off", "Off")),
])
def test_parse_config_reads_configparser_s_boolean_words(tmp_path, raw, value):
    path = tmp_path / "sphere.cfg"
    path.write_text("[surface]\nkind = sphere\ndimension = 2\n"
                    f"[study]\nlevels = 1,3\nkernel_difference = {raw}\n")
    _, extras = parse_config(str(path))
    assert extras["kernel_difference"] is value


def test_cli_exit_codes(tmp_path, capsys):
    # missing required key -> exit 2 with a categorized line
    path = tmp_path / "bad.cfg"
    path.write_text("[surface]\ndimension = 1\n")
    code = main(["maxreg", "--config", str(path)])
    assert code == 2
    assert "ConfigError: surface.kind" in capsys.readouterr().err

    # an unknown surface kind is a config fault too -> exit 2, naming the key
    path2 = tmp_path / "bad2.cfg"
    path2.write_text("[surface]\nkind = moebius\n")
    code = main(["maxreg", "--config", str(path2)])
    assert code == 2
    assert "ConfigError: surface.kind (" in capsys.readouterr().err


def test_cli_mesh_command(tmp_path):
    out = tmp_path / "meshes"
    code = main([
        "mesh", "--surface", "sphere", "--dimension", "2",
        "--levels", "2", "--degree", "1", "--out", str(out),
    ])
    assert code == 0
    vtk = out / "sphere_l2_k1.vtk"
    lines = vtk.read_text().splitlines()
    polygons = [ln for ln in lines if ln.startswith("POLYGONS")]
    assert polygons and int(polygons[0].split()[1]) == 320
    manifest = json.loads((out / "sphere_l2_k1_manifest.json").read_text())
    assert manifest["artifact"] == "esfem"


def test_cli_maxreg_deterministic_across_runs(tmp_path):
    cfg = write_config(tmp_path, out=str(tmp_path / "o1"))
    assert main(["maxreg", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
    assert main(["maxreg", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
    b1 = (tmp_path / "o1" / "maxreg.csv").read_bytes()
    assert b1 == (tmp_path / "o2" / "maxreg.csv").read_bytes()
    summary = (tmp_path / "o1" / "maxreg_summary.txt").read_text()
    assert summary.startswith(("PASS", "FAIL"))


def test_cli_config_hash_ignores_formatting(tmp_path):
    cfg1 = write_config(tmp_path, out=str(tmp_path / "h1"))
    spaced = GOOD_CONFIG.replace("levels = 16,24", "levels =  16,24") + "\n; comment\n"
    path2 = tmp_path / "study2.cfg"
    path2.write_text(spaced.format(out=str(tmp_path / "h2")))
    main(["maxreg", "--config", cfg1, "--out", str(tmp_path / "h1")])
    main(["maxreg", "--config", str(path2), "--out", str(tmp_path / "h2")])
    m1 = json.loads((tmp_path / "h1" / "maxreg_manifest.json").read_text())
    m2 = json.loads((tmp_path / "h2" / "maxreg_manifest.json").read_text())
    # output directory is not part of the semantic config
    assert m1["config_hash"] == m2["config_hash"]

    # changing a semantically relevant key changes the hash
    changed = GOOD_CONFIG.replace("profile = osc-seed42", "profile = bump")
    path3 = tmp_path / "study3.cfg"
    path3.write_text(changed.format(out=str(tmp_path / "h3")))
    main(["maxreg", "--config", str(path3), "--out", str(tmp_path / "h3")])
    m3 = json.loads((tmp_path / "h3" / "maxreg_manifest.json").read_text())
    assert m3["config_hash"] != m1["config_hash"]


def test_cli_outdir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, out=str(tmp_path / "ignored"))
    target = tmp_path / "env_out"
    monkeypatch.setenv("ESFEM_OUTDIR", str(target))
    assert main(["maxreg", "--config", cfg]) == 0
    assert (target / "maxreg.csv").exists()


def test_cli_convergence_and_delta(tmp_path):
    text = GOOD_CONFIG.replace("levels = 16,24", "levels = 16,32,64")
    cfg = write_config(tmp_path, text=text, out=str(tmp_path / "conv"))
    assert main(["convergence", "--config", cfg]) == 0
    summary = (tmp_path / "conv" / "convergence_summary.txt").read_text()
    order = float(summary.split()[1])
    assert 1.6 <= order <= 2.4

    cfg2 = write_config(tmp_path, out=str(tmp_path / "delta"))
    assert main(["delta", "--config", cfg2, "--out", str(tmp_path / "delta")]) == 0
    report = (tmp_path / "delta" / "delta_report.csv").read_text().splitlines()
    assert report[0].startswith("level,h,slope")
    assert len(report) == 3


def test_cli_solve_on_zero_forcing_evaluates_no_load_and_solves_no_fh(tmp_path, monkeypatch):
    # profile = zero reaches solve_heat as f = None: sphere level 2 (19
    # steps) evaluates none of its 20 loads and runs 20 CG calls, not 40
    # (one fh solve per node on b = 0); the trajectory is zero all the same
    from esfem import timestepping

    calls = {"load": 0, "cg": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(timestepping, "load_from_geometry",
                        counted("load", timestepping.load_from_geometry))
    monkeypatch.setattr(timestepping, "cg_solve", counted("cg", timestepping.cg_solve))
    out = tmp_path / "out"
    text = ("[surface]\nkind = sphere\ndimension = 2\n[study]\nlevels = 2\n"
            "profile = zero\n[output]\ndirectory = {out}\n")
    assert main(["solve", "--config", write_config(tmp_path, text=text, out=str(out))]) == 0
    assert calls == {"load": 0, "cg": 20}
    rows = (out / "solve_level2.csv").read_text().splitlines()
    assert len(rows) == 1 + 20
    assert all(float(v) == 0.0 for row in rows[1:] for v in row.split(",")[1:])


def test_cli_delta_solves_each_point_source_once(tmp_path, monkeypatch):
    # per level one mass assembly, CG solve and point location for each of
    # the discrete point source, which serves both the decay fit and the
    # consistency, and the lifted one, which serves both p = 1 and p = 2
    from esfem import fem

    counts = dict.fromkeys(("assemble_mass", "cg_solve", "locate_point"), 0)
    for name in counts:
        def counting(*args, _name=name, _original=getattr(fem, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fem, name, counting)
    cfg = write_config(tmp_path, out=str(tmp_path / "delta"))
    assert main(["delta", "--config", cfg]) == 0
    levels = 2  # 16,24
    assert counts == dict.fromkeys(counts, 2 * levels)


def test_cli_every_solve_runs_at_the_config_s_cg_tol(tmp_path, monkeypatch):
    # each esfem module's own binding of cg_solve is wrapped, so that no
    # caller goes round the record; the kernel difference solves at
    # max(cg_tol, 1e-11), which is cg_tol here
    from esfem import sparse

    original, tols = sparse.cg_solve, []
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        tols.append(signature.bind(*args, **kwargs).arguments["tol"])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "esfem" and getattr(module, "cg_solve", None) is original:
            monkeypatch.setattr(module, "cg_solve", recording)
    text = GOOD_CONFIG + "[solver]\ncg_tol = 1e-9\n"
    greens = text.replace("levels = 16,24", "levels = 8,32\nkernel_difference = true")
    for command in ("solve", "maxreg", "convergence", "greens", "delta", "inequalities"):
        tols.clear()
        cfg = write_config(tmp_path, text=greens if command == "greens" else text,
                           out=str(tmp_path / command))
        assert main([command, "--config", cfg]) == 0
        assert tols and set(tols) == {1e-9}, (command, sorted(set(tols)))


def _manifest(outdir, name):
    return json.loads((outdir / f"{name}_manifest.json").read_text())


@pytest.mark.parametrize("command", ["maxreg", "delta", "mesh"])
def test_cli_out_under_a_file_is_an_io_failure(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    if command == "mesh":
        argv = ["mesh", "--surface", "circle", "--levels", "8", "--out", out]
    else:
        argv = [command, "--config", write_config(tmp_path, out=out), "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("IOFailure: ")
    assert "Traceback" not in err


def test_cli_config_hash_is_shared_by_study_manifests(tmp_path):
    cfg = write_config(tmp_path, out=str(tmp_path / "out"))
    for command in ("maxreg", "delta", "inequalities"):
        assert main([command, "--config", cfg]) == 0
    hashes = {name: _manifest(tmp_path / "out", name)["config_hash"]
              for name in ("maxreg", "delta", "inequalities")}
    assert len(set(hashes.values())) == 1, hashes
    manifest = _manifest(tmp_path / "out", "maxreg")
    assert manifest["parameters"]["levels"] == [16, 24]
    assert manifest["outputs"] == ["maxreg.csv", "maxreg_summary.txt"]


def test_cli_manifest_records_the_dimension_that_ran(tmp_path):
    # a sphere config without surface.dimension runs on S^2 and says so
    text = "[surface]\nkind = sphere\n[study]\nlevels = 0\nt_end = 0.05\n"
    stated = text.replace("kind = sphere\n", "kind = sphere\ndimension = 2\n")
    hashes = []
    for name, config in (("implicit", text), ("stated", stated)):
        cfg = write_config(tmp_path, text=config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        manifest = _manifest(tmp_path / name, "solve")
        assert manifest["parameters"]["dimension"] == 2
        hashes.append(manifest["config_hash"])
    assert hashes[0] == hashes[1]
    assert ((tmp_path / "implicit" / "solve_level0.csv").read_bytes()
            == (tmp_path / "stated" / "solve_level0.csv").read_bytes())


def test_cli_greens_hash_tracks_its_extras(tmp_path):
    # c_star is read from the config outside StudyConfig; it shapes the
    # dyadic table, so it must change the manifest hash
    text = GOOD_CONFIG.replace("levels = 16,24", "levels = 32,48")
    text = text.replace("richardson_rtol = 0.05", "c_star = {c_star}")
    hashes = []
    for c_star in (0.5, 0.25):
        out = tmp_path / f"c{c_star}"
        cfg = write_config(tmp_path, text=text, out=str(out), c_star=c_star)
        assert main(["greens", "--config", cfg]) == 0
        manifest = _manifest(out, "greens")
        assert manifest["parameters"]["c_star"] == c_star
        hashes.append(manifest["config_hash"])
    assert hashes[0] != hashes[1]


def test_cli_greens_skips_the_dyadic_table_without_a_geodesic_distance(tmp_path, capsys):
    # sphere-type level 3 has h < 1/(4 c_star) at c_star = 1, so the dyadic
    # table is due, but the ellipsoid has no geodesic distance: the table is
    # skipped with its reason and the study still writes its manifest
    out = tmp_path / "out"
    path = tmp_path / "ellipsoid.cfg"
    path.write_text("[surface]\nkind = ellipsoid_flow\ndimension = 2\n"
                    "[study]\nlevels = 3\nc_star = 1\nt_end = 2\n")
    assert main(["greens", "--config", str(path), "--out", str(out)]) == 0
    assert ("level 3: dyadic table skipped (no geodesic distance for kind "
            "'ellipsoid_flow')") in capsys.readouterr().out
    assert _manifest(out, "greens")["outputs"] == ["greens_decay_level3.csv",
                                                   "greens_summary.txt"]
    assert sorted(p.name for p in out.iterdir()) == [
        "greens_decay_level3.csv", "greens_manifest.json", "greens_summary.txt"]


def test_cli_greens_rejects_a_fit_window_with_too_few_time_nodes(tmp_path, capsys):
    # sphere level 1 steps by dt = 0.19, so [1, 1.2] holds 2 time nodes and
    # the decay fit needs 5: a config error before the output directory
    out = tmp_path / "out"
    path = tmp_path / "short.cfg"
    path.write_text("[surface]\nkind = sphere\ndimension = 2\n"
                    "[study]\nlevels = 1,2\nt_end = 1.2\n")
    assert main(["greens", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: study.t_end (")
    assert "level 1 has 2 time nodes" in err
    assert not out.exists()


def test_cli_greens_rejects_a_kernel_pair_over_the_dof_cap(tmp_path, capsys, monkeypatch):
    # sphere level 3 has 642 dofs; the cap is read when the pair is checked
    monkeypatch.setattr(esfem.greens, "MAX_FINE_DOFS", 641)
    out = tmp_path / "out"
    path = tmp_path / "kernel.cfg"
    path.write_text("[surface]\nkind = sphere\ndimension = 2\n"
                    "[study]\nlevels = 1,3\nkernel_difference = true\n")
    assert main(["greens", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: study.levels (kernel_difference between levels 1 and 3: ")
    assert "642 dofs > cap 641" in err
    assert not out.exists()


def test_cli_greens_builds_each_mesh_once(tmp_path, monkeypatch):
    built = []

    def counting_build(surface, level, degree):
        built.append(level)
        return build_level_mesh(surface, level, degree)

    build_level_mesh = esfem.cli.build_level_mesh
    monkeypatch.setattr(esfem.cli, "build_level_mesh", counting_build)
    path = tmp_path / "greens.cfg"
    path.write_text("[surface]\nkind = sphere\ndimension = 2\n"
                    "[study]\nlevels = 1,2\nt_end = 2\n")
    assert main(["greens", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert built == [1, 2]


def test_cli_richardson_failure_names_level_field_and_deviation(tmp_path, capsys):
    # circle P2 at 16 elements changes udot and lap by 1.5% and 1.9% when
    # dt is halved, against the default richardson_rtol of 1%
    path = tmp_path / "circle.cfg"
    path.write_text("[surface]\nkind = circle\n[study]\nlevels = 16\ndegree = 2\n")
    assert main(["maxreg", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("RichardsonFailure: ")
    assert "richardson_rtol = 0.01 " in err and "(p,q)=(2.0,2.0)" in err
    failed = re.findall(r"level (\d+) (udot|lap|fh) by ([0-9.e+-]+)", err)
    assert [(level, name) for level, name, _ in failed] == [("16", "udot"), ("16", "lap")]
    assert all(0.01 < float(deviation) < 0.03 for _, _, deviation in failed)
    # the failed check leaves the table of every row and a manifest naming
    # it, but no summary, whose verdicts assume every row passed
    out = tmp_path / "out"
    rows = (out / "maxreg.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("16,")
    assert rows[1].endswith(",false")
    assert _manifest(out, "maxreg")["outputs"] == ["maxreg.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["maxreg.csv", "maxreg_manifest.json"]


def test_cli_solve_takes_a_t_end_below_the_greens_fit_window(tmp_path):
    # only greens fits on t >= 1; solve runs to any positive t_end
    text = GOOD_CONFIG.replace("levels = 16,24", "levels = 16\nt_end = 0.5")
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, text=text, out=str(out))]) == 0
    rows = (out / "solve_level16.csv").read_text().splitlines()
    assert rows[-1].split(",")[0] == "0.5"
    assert _manifest(out, "solve")["parameters"]["t_end"] == 0.5


@pytest.mark.parametrize("fmt,suffix", [("vtk", ".vtk"), ("text", ".txt")])
def test_cli_mesh_unwritable_file_is_an_io_failure(tmp_path, capsys, fmt, suffix):
    out = tmp_path / "meshes"
    (out / f"sphere_l1_k1{suffix}").mkdir(parents=True)
    argv = ["mesh", "--surface", "sphere", "--dimension", "2", "--levels", "1",
            "--format", fmt, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("IOFailure: ")
    assert "Traceback" not in err


def test_cli_solve_honours_t_end(tmp_path):
    text = GOOD_CONFIG.replace("levels = 16,24", "levels = 16")
    default_cfg = write_config(tmp_path, text=text, out=str(tmp_path / "t1"))
    assert main(["solve", "--config", default_cfg]) == 0
    rows = (tmp_path / "t1" / "solve_level16.csv").read_text().splitlines()
    assert rows[-1].split(",")[0] == "1"
    default = _manifest(tmp_path / "t1", "solve")
    assert "t_end" not in default["parameters"]

    text3 = text.replace("profile = osc-seed42", "profile = osc-seed42\nt_end = 3.0")
    path3 = tmp_path / "t3.cfg"
    path3.write_text(text3.format(out=str(tmp_path / "t3")))
    assert main(["solve", "--config", str(path3)]) == 0
    rows3 = (tmp_path / "t3" / "solve_level16.csv").read_text().splitlines()
    assert rows3[-1].split(",")[0] == "3"
    assert len(rows3) > len(rows)
    # the header and the t = 0 row do not depend on t_end
    assert rows3[:2] == rows[:2]
    manifest = _manifest(tmp_path / "t3", "solve")
    assert manifest["parameters"]["t_end"] == 3.0
    assert manifest["config_hash"] != default["config_hash"]


@pytest.mark.parametrize("command,config,key", [
    ("maxreg", "[surface]\nkind = sphere\n[study]\nlevels = 1\ndegree = 3\n",
     "study.degree"),
    ("maxreg", "[surface]\nkind = sphere\n[study]\nlevels = -1,0\n", "study.levels"),
    ("maxreg", "[surface]\nkind = circle\n[study]\nlevels = 2,8\n", "study.levels"),
    ("maxreg", "[surface]\nkind = scaled_sphere_flow\ndimension = 2\nparams = 1.5\n"
               "[study]\nlevels = 1\n", "surface.params"),
    ("maxreg", "[surface]\nkind = scaled_sphere_flow\ndimension = 3\n[study]\nlevels = 1\n",
     "surface.dimension"),
    ("maxreg", "[surface]\nkind = moebius\n[study]\nlevels = 1\n", "surface.kind"),
    # surfaces have no time horizon: each study sets its own end time
    ("solve", "[surface]\nkind = ellipsoid_flow\nhorizon = 2\n[study]\nlevels = 1\n",
     "surface.horizon"),
    ("inequalities", "[surface]\nkind = circle\n[study]\nlevels = 16,32\nseed = -1\n",
     "study.seed"),
    ("convergence", "[surface]\nkind = circle\n[study]\nlevels = 16,32\nmode = 0\n",
     "study.mode"),
    ("maxreg", "[surface]\nkind = circle\n[study]\nlevels = 16\nprofile = nope\n",
     "study.profile"),
    ("solve", "[surface]\nkind = circle\n[study]\nlevels = 16\nprofile = osc-seedx\n",
     "study.profile"),
    ("solve", "[surface]\nkind = circle\n[study]\nlevels = 16\nprofile = osc-seed-1\n",
     "study.profile"),
    ("greens", "[surface]\nkind = circle\n[study]\nlevels = 16\nc_star = 0\n", "study.c_star"),
    ("greens", "[surface]\nkind = circle\n[study]\nlevels = 16\nc_star = nan\n",
     "study.c_star"),
    ("solve", "[surface]\nkind = circle\n[study]\nlevels = 16\nt_end = 0\n", "study.t_end"),
    ("greens", "[surface]\nkind = circle\n[study]\nlevels = 16\nt_end = inf\n",
     "study.t_end"),
    # greens fits the decay on t >= 1
    ("greens", "[surface]\nkind = ellipsoid_flow\ndimension = 2\n[study]\nlevels = 3\n"
               "t_end = 1\n", "study.t_end"),
    ("greens", "[surface]\nkind = circle\n[study]\nlevels = 16\nt_end = 0.5\n",
     "study.t_end"),
    ("greens", "[surface]\nkind = sphere\ndimension = 2\n[study]\nlevels = 1\n"
               "t_end = 1.2\n", "study.t_end"),
    # the point-source decay needs geodesic distances, and the kernel
    # difference the radial inverse lift: both exist on radial kinds only
    ("delta", "[surface]\nkind = ellipsoid_flow\ndimension = 2\n[study]\nlevels = 1,2\n",
     "surface.kind"),
    ("greens", "[surface]\nkind = ellipsoid_flow\ndimension = 2\n[study]\nlevels = 1,2\n"
               "kernel_difference = true\n", "surface.kind"),
    # the kernel difference compares the first and the last level, whose
    # h must shrink by more than 3.5 (sphere levels 1 and 2 halve it)
    ("greens", "[surface]\nkind = sphere\ndimension = 2\n[study]\nlevels = 1\n"
               "kernel_difference = true\n", "study.levels"),
    ("greens", "[surface]\nkind = sphere\ndimension = 2\n[study]\nlevels = 1,2\n"
               "kernel_difference = true\n", "study.levels"),
    # step factor, Richardson tolerance and CG tolerance must be positive
    # and finite, and a study needs a level
    *(("solve", f"[surface]\nkind = circle\n[study]\nlevels = 16\ndt_factor = {v}\n",
       "study.dt_factor") for v in ("nan", "inf", "0", "-1")),
    *(("maxreg", f"[surface]\nkind = circle\n[study]\nlevels = 8,16\n"
                 f"richardson_rtol = {v}\n", "study.richardson_rtol")
      for v in ("nan", "inf", "0", "-0.01")),
    *(("solve", f"[surface]\nkind = circle\n[study]\nlevels = 16\n[solver]\ncg_tol = {v}\n",
       "solver.cg_tol") for v in ("nan", "inf", "0", "-1")),
    *((command, "[surface]\nkind = circle\n[study]\nlevels =\n", "study.levels")
      for command in ("solve", "maxreg", "greens", "delta", "convergence", "inequalities")),
    # the convergence order is a slope, which one level does not give, and
    # the errors are taken against an exact solution, which only the
    # stationary circle and sphere have
    ("convergence", "[surface]\nkind = circle\n[study]\nlevels = 16\n", "study.levels"),
    *(("convergence", f"[surface]\nkind = {kind}\ndimension = 2\n[study]\nlevels = 1,2\n",
       "surface.kind") for kind in ("ellipsoid_flow", "scaled_sphere_flow")),
    # circles are curves and spheres surfaces, whatever the config says
    ("solve", "[surface]\nkind = sphere\ndimension = 1\n[study]\nlevels = 1\n",
     "surface.dimension"),
    ("solve", "[surface]\nkind = circle\ndimension = 2\n[study]\nlevels = 16\n",
     "surface.dimension"),
    # the kernel difference is on or off in configparser's boolean words
    *(("greens", "[surface]\nkind = sphere\ndimension = 2\n[study]\nlevels = 1,3\n"
                 f"kernel_difference = {v}\n", "study.kernel_difference")
      for v in ("ture", "2", "y")),
    # radii are positive and finite, amplitudes below 1 in modulus, and a
    # kind takes no more parameters than it reads
    *(("maxreg", f"[surface]\nkind = circle\nparams = {v}\n[study]\nlevels = 16,32\n",
       "surface.params") for v in ("0", "-1", "nan", "inf", "1,2")),
    *(("solve", f"[surface]\nkind = sphere\nparams = {v}\n[study]\nlevels = 1\n",
       "surface.params") for v in ("0", "-1", "nan", "1,2")),
    *(("solve", f"[surface]\nkind = ellipsoid_flow\nparams = {v}\n[study]\nlevels = 1\n",
       "surface.params") for v in ("nan,0,0", "0.1,nan,0")),
    ("solve", "[surface]\nkind = scaled_sphere_flow\nparams = 0.1,0.2\n[study]\n"
              "levels = 1\n", "surface.params"),
    # a repeated (p, q) pair would list each row twice
    ("maxreg", "[surface]\nkind = circle\n[study]\nlevels = 16,32\npq = 2:2,2:2\n",
     "study.pq"),
    ("maxreg", "[surface]\nkind = circle\n[study]\nlevels = 16,32\npq = 2:2,3:4,2.0:2\n",
     "study.pq"),
])
def test_cli_rejected_config_values_are_config_errors(tmp_path, capsys, command,
                                                      config, key):
    path = tmp_path / "bad.cfg"
    path.write_text(config)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ConfigError: {key} (")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,flag", [
    (["--surface", "sphere", "--dimension", "2", "--levels", "-1"], "--levels"),
    (["--surface", "sphere", "--dimension", "2", "--levels", "1", "--degree", "3"],
     "--degree"),
    (["--surface", "circle", "--levels", "8", "--degree", "4"], "--degree"),
    (["--surface", "ellipsoid_flow", "--dimension", "2", "--levels", "1",
      "--params", "0.1,0.2"], "--params"),
    (["--surface", "scaled_sphere_flow", "--dimension", "2", "--levels", "1",
      "--params", "1.5"], "--params"),
    (["--surface", "sphere", "--dimension", "1", "--levels", "1"], "--dimension"),
    (["--surface", "moebius", "--levels", "1"], "--surface"),
    *((["--surface", "ellipsoid_flow", "--levels", "1", "--time", t], "--time")
      for t in ("nan", "inf", "-0.5")),
])
def test_cli_mesh_rejects_bad_flags_as_config_errors(tmp_path, capsys, flags, flag):
    # the mesh command reads no config file, so its errors name the flag
    out = tmp_path / "out"
    assert main(["mesh", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ConfigError: {flag} (")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_mesh_writes_to_esfem_outdir_without_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ESFEM_OUTDIR", str(tmp_path / "env"))
    argv = ["mesh", "--surface", "ellipsoid_flow", "--levels", "0", "--format", "text"]
    assert main(argv) == 0
    assert main([*argv, "--out", str(tmp_path / "flag")]) == 0
    assert not (tmp_path / "out").exists()
    for outdir in ("env", "flag"):
        text = (tmp_path / outdir / "ellipsoid_flow_l0_k1.txt").read_text()
        # without --dimension the ellipsoid is the 2-dimensional surface
        assert "dimension 2\n" in text
        manifest = _manifest(tmp_path / outdir, "ellipsoid_flow_l0_k1")
        assert manifest["parameters"]["dimension"] == 2


def test_cli_maxreg_check_exits_3_on_a_non_uniform_pair(tmp_path, monkeypatch):
    def non_uniform(config):
        verdict = {"spread": 2.0, "last_growth": 0.5, "uniform": False}
        return StudyReport(config=config, uniformity={(2.0, 2.0): verdict})

    monkeypatch.setattr(esfem.cli, "maxreg_study", non_uniform)
    cfg = write_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["maxreg", "--config", cfg]) == 0
    assert main(["maxreg", "--config", cfg, "--check"]) == 3


def test_cli_inequalities_check_exits_3_when_unstable(tmp_path, monkeypatch):
    monkeypatch.setattr(esfem.cli, "inequality_suite", lambda config: {
        "stable": {"inverse_constant": False}, "all_stable": False})
    cfg = write_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["inequalities", "--config", cfg]) == 0
    assert main(["inequalities", "--config", cfg, "--check"]) == 3
    assert (tmp_path / "out" / "inequalities.txt").read_text() == "FAIL inverse_constant\n"


@pytest.mark.parametrize("command", ["solve", "convergence", "greens", "delta"])
def test_cli_check_is_refused_where_it_checks_nothing(tmp_path, capsys, command):
    cfg = write_config(tmp_path, out=str(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--check"])
    assert exc.value.code == 2
    assert "--check" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
