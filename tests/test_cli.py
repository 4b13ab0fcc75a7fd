"""CLI tests: scenario parsing and validation, the four subcommands,
artifact determinism, blow-up truncation status, and exit codes.

Everything runs in-process through cli.main so exits and output are
captured; scenarios are sized to keep each run under a few seconds.
"""

import contextlib
import io
import os
import tempfile
from configparser import ConfigParser

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavemap.geometry import SPHERE
from wavemap.evolution import (RadialGrid, evolve, write_snapshot,
                               read_snapshot)
from wavemap.data import make_chain
from wavemap.diagnostics import SERIES_COLUMNS
from wavemap.cli import (main, load_scenario, build_data, load_trajectory,
                         CliError)


def write_cfg(path, out_dir, **overrides):
    base = {
        "metric": {"target": "sphere"},
        "data": {"family": "bump", "ell": "0", "amplitude": "0.1",
                 "center": "5", "width": "2.5"},
        "grid": {"r_max": "20", "n_points": "256"},
        "time": {"t_final": "2.0", "record_every": "64"},
        "pipeline": {"stages": "series"},
        "output": {"dir": str(out_dir)},
    }
    for section, kv in overrides.items():
        base.setdefault(section, {}).update(kv)
    cp = ConfigParser()
    for section, kv in base.items():
        # an override of None drops the key
        cp[section] = {k: v for k, v in kv.items() if v is not None}
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


SNAP_HEADER = ("# wavemap-snapshot v1\n# metric sphere\n"
               "# ell0 0 ell_inf 0\n# t 0\n")


class TestScenarioValidation:
    def test_parse_error_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[metric]\ntarget = sphere\nthis line is garbage\n")
        with pytest.raises(CliError, match="line"):
            load_scenario(str(cfg))

    def test_missing_config(self):
        with pytest.raises(CliError, match="no such config"):
            load_scenario("/nonexistent/path.cfg")

    def test_grid_floor_refused(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        grid={"n_points": "10"})
        with pytest.raises(CliError, match="grid floor"):
            load_scenario(cfg)

    def test_under_resolved_scale_refused(self, tmp_path):
        # scale 1e-3 on dr = 20/256 is far below the 8-cell rule
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        data={"family": "bubble", "ell": "0",
                              "direction": "1", "scale": "1e-3"})
        with pytest.raises(CliError, match="under-resolved"):
            load_scenario(cfg)

    def test_non_root_ell_refused(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        data={"ell": "0.3"})
        with pytest.raises(CliError, match="not a root"):
            load_scenario(cfg)

    def test_unknown_metric_target(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        metric={"target": "torus"})
        with pytest.raises(CliError, match="unknown metric target"):
            load_scenario(cfg)

    def test_unknown_stage(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        pipeline={"stages": "series, frobnicate"})
        with pytest.raises(CliError, match="unknown pipeline stage"):
            load_scenario(cfg)

    def test_missing_section(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[metric]\ntarget = sphere\n")
        with pytest.raises(CliError, match="missing"):
            load_scenario(str(cfg))

    def test_custom_metric_parses(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        metric={"target": "custom", "id": "demo-line",
                                "g": "rho", "g_prime": "1",
                                "window": "-5 5"})
        scen = load_scenario(cfg)
        assert scen.metric.id == "demo-line"

    def test_connector_without_neighbor_root_refused(self, tmp_path, capsys):
        # yang-mills roots are -1 and 1: no connector leaves 1 upward
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        metric={"target": "yang-mills"},
                        data={"family": "bubble", "ell": "1",
                              "direction": "1", "scale": "2"})
        with pytest.raises(CliError, match="no root of g above ell = 1"):
            load_scenario(cfg)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_integer_direction_refused(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        data={"family": "bubble", "ell": "0",
                              "direction": "up", "scale": "2"})
        with pytest.raises(CliError, match="direction = 'up' is not"):
            load_scenario(cfg)

    def test_geometry_error_is_one_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        metric={"target": "custom", "id": "bad",
                                "g": "sin(rho)", "g_prime": "sin(rho)",
                                "window": "-4 4"})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: g_prime expression disagrees")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"time": {"dt": "0.2"}}, "CFL violation"),     # 0.5 dr = 0.039
        ({"time": {"t_final": "-1"}}, "t_final = -1 must be positive"),
        ({"time": {"record_every": "0"}}, "record_every = 0 must be"),
        ({"time": {"boundary": "periodic"}}, "unknown boundary"),
        ({"data": {"amplitude": None}}, "missing [data] amplitude"),
        ({"metric": {"target": "custom", "id": "m", "g": "sin(rho",
                     "g_prime": "cos(rho)", "window": "-4 4"}},
         "expected ')'"),
        ({"metric": {"target": "yang-mills"},
          "data": {"family": "chain", "ell": None, "ell_outer": "1",
                   "steps": "1:2"}}, "no root of g above ell = 1"),
        ({"grid": {"r_max": "nan"}}, "r_max = 'nan' is not a finite number"),
        ({"grid": {"r_max": "-1"}}, "[grid] r_max must be positive"),
        ({"time": {"t_final": "inf"}}, "t_final = 'inf' is not a finite"),
        ({"data": {"ell": "nan"}}, "ell = 'nan' is not a finite number"),
        ({"data": {"amplitude": "nan"}}, "amplitude = 'nan' is not a finite"),
        ({"data": {"family": "chain", "ell": None, "steps": "1:nan"}},
         "steps entry '1:nan' is not direction:scale"),
        ({"data": {"center": "1"}},
         "[data] bump support must avoid the origin"),
        ({"metric": {"target": "custom", "id": "m", "g": "sin(rho)",
                     "g_prime": "cos(rho)", "window": "-4 inf"}},
         "window needs two finite numbers"),
    ], ids=["cfl", "t_final", "record_every", "boundary", "amplitude",
            "expression", "chain", "r_max_nan", "r_max_negative",
            "t_final_inf", "ell_nan", "amplitude_nan", "chain_scale_nan",
            "bump_support", "window_inf"])
    def test_config_error_is_one_line_before_work(self, tmp_path, capsys,
                                                  overrides, message):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out", **overrides)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_dt_overrides_cfl(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        time={"t_final": "2.0", "dt": "0.0390625"})
        scen = load_scenario(cfg)
        assert scen.cfl == pytest.approx(0.0390625 / scen.grid.dr)

    def test_batch_refused_whole(self, tmp_path, capsys):
        # the second config names a snapshot written for another metric,
        # which only building its data finds: the first config must not run
        field, _, _ = make_chain(RadialGrid(20.0, 256), SPHERE, 0.0,
                                 [(1, 2.0)])
        snap = tmp_path / "seed.snap"
        write_snapshot(field, snap, "sphere")
        first = write_cfg(tmp_path / "a.cfg", tmp_path / "outa")
        second = write_cfg(tmp_path / "b.cfg", tmp_path / "outb",
                           metric={"target": "yang-mills"},
                           data={"family": "snapshot", "path": str(snap),
                                 "ell": None})
        assert main(["simulate", "--config", first, second]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {second}: [data] snapshot ")
        assert "written for metric 'sphere'" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "outa").exists()
        assert not (tmp_path / "outb").exists()

    def test_snapshot_on_another_grid_refused(self, tmp_path, capsys):
        field = make_chain(RadialGrid(20.0, 256), SPHERE, 0.0, [(1, 2.0)])[0]
        snap = tmp_path / "seed.snap"
        write_snapshot(field, snap, "sphere")
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        data={"family": "snapshot", "path": str(snap)},
                        grid={"r_max": "100", "n_points": "1024"})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [data] snapshot {snap} has "
                              f"256 nodes up to r = 20, [grid] asks for "
                              f"1024 up to r_max = 100")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("r psi psi_dot\n1 0 0\n", "not a wavemap snapshot"),
        ("\xff\xfe binary\n", "not a wavemap snapshot"),
        ("# wavemap-snapshot v1\n# metric sphere\n",
         "truncated or malformed header"),
        (SNAP_HEADER, "rows of three numbers"),
        (SNAP_HEADER + "".join(f"{i} 0\n" for i in range(1, 9)),
         "rows of three numbers"),
        (SNAP_HEADER + "1 0 0\n2 x 0\n", "could not convert"),
    ], ids=["header", "binary", "truncated", "no-rows", "two-columns",
            "not-a-number"])
    def test_malformed_snapshot_is_one_line(self, tmp_path, capsys, text,
                                            message):
        snap = tmp_path / "bad.snap"
        snap.write_bytes(text.encode("latin-1"))    # one byte per character
        assert main(["resolve", "--snapshot", str(snap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {snap}: ") and err.count("\n") == 1
        assert message in err
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        data={"family": "snapshot", "path": str(snap)})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [data] {snap}: ")
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()


# every value of the write_cfg base but the output directory, and tokens
# that are malformed, non-finite, nonpositive or merely small: the list has
# no tiny r_max and no large n_points or t_final, so no draw starts a long
# run
BASE_KEYS = [("metric", "target"), ("data", "family"), ("data", "ell"),
             ("data", "amplitude"), ("data", "center"), ("data", "width"),
             ("grid", "r_max"), ("grid", "n_points"), ("time", "t_final"),
             ("time", "record_every"), ("pipeline", "stages")]
TOKENS = ["", "abc", "nan", "inf", "-1", "0", "0.3", "up", "1:", "x:2"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(BASE_KEYS), st.sampled_from(TOKENS),
                       min_size=1, max_size=3))
def test_any_config_runs_or_is_refused_in_one_line(replaced):
    overrides = {}
    for (section, key), token in replaced.items():
        overrides.setdefault(section, {})[key] = token
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        cfg = write_cfg(os.path.join(tmp, "s.cfg"), out, **overrides)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--config", cfg])
        assert code in (0, 1)
        if code == 1:
            err = stderr.getvalue()
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not os.path.exists(out)


class TestSimulate:
    def test_demo_scenario_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out)
        assert main(["simulate", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "status completed" in text
        lines = (out / "series.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert "E_drift" in lines[0]
        cp = ConfigParser()
        cp.read(out / "manifest.cfg")
        frames = cp.getint("trajectory", "frames")
        assert cp.get("trajectory", "status") == "completed"
        assert len(lines) == 1 + frames
        snaps = [n for n in os.listdir(out) if n.endswith(".snap")]
        assert len(snaps) == frames

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write_cfg(tmp_path / f"{name}.cfg", out)
            assert main(["simulate", "--config", cfg]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "series.csv").read_bytes() == \
            (b / "series.csv").read_bytes()
        assert (a / "manifest.cfg").read_bytes() == \
            (b / "manifest.cfg").read_bytes()
        assert (a / "frame-000000.snap").read_bytes() == \
            (b / "frame-000000.snap").read_bytes()

    def test_blowup_truncates_with_exit_zero(self, tmp_path, capsys):
        # steep bubble-plus-spike data concentrates; the run must stop,
        # flag the manifest, and still exit 0
        out = tmp_path / "blow"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "superposition", "ell": "0",
                              "direction": "1", "scale": "1",
                              "amplitude": "2.4", "center": "1.2",
                              "width": "1.0"},
                        grid={"r_max": "6", "n_points": "2048"},
                        time={"t_final": "5.0", "record_every": "16"})
        assert main(["simulate", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "status truncated" in text
        assert "blow-up at t+" in text
        cp = ConfigParser()
        cp.read(out / "manifest.cfg")
        assert cp.get("trajectory", "status") == "truncated"
        assert cp.has_section("blowup")
        assert cp.getfloat("blowup", "t_plus") > 0
        # the store reads back the run bit for bit
        scen = load_scenario(cfg)
        ref = evolve(build_data(scen), scen.metric, scen.t_final,
                     record_every=scen.record_every, cfl=scen.cfl,
                     boundary=scen.boundary)
        back = load_trajectory(str(out))
        assert back.system is SPHERE
        assert back.dt == ref.dt and back.scheme == ref.scheme
        assert len(back.snapshots) == len(ref.snapshots)
        for a, b in zip(ref.snapshots, back.snapshots):
            np.testing.assert_array_equal(a.psi, b.psi)
            np.testing.assert_array_equal(a.psi_dot, b.psi_dot)
            assert a.time == b.time
        assert back.blowup.t_plus == ref.blowup.t_plus
        assert back.blowup.reason == ref.blowup.reason == \
            "energy-concentration"

    def test_batch_of_two_configs(self, tmp_path):
        cfgs = [write_cfg(tmp_path / f"{n}.cfg", tmp_path / f"out{n}")
                for n in ("x", "y")]
        assert main(["simulate", "--config", *cfgs]) == 0
        assert (tmp_path / "outx" / "series.csv").exists()
        assert (tmp_path / "outy" / "series.csv").exists()

    def test_shared_output_refused(self, tmp_path, capsys):
        cfgs = [write_cfg(tmp_path / f"{n}.cfg", tmp_path / "same")
                for n in ("x", "y")]
        assert main(["simulate", "--config", *cfgs]) == 1
        assert "disjoint" in capsys.readouterr().err

    def test_scattering_pipeline_writes_report(self, tmp_path, capsys):
        out = tmp_path / "scat"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "bump", "ell": "0",
                              "amplitude": "0.08", "center": "10",
                              "width": "4"},
                        grid={"r_max": "100", "n_points": "1024"},
                        time={"t_final": "70", "record_every": "16"},
                        pipeline={"stages": "series, scattering"})
        assert main(["simulate", "--config", cfg]) == 0
        assert "scattering t*" in capsys.readouterr().out
        cp = ConfigParser()
        cp.read(out / "scattering.report")
        t_star = cp.getfloat("scattering", "t_star")
        defect = cp.getfloat("scattering", "defect")
        errors = [float(v) for v in cp["match"].values()]
        assert t_star > 55.0
        assert all(e <= 3.0 * defect for e in errors)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traj")
    out = tmp / "run"
    cfg = write_cfg(tmp / "s.cfg", out,
                    time={"t_final": "4.0", "record_every": "8"})
    assert main(["simulate", "--config", cfg]) == 0
    return out


class TestAnalyzeResolve:

    def test_analyze_ops(self, run_dir, capsys):
        assert main(["analyze", "--traj", str(run_dir),
                     "--ops", "select-times,linf,s-norm"]) == 0
        text = capsys.readouterr().out
        assert "select " in text
        assert "linf " in text
        assert "s_norm = " in text

    def test_analyze_series_rewrites(self, run_dir, capsys):
        before = (run_dir / "series.csv").read_bytes()
        assert main(["analyze", "--traj", str(run_dir),
                     "--ops", "series"]) == 0
        assert (run_dir / "series.csv").read_bytes() == before

    def test_analyze_missing_dir_exits_one(self, capsys):
        assert main(["analyze", "--traj", "/no/such/dir",
                     "--ops", "series"]) == 1
        assert "no such trajectory" in capsys.readouterr().err

    def test_analyze_unknown_op(self, run_dir, capsys):
        assert main(["analyze", "--traj", str(run_dir),
                     "--ops", "frobnicate"]) == 1
        assert "unknown op" in capsys.readouterr().err

    def test_resolve_snapshot_two_bubbles(self, tmp_path, capsys):
        grid = RadialGrid(2.0, 2 ** 17)
        field, _, _ = make_chain(grid, SPHERE, 0.0,
                                 [(-1, 1e-1), (-1, 1e-4)])
        snap = tmp_path / "chain.snap"
        write_snapshot(field, snap, "sphere")
        assert main(["resolve", "--snapshot", str(snap)]) == 0
        text = capsys.readouterr().out
        assert "J = 2" in text
        assert "within_bound = True" in text
        cp = ConfigParser()
        cp.read(str(snap) + ".bubbles")
        assert cp.getint("report", "J") == 2
        assert cp.getfloat("bubble 1", "scale") == \
            pytest.approx(1e-1, rel=5e-3)
        assert cp.getfloat("bubble 2", "scale") == \
            pytest.approx(1e-4, rel=1e-3)
        res, metric_id = read_snapshot(str(snap) + ".bubbles.residual")
        assert metric_id == "sphere"
        assert float(np.max(np.abs(res.psi - res.ell_inf))) < 0.1

    def test_resolve_trajectory_scattering(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "bump", "ell": "0",
                              "amplitude": "0.08", "center": "10",
                              "width": "4"},
                        grid={"r_max": "100", "n_points": "1024"},
                        time={"t_final": "70", "record_every": "16"},
                        pipeline={"stages": "series"})
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["resolve", "--traj", str(out)]) == 0
        text = capsys.readouterr().out
        assert "t_star = " in text
        assert (out / "scattering.report").exists()

    def test_resolve_blowup_trajectory(self, tmp_path, capsys):
        out = tmp_path / "blow"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "superposition", "ell": "0",
                              "direction": "1", "scale": "1",
                              "amplitude": "2.4", "center": "1.2",
                              "width": "1.0"},
                        grid={"r_max": "6", "n_points": "2048"},
                        time={"t_final": "5.0", "record_every": "16"})
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["resolve", "--traj", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ell_star = " in text
        cp = ConfigParser()
        cp.read(out / "regular.report")
        ell_star = cp.getfloat("regular", "ell_star")
        assert ell_star == pytest.approx(np.pi, abs=1e-9)
        norms = [float(v) for v in
                 cp.get("regular", "interior_norms").split()]
        assert norms[-1] < norms[0]

    def test_resolve_rewrites_simulate_scattering_report(self, tmp_path,
                                                         capsys):
        # simulate's scattering stage and resolve --traj make one call; the
        # scattering_count key of older configs is no longer read
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "bump", "ell": "0",
                              "amplitude": "0.08", "center": "10",
                              "width": "4"},
                        grid={"r_max": "100", "n_points": "1024"},
                        time={"t_final": "70", "record_every": "16"},
                        pipeline={"stages": "series, scattering",
                                  "scattering_count": "3"})
        assert main(["simulate", "--config", cfg]) == 0
        before = (out / "scattering.report").read_bytes()
        assert main(["resolve", "--traj", str(out)]) == 0
        assert (out / "scattering.report").read_bytes() == before

    def test_pre_asymptotic_store_reports_one_error(self, tmp_path, capsys):
        # two frames of zero data: quiet-time selection has too few frames
        out = tmp_path / "short"
        cfg = write_cfg(tmp_path / "s.cfg", out, data={"amplitude": "0"},
                        pipeline={"stages": "series, scattering"})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{cfg}: error in stage scattering: ")
        assert err.count("\n") == 1
        assert main(["resolve", "--traj", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_resolve_needs_exactly_one_input(self, capsys):
        assert main(["resolve"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_snapshot_family_round_trip(self, tmp_path, capsys):
        grid = RadialGrid(20.0, 256)
        field, _, _ = make_chain(grid, SPHERE, 0.0, [(1, 2.0)])
        snap = tmp_path / "seed.snap"
        write_snapshot(field, snap, "sphere")
        out = tmp_path / "resumed"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "snapshot", "path": str(snap)},
                        time={"t_final": "1.0", "record_every": "64"})
        assert main(["simulate", "--config", cfg]) == 0
        assert "status completed" in capsys.readouterr().out


class TestTopLevel:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_selftest_filter(self, capsys):
        assert main(["selftest", "--filter", "thresholds"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("PASS")
        assert "1 passed, 0 failed" in text

    def test_selftest_unknown_filter(self, capsys):
        assert main(["selftest", "--filter", "zzz"]) == 1
        assert "no selftest matches" in capsys.readouterr().err
