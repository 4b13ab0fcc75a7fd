"""CLI tests: scenario parsing and validation, the four subcommands,
artifact determinism, blow-up truncation status, and exit codes.

Everything runs in-process through cli.main so exits and output are
captured; scenarios are sized to keep each run under a few seconds.
"""

import contextlib
import csv
import io
import os
import re
import shutil
import sys
import tempfile
from configparser import ConfigParser

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavemap.geometry import (SPHERE, Metric, check_assumptions,
                              find_vanishing_set, make_metric)
from wavemap.statics import build_harmonic_map, rescale_Q
from wavemap.evolution import RadialGrid, RadialField, Trajectory, evolve
from wavemap.data import make_bump, make_chain, make_perturbation
from wavemap.diagnostics import (SERIES_COLUMNS, energy,
                                 lightcone_concentration)
from wavemap.resolution import compute_delta0, extract_bubbles
from wavemap import cli, evolution
from wavemap.cli import (main, load_scenario, load_trajectory,
                         save_trajectory, CliError)


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
        if section == "data" and "family" in kv:
            base["data"] = {}   # a family's keys only: no bump keys left
        base.setdefault(section, {}).update(kv)
    cp = ConfigParser()
    for section, kv in base.items():
        # an override of None drops the key
        cp[section] = {k: v for k, v in kv.items() if v is not None}
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


def write_store(field, path, metric=SPHERE):
    """Store one field the way wavemap keeps single fields: as a one-frame
    trajectory."""
    save_trajectory(Trajectory([field], 0.0, "one-frame", 0.0, metric),
                    str(path))
    return path


def _manifest_edit(change):
    def edit(traj):
        manifest = traj / "manifest.cfg"
        manifest.write_text(change(manifest.read_text()))
    return edit


def _blowup_edit(**values):
    """An edit that appends a [blowup] section, finite but for `values`."""
    keys = {"t_plus": "5", "concentration_radius": "0.1",
            "last_valid_time": "4", "reason": "energy-concentration",
            "radius_series": "3.5 0.2 4 0.1", **values}
    return _manifest_edit(lambda text: text + "\n[blowup]\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items()))


def _times_edit(order):
    """An edit that writes the frame times t as order(t)."""
    return _manifest_edit(lambda text: re.sub(
        r"(?m)^times = (.*)$",
        lambda m: "times = " + " ".join(order(m[1].split())), text))


def _frames_edit(change):
    def edit(traj):
        frames = traj / "frames.npy"
        np.save(frames, change(np.load(frames)), allow_pickle=True)
    return edit


def _older_store(traj):
    # an older store is recognized by its file names alone
    (traj / "frame-000000.snap").touch()
    (traj / "frames.npy").unlink()


def _truncate_frames(traj):
    frames = traj / "frames.npy"
    frames.write_bytes(frames.read_bytes()[:-8])


def _cut_frames(traj):
    # a frame cut in half: the file ends mid-frame
    frames = traj / "frames.npy"
    frames.write_bytes(frames.read_bytes()[:-8 * 128])


def _extra_bytes(traj):
    frames = traj / "frames.npy"
    frames.write_bytes(frames.read_bytes() + bytes(8))


def _no_frames(traj):
    # a store that agrees with itself on holding no frame at all
    _manifest_edit(lambda text: re.sub(r"(?m)^times = .*$", "times = ",
                                       re.sub(r"(?m)^frames = .*$",
                                              "frames = 0", text)))(traj)
    _frames_edit(lambda a: a[:0])(traj)


class TestScenarioValidation:
    def test_parse_error_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[metric]\ntarget = sphere\nthis line is garbage\n")
        with pytest.raises(CliError, match="line"):
            load_scenario(str(cfg))

    @pytest.mark.parametrize("edit", [
        lambda text: "garbage\n" + text,
        lambda text: text.replace("[data]\n", "[data]\nnot a key line\n"),
    ], ids=["no-section-header", "garbage-in-section"])
    def test_malformed_config_is_one_line(self, tmp_path, capsys, edit):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out")
        with open(cfg) as fh:
            text = fh.read()
        with open(cfg, "w") as fh:
            fh.write(edit(text))
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: malformed config: ")
        assert err.count("\n") == 1 and "line" in err
        assert not (tmp_path / "out").exists()

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
        assert err.startswith(f"error: {cfg}: [metric] g_prime expression "
                              f"disagrees")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"time": {"dt": "0.2"}}, "CFL violation"),     # 0.5 dr = 0.039
        ({"time": {"dt": "0"}}, "[time] dt = 0 must be positive"),
        ({"time": {"cfl": "0"}}, "[time] cfl = 0 must be positive"),
        ({"time": {"cfl": "-1"}}, "[time] cfl = -1 must be positive"),
        ({"time": {"t_final": "-1"}}, "t_final = -1 must be positive"),
        ({"time": {"record_every": "0"}}, "record_every = 0 must be"),
        ({"time": {"boundary": "periodic"}}, "unknown boundary"),
        ({"data": {"amplitude": None}}, "missing [data] amplitude"),
        ({"metric": {"target": "custom", "id": "m", "g": "sin(rho",
                     "g_prime": "cos(rho)", "window": "-4 4"}},
         "'(' was never closed"),
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
        ({"data": {"velocty": "0.5"}},
         "[data] velocty is read by no data family"),
        ({"grid": {"n_points": "1024.7"}},
         "[grid] n_points = '1024.7' is not an integer"),
        ({"time": {"record_every": "16.9"}},
         "[time] record_every = '16.9' is not an integer"),
        ({"metric": {"target": "custom", "id": "m",
                     "g": "(" * 300 + "sin(rho)" + ")" * 300,
                     "g_prime": "cos(rho)", "window": "-4 4"}},
         "too many nested parentheses"),
        # g'(0) = 3: outside (A3'), so no stage may run on it
        ({"metric": {"target": "custom", "id": "sin3", "g": "sin(3*rho)",
                     "g_prime": "3*cos(3*rho)", "window": "-4 4"},
          "pipeline": {"stages": "series, bubbles, scattering"}},
         "[metric] sin3 fails the hypotheses (A1:ok  A2:ok  A3:FAIL  "
         "A3':FAIL): A3' needs g'(l) in {-2, -1, 1, 2}; g'("),
        # double roots at +-1: outside (A2)
        ({"metric": {"target": "custom", "id": "square",
                     "g": "(1 - rho^2)^2", "g_prime": "-4*rho*(1 - rho^2)",
                     "window": "-2 2"}},
         "[metric] assumption A2 violated: non-simple root"),
        # a connector direction is +1 or -1, not any sign
        ({"data": {"family": "bubble", "ell": "0", "scale": "2",
                   "direction": "0"}},
         "[data] direction = '0' is not +1 or -1"),
        ({"data": {"family": "bubble", "ell": "0", "scale": "2",
                   "direction": "2"}},
         "[data] direction = '2' is not +1 or -1"),
        ({"data": {"family": "superposition", "scale": "2",
                   "amplitude": "0.1", "center": "5", "width": "2.5",
                   "direction": "-3"}},
         "[data] direction = '-3' is not +1 or -1"),
        ({"data": {"family": "chain", "steps": "0:1, 7:0.1"}},
         "steps entry '0:1' is not direction:scale with direction +1 or -1"),
        ({"data": {"family": "chain", "steps": "1:1, 7:0.5"}},
         "steps entry '7:0.5' is not direction:scale with direction +1 or -1"),
        # the bump of a superposition may not reach the origin either
        ({"data": {"family": "superposition", "scale": "1",
                   "amplitude": "0.5", "center": "1", "width": "3"},
          "grid": {"n_points": "1024"}},
         "[data] bump support must avoid the origin"),
        ({"data": {"family": "chain", "steps": "1:0.5, 1:2"},
          "grid": {"n_points": "1024"}},
         "[data] chain steps need decreasing scales"),
        # every section refuses a key that no run reads
        ({"time": {"record_evry": "16"}},
         "[time] record_evry is not read (known: t_final, dt, cfl, "
         "record_every, boundary)"),
        ({"grid": {"rmax": "5"}}, "[grid] rmax is not read"),
        ({"pipeline": {"stagse": "bubbles"}}, "[pipeline] stagse is not read"),
        # the scattering_count key of older configs is no longer read
        ({"pipeline": {"scattering_count": "3"}},
         "[pipeline] scattering_count is not read (known: stages)"),
        ({"output": {"directory": "elsewhere"}},
         "[output] directory is not read"),
        ({"metric": {"id": "sphere"}},
         "[metric] id is not read (known: target)"),
        ({"metric": {"target": "custom", "id": "m", "g": "sin(rho)",
                     "g_prime": "cos(rho)", "window": "-4 4",
                     "slopes": "1"}},
         "[metric] slopes is not read (known: target, id, g, g_prime, "
         "window)"),
        ({"outpt": {"dir": "elsewhere"}},
         "unknown section [outpt] (known: metric, data, grid, time, "
         "pipeline, output)"),
        # a custom id names the scheme and the reports
        ({"metric": {"target": "custom", "id": "", "g": "sin(rho)",
                     "g_prime": "cos(rho)", "window": "-4 4"}},
         "[metric] custom metric id is empty"),
        ({"metric": {"target": "custom", "id": "sphere", "g": "sin(rho)",
                     "g_prime": "cos(rho)", "window": "-4 4"}},
         "[metric] custom metric id 'sphere' names a built-in target"),
        # numpy refuses 73 TiB of nodes before it allocates any
        ({"grid": {"n_points": "10000000000000"}},
         "[grid] n_points = 10000000000000: Unable to allocate"),
        # a cfl beside dt would be read by no run
        ({"time": {"dt": "0.02", "cfl": "0.5"}},
         "[time] gives both dt and cfl; give one"),
    ], ids=["cfl", "dt_zero", "cfl_zero", "cfl_negative", "t_final",
            "record_every", "boundary", "amplitude",
            "expression", "chain", "r_max_nan", "r_max_negative",
            "t_final_inf", "ell_nan", "amplitude_nan", "chain_scale_nan",
            "bump_support", "window_inf", "unread_key", "n_points_fraction",
            "record_every_fraction", "deep_expression", "outside_a3_prime",
            "outside_a2", "direction_0", "direction_2", "direction_-3",
            "chain_direction_0", "chain_direction_7",
            "superposition_bump_support", "chain_scale_order",
            "unread_time_key", "unread_grid_key", "unread_pipeline_key",
            "legacy_scattering_count", "unread_output_key",
            "unread_metric_key", "unread_custom_metric_key",
            "unknown_section", "empty_custom_id", "builtin_custom_id",
            "grid_too_large", "dt_and_cfl"])
    def test_config_error_is_one_line_before_work(self, tmp_path, capsys,
                                                  overrides, message):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out", **overrides)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_a1_heuristic_does_not_gate(self, tmp_path):
        # G of rho / (1 + rho^2) grows like a log: it does go to infinity,
        # but the A1 heuristic fails it, so A1 refuses nothing
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        metric={"target": "custom", "id": "log-growth",
                                "g": "rho / (1 + rho^2)",
                                "g_prime": "(1 - rho^2) / ((1 + rho^2)^2)",
                                "window": "-4 4"})
        scen = load_scenario(cfg)
        assert scen.metric.id == "log-growth"
        assert not check_assumptions(scen.metric).a1

    def test_bubbles_without_a_root_pair_refused(self, tmp_path, capsys):
        # rho / (1 + rho^2) vanishes only at 0 in [-4, 4]: no connector
        # exists, so the bubble stage is refused before the run, not after
        lone = {"target": "custom", "id": "lone",
                "g": "rho / (1 + rho^2)",
                "g_prime": "(1 - rho^2) / ((1 + rho^2)^2)", "window": "-4 4"}
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out", metric=lone,
                        pipeline={"stages": "series, bubbles"})
        assert main(["simulate", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {cfg}: [pipeline] stage bubbles needs two "
                       f"adjacent roots of g; lone has 1 in [-4, 4]\n")
        assert not (tmp_path / "out").exists()
        # without the bubble stage the same target runs
        cfg = write_cfg(tmp_path / "t.cfg", tmp_path / "out", metric=lone)
        assert load_scenario(cfg).metric.id == "lone"

    def test_key_of_another_family_refused(self, tmp_path, capsys):
        # amplitude is a bump key; a bubble would ignore it
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        data={"family": "bubble", "ell": "0", "scale": "2",
                              "amplitude": "0.08"})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {cfg}: [data] amplitude is read by no data "
                       f"family in use (bubble reads ell, scale, "
                       f"direction)\n")
        assert not (tmp_path / "out").exists()

    def test_velocity_meaning_per_family(self, tmp_path):
        # README's family table: psi_t is velocity x the unit bump for
        # bump, velocity x amplitude x the unit bump for superposition
        peaks = {}
        for family, extra in (("bump", {}), ("superposition", {"scale": "1"})):
            cfg = write_cfg(tmp_path / f"{family}.cfg", tmp_path / "out",
                            data={"family": family, "ell": "0",
                                  "amplitude": "0.5", "center": "5",
                                  "width": "2.5", "velocity": "1", **extra})
            peaks[family] = float(np.max(load_scenario(cfg).data.psi_dot))
        assert peaks == {"bump": 1.0, "superposition": 0.5}

    def test_dt_overrides_cfl(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        time={"t_final": "2.0", "dt": "0.0390625"})
        scen = load_scenario(cfg)
        assert scen.cfl == pytest.approx(0.0390625 / scen.data.grid.dr)

    def test_batch_refused_whole(self, tmp_path, capsys):
        # the second config names a snapshot written for another metric,
        # which only building its data finds: the first config must not run
        field = make_chain(RadialGrid(20.0, 256), SPHERE, 0.0, [(1, 2.0)])
        snap = write_store(field, tmp_path / "seed")
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

    def test_snapshot_of_another_custom_metric_refused(self, tmp_path,
                                                       capsys):
        # the two custom metrics share an id; their keys tell them apart
        stored = make_metric("wiggle", "sin(rho)", "cos(rho)", (-7.0, 7.0))
        field = make_chain(RadialGrid(20.0, 256), stored, 0.0, [(1, 2.0)])
        snap = write_store(field, tmp_path / "seed", stored)
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        metric={"target": "custom", "id": "wiggle",
                                "g": "sin(rho) * (1 + 0.5 * sin(rho)^2)",
                                "g_prime": "cos(rho) * (1 + 1.5 * "
                                           "sin(rho)^2)",
                                "window": "-7 7"},
                        data={"family": "snapshot", "path": str(snap)})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {cfg}: [data] snapshot {snap} was written "
                       f"for metric 'wiggle', scenario uses 'wiggle': "
                       f"[metric] g differs\n")
        assert not (tmp_path / "out").exists()

    def test_snapshot_on_another_grid_refused(self, tmp_path, capsys):
        field = make_chain(RadialGrid(20.0, 256), SPHERE, 0.0, [(1, 2.0)])
        snap = write_store(field, tmp_path / "seed")
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

    @pytest.mark.parametrize("edit, where, message", [
        (_manifest_edit(lambda text: text.split("\n", 1)[1]),
         "manifest.cfg",
         "malformed manifest: File contains no section headers"),
        (lambda store: (store / "manifest.cfg").write_bytes(
            b"\xff\xfe binary\n"), "manifest.cfg", "malformed manifest: "),
        (_truncate_frames, "frames.npy", "unreadable: "),
        (lambda store: (store / "frames.npy").unlink(), "frames.npy",
         "unreadable: "),
        (_frames_edit(lambda a: a[:, :1]), "frames.npy",
         "manifest.cfg says float64 (1, 2, 256)"),
        (_manifest_edit(lambda text: re.sub(r"(?m)^ell0 = .*$", "ell0 = x",
                                            text)),
         "manifest.cfg",
         "malformed manifest: could not convert string to float: 'x'"),
    ], ids=["header", "binary", "truncated", "no-rows", "two-columns",
            "not-a-number"])
    def test_malformed_snapshot_is_one_line(self, tmp_path, capsys, edit,
                                            where, message):
        # a store defect is refused in one line by both readers of a
        # single field: resolve --snapshot and family = snapshot
        field = make_chain(RadialGrid(20.0, 256), SPHERE, 0.0, [(1, 2.0)])
        snap = write_store(field, tmp_path / "seed")
        edit(snap)
        assert main(["resolve", "--snapshot", str(snap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {snap / where}: ")
        assert err.count("\n") == 1 and message in err, err
        assert not (snap / "bubbles.report").exists()
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "out",
                        data={"family": "snapshot", "path": str(snap)})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [data] {snap / where}: ")
        assert err.count("\n") == 1 and message in err, err
        assert not (tmp_path / "out").exists()

    def test_inexact_grid_seed_keeps_its_grid(self, tmp_path):
        # 1500 * (7 / 1500) != 7: the seed's grid is the one [grid] names
        grid = RadialGrid(7.0, 1500)
        snap = write_store(make_bump(grid, SPHERE, 0.0, amplitude=0.1,
                                     center=3.5, width=1.5, velocity=0.0),
                           tmp_path / "seed")
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "snapshot", "path": str(snap)},
                        grid={"r_max": "7", "n_points": "1500"},
                        time={"t_final": "0.1", "record_every": "64"})
        assert main(["simulate", "--config", cfg]) == 0
        cp = ConfigParser()
        cp.read(out / "manifest.cfg")
        assert cp.get("trajectory", "r_max") == "7"
        with load_trajectory(str(out)).snapshots as frames:
            assert frames[0].grid == grid


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


DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                    "sphere-small-data.cfg")


def _demo_edit(tmp_path, old, new):
    """The demo config with the line `old` made `new`, writing its run
    to tmp_path / "out"."""
    with open(DEMO) as fh:
        text = fh.read()
    assert text.count(old + "\n") == 1
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(text.replace(old + "\n", new + "\n").replace(
        "dir = out/sphere-small-data", f"dir = {tmp_path / 'out'}"))
    return str(cfg)


class TestDemoEdits:
    """Demo configs that load_scenario refuses in one line, before any
    file is written, where they once ran and crashed."""

    @pytest.mark.parametrize("old, new, steps", [
        ("cfl = 0.5", "cfl = 0.5e-300", "1.43e+303"),
        ("t_final = 70", "t_final = 1e300", "2.05e+301"),
        ("r_max = 100", "r_max = 1e-300", "1.43e+305"),
    ], ids=["cfl", "t_final", "r_max"])
    def test_a_step_count_no_index_holds_is_refused(self, tmp_path, capsys,
                                                     old, new, steps):
        cfg = _demo_edit(tmp_path, old, new)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: [time] t_final = ")
        assert f" takes {steps} steps of dt = " in err
        assert err.endswith(f", more than the {sys.maxsize} a run can "
                            f"count\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_data_of_infinite_energy_is_refused(self, tmp_path, capsys):
        # the field values are finite, their gradient energy is not
        cfg = _demo_edit(tmp_path, "amplitude = 0.08", "amplitude = 1e200")
        assert main(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: [data] the initial energy is inf; the flow is "
            f"run for maps of finite energy\n")
        assert not (tmp_path / "out").exists()

    def test_data_of_finite_energy_runs(self, tmp_path, capsys):
        cfg = _demo_edit(tmp_path, "amplitude = 0.08", "amplitude = 1e150")
        scen = load_scenario(cfg)
        assert energy(scen.data, scen.metric).total == \
            pytest.approx(7.527e300, rel=1e-3)
        assert main(["simulate", "--config", cfg]) == 0
        assert "status truncated, 4 frames" in capsys.readouterr().out


class TestSimulate:
    def test_demo_config_builds_no_connector(self, tmp_path):
        # the demo finds no bubble; its thresholds come from quadratures
        compute_delta0.cache_clear()
        before = build_harmonic_map.cache_info()
        assert main(["simulate", "--config", DEMO,
                     "--out", str(tmp_path / "demo")]) == 0
        after = build_harmonic_map.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert "j = 0" in (tmp_path / "demo" / "bubbles.report").read_text()

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
        stored = np.load(out / "frames.npy", allow_pickle=False)
        assert stored.dtype == np.float64
        assert stored.shape == (frames, 2, 256)
        assert not [n for n in os.listdir(out) if n.endswith(".snap")]

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write_cfg(tmp_path / f"{name}.cfg", out)
            assert main(["simulate", "--config", cfg]) == 0
            outs.append(out)
        a, b = outs
        for name in ("series.csv", "manifest.cfg", "frames.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        # the streamed store is np.save of the stacked frames, byte for byte
        scen = load_scenario(cfg)
        ref = evolve(scen.data, scen.metric, scen.t_final,
                     record_every=scen.record_every, cfl=scen.cfl)
        buf = io.BytesIO()
        np.save(buf, np.stack([(s.psi, s.psi_dot) for s in ref.snapshots]))
        assert (a / "frames.npy").read_bytes() == buf.getvalue()

    def test_a_run_that_raises_leaves_the_old_store(self, tmp_path,
                                                    monkeypatch):
        # frames stream into a part file that replaces frames.npy only
        # once the run is over, and the manifest follows it
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        time={"t_final": "4.0", "record_every": "8"})
        assert main(["simulate", "--config", cfg]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        advance = evolution._advance

        def faulty(*args, **kwargs):
            for k, stop in enumerate(advance(*args, **kwargs)):
                if k == 3:
                    raise RuntimeError("kernel fault")
                yield stop
        monkeypatch.setattr(evolution, "_advance", faulty)
        cfg = write_cfg(tmp_path / "t.cfg", out,
                        data={"family": "bump", "amplitude": "0.05",
                              "center": "5", "width": "2.5"},
                        time={"t_final": "4.0", "record_every": "8"})
        with pytest.raises(RuntimeError, match="kernel fault"):
            main(["simulate", "--config", cfg])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_header_that_outgrows_its_room_leaves_the_old_store(
            self, tmp_path, monkeypatch, capsys):
        # the header is written at commit, into the room the first frame
        # left; one that does not fit is refused and the old store stays
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        time={"t_final": "4.0", "record_every": "8"})
        assert main(["simulate", "--config", cfg]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        header = evolution._header
        monkeypatch.setattr(evolution, "_header", lambda n_frames, n_points:
                            header(n_frames, n_points) + b" " * 64 * n_frames)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'frames.npy'}: the header of ")
        assert err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_part_file_that_cannot_be_written_is_one_line(self, tmp_path,
                                                            capsys):
        out = tmp_path / "run"
        (out / "frames.npy.part").mkdir(parents=True)
        cfg = write_cfg(tmp_path / "s.cfg", out)
        assert main(["simulate", "--config", cfg]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == f"error: {out / 'frames.npy.part'}: cannot write the " \
            f"frames: Is a directory\n"
        assert sorted(p.name for p in out.iterdir()) == ["frames.npy.part"]

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
                        time={"t_final": "5.0", "record_every": "16"},
                        pipeline={"stages": "series, scattering"})
        assert main(["simulate", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "status truncated" in text
        assert "blow-up at t+" in text
        assert f"{cfg}: skipped scattering (blow-up)\n" in text
        assert not (out / "scattering.report").exists()
        cp = ConfigParser()
        cp.read(out / "manifest.cfg")
        assert cp.get("trajectory", "status") == "truncated"
        assert cp.has_section("blowup")
        assert cp.getfloat("blowup", "t_plus") > 0
        # the store reads back the run bit for bit
        scen = load_scenario(cfg)
        ref = evolve(scen.data, scen.metric, scen.t_final,
                     record_every=scen.record_every, cfl=scen.cfl,
                     boundary=scen.boundary)
        back = load_trajectory(str(out))
        assert back.system is SPHERE
        assert back.dt == ref.dt and back.scheme == ref.scheme
        assert len(back.snapshots) == len(ref.snapshots)
        with back.snapshots:
            for a, b in zip(ref.snapshots, back.snapshots):
                np.testing.assert_array_equal(a.psi, b.psi)
                np.testing.assert_array_equal(a.psi_dot, b.psi_dot)
                assert a.time == b.time
        assert back.blowup.t_plus == ref.blowup.t_plus
        assert back.blowup.reason == ref.blowup.reason == \
            "energy-concentration"
        assert len(ref.blowup.radius_series) > 3
        assert back.blowup.radius_series == ref.blowup.radius_series
        # the run stopped short of t_final, and the store is np.save of
        # the frames it made
        assert ref.snapshots[-1].time < scen.t_final
        buf = io.BytesIO()
        np.save(buf, np.stack([(s.psi, s.psi_dot) for s in ref.snapshots]))
        assert (out / "frames.npy").read_bytes() == buf.getvalue()

    def test_batch_of_two_configs(self, tmp_path):
        cfgs = [write_cfg(tmp_path / f"{n}.cfg", tmp_path / f"out{n}")
                for n in ("x", "y")]
        assert main(["simulate", "--config", *cfgs]) == 0
        assert (tmp_path / "outx" / "series.csv").exists()
        assert (tmp_path / "outy" / "series.csv").exists()

    def test_store_path_that_is_a_file_refused(self, tmp_path, capsys):
        # an older wavemap wrote the bubble residual as a file; a store
        # cannot take its place
        out = tmp_path / "run"
        out.mkdir()
        (out / "bubbles.report.residual").write_text("")
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        pipeline={"stages": "series, bubbles"})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out / 'bubbles.report.residual'}: exists " \
            f"and is not a directory; simulate writes a store directory\n"

    @pytest.mark.parametrize("batch, blocked, blocker", [
        (False, "", "file"), (True, "", "file"),
        (False, "bubbles.report.residual", "file"),
        (False, "series.csv", "dir"), (False, "bubbles.report", "dir")],
        ids=["False", "True", "residual", "series", "report"])
    def test_output_path_that_is_a_file_refused_before_evolve(
            self, tmp_path, capsys, monkeypatch, batch, blocked, blocker):
        # a batch writes to <out>/<config stem>, under the file; the bubble
        # stage writes its residual store inside the output directory; a
        # directory cannot take the place of a file simulate writes there
        def no_run(*args, **kwargs):
            raise AssertionError("evolve ran")
        monkeypatch.setattr(cli, "evolve", no_run)
        out = tmp_path / "afile"
        if blocked:
            out.mkdir()
        path = out / blocked if blocked else out
        if blocker == "file":
            path.write_text("kept")
            message = "exists and is not a directory; simulate writes a " \
                "store directory"
        else:
            path.mkdir()
            message = "exists and is not a regular file; simulate writes " \
                "a file there"
        cfgs = [write_cfg(tmp_path / f"{n}.cfg", tmp_path / f"out{n}",
                          pipeline={"stages": "series, bubbles"})
                for n in ("x", "y")[:1 + batch]]
        assert main(["simulate", "--config", *cfgs,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        if blocker == "file":
            assert path.read_text() == "kept"
        if blocked:
            assert os.listdir(out) == [blocked]

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

    def test_scattering_matches_frames_whose_cut_is_inside(self, tmp_path,
                                                           capsys):
        # the run goes on past t = 2 r_max, where the cut r = t/2 leaves
        # the grid
        out = tmp_path / "long"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "bump", "ell": "0",
                              "amplitude": "0.05", "center": "5",
                              "width": "2"},
                        time={"t_final": "60", "record_every": "8"},
                        pipeline={"stages": "series, scattering"})
        assert main(["simulate", "--config", cfg]) == 0
        assert "scattering t* = 27.8125" in capsys.readouterr().out
        cp = ConfigParser()
        cp.read(out / "scattering.report")
        times = [float(t) for t in cp["match"]]
        assert (times[0], times[-1]) == (27.8125, 39.6875)
        assert main(["resolve", "--traj", str(out)]) == 0


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
                     "--ops", "linf,s-norm"]) == 0
        text = capsys.readouterr().out
        assert "linf " in text
        assert "s_norm = " in text
        # the store ends at t = 4, before the bump reaches the inner cone
        assert main(["analyze", "--traj", str(run_dir),
                     "--ops", "select-times"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: pre-asymptotic: latest stored time")

    def test_select_times_op_is_the_scattering_selection(self, tmp_path,
                                                         capsys):
        # the op selects in the scattering stage's asymptotic window,
        # t >= 4 x the data's support radius, so both pick the same times
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        grid={"r_max": "80", "n_points": "512"},
                        time={"t_final": "40", "record_every": "8"},
                        pipeline={"stages": "scattering"})
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["analyze", "--traj", str(out),
                     "--ops", "select-times"]) == 0
        times = [line.split()[1]
                 for line in capsys.readouterr().out.splitlines()]
        report = ConfigParser()
        report.read(out / "scattering.report")
        assert len(times) == 5
        assert " ".join(times) == report.get("scattering", "selected_times")

    def test_analyze_series_rewrites(self, run_dir, capsys):
        before = (run_dir / "series.csv").read_bytes()
        assert main(["analyze", "--traj", str(run_dir),
                     "--ops", "series"]) == 0
        assert (run_dir / "series.csv").read_bytes() == before

    def test_analyze_series_rewrites_on_inexact_grid(self, tmp_path, capsys):
        # 1500 * (7 / 1500) != 7: the store keeps r_max, not the last node
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"center": "3.5", "width": "1.5"},
                        grid={"r_max": "7", "n_points": "1500"},
                        time={"t_final": "5", "record_every": "32"})
        assert 1500 * (7 / 1500) != 7
        assert main(["simulate", "--config", cfg]) == 0
        before = (out / "series.csv").read_bytes()
        assert main(["analyze", "--traj", str(out), "--ops", "series"]) == 0
        assert (out / "series.csv").read_bytes() == before
        with load_trajectory(str(out)).snapshots as frames:
            assert frames[0].grid == load_scenario(cfg).data.grid

    def test_custom_metric_store_reads_back(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        metric={"target": "custom", "id": "wiggle",
                                "g": "sin(rho) + 0.1*sin(rho)^3",
                                "g_prime":
                                    "cos(rho) + 0.3*sin(rho)^2*cos(rho)",
                                "window": "-7 7"},
                        data={"amplitude": "0.08", "center": "10",
                              "width": "4"},
                        grid={"r_max": "100", "n_points": "1024"},
                        time={"t_final": "70", "record_every": "16"},
                        pipeline={"stages": "series, scattering"})
        assert main(["simulate", "--config", cfg]) == 0
        series = (out / "series.csv").read_bytes()
        report = (out / "scattering.report").read_bytes()
        back = load_trajectory(str(out))
        back.snapshots.close()
        assert back.system.id == "wiggle"
        capsys.readouterr()
        assert main(["analyze", "--traj", str(out), "--ops",
                     ",".join(cli.OPS)]) == 0
        assert "s_norm = " in capsys.readouterr().out
        assert (out / "series.csv").read_bytes() == series
        assert main(["resolve", "--traj", str(out)]) == 0
        assert "t_star = " in capsys.readouterr().out
        assert (out / "scattering.report").read_bytes() == report

    def test_analyze_refuses_before_any_op_runs(self, tmp_path, capsys):
        # select-times needs 10 frames; the series op listed before it
        # must neither print nor write series.csv
        out = tmp_path / "short"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        time={"t_final": "2.0", "record_every": "16"})
        assert main(["simulate", "--config", cfg]) == 0
        cp = ConfigParser()
        cp.read(out / "manifest.cfg")
        assert cp.getint("trajectory", "frames") < 10
        (out / "series.csv").unlink()
        capsys.readouterr()
        assert main(["analyze", "--traj", str(out), "--ops",
                     "series,select-times,lightcone"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not (out / "series.csv").exists()

    @pytest.mark.parametrize("argv, blocked", [
        (["analyze", "--ops", "series", "--traj"], "series.csv"),
        (["resolve", "--traj"], "scattering.report"),
        (["resolve", "--snapshot"], "bubbles.report"),
        (["resolve", "--snapshot"], "bubbles.report.residual/frames.npy")],
        ids=["analyze-series", "resolve-traj", "resolve-snapshot",
             "resolve-residual"])
    def test_output_path_that_is_a_directory_refused_before_work(
            self, tmp_path, capsys, monkeypatch, argv, blocked):
        def no_run(*args, **kwargs):
            raise AssertionError("work ran")
        for name in ("write_series", "build_scattering_state",
                     "extract_bubbles"):
            monkeypatch.setattr(cli, name, no_run)
        field = make_bump(RadialGrid(20.0, 256), SPHERE, 0.0, amplitude=0.1,
                          center=5.0, width=2.0, velocity=0.0)
        store = write_store(field, tmp_path / "store")
        (store / blocked).mkdir(parents=True)
        before = sorted(os.listdir(store))
        assert main([*argv, str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {store / blocked}: exists and is "
                                f"not a regular file; {argv[0]} writes a "
                                f"file there\n")
        assert sorted(os.listdir(store)) == before

    @pytest.mark.parametrize("argv", [
        ["analyze", "--ops", "linf", "--traj"],
        ["analyze", "--ops", "s-norm", "--traj"],
        ["resolve", "--traj"], ["resolve", "--snapshot"]],
        ids=["linf", "s-norm", "resolve-traj", "resolve-snapshot"])
    @pytest.mark.parametrize("metric, edit, message", [
        (make_metric("sin3", "sin(3*rho)", "3*cos(3*rho)", (-4.0, 4.0)),
         lambda store: None,
         "[metric] sin3 fails the hypotheses (A1:ok  A2:ok  A3:FAIL  "
         "A3':FAIL): A3' needs"),
        (SPHERE, _no_frames,
         "malformed manifest: [trajectory] frames = 0 must be at least 1"),
    ], ids=["outside-a3-prime", "no-frames"])
    def test_refused_store_is_one_line(self, tmp_path, capsys, argv, metric,
                                       edit, message):
        # every reader of a store goes through load_trajectory's refusals
        grid = RadialGrid(20.0, 256)
        store = write_store(RadialField(grid, np.zeros(256), np.zeros(256),
                                        0.0, 0.0), tmp_path / "store", metric)
        edit(store)
        before = sorted(os.listdir(store))
        assert main([*argv, str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {store / 'manifest.cfg'}: {message}")
        assert captured.err.count("\n") == 1
        assert sorted(os.listdir(store)) == before

    def test_analyze_missing_dir_exits_one(self, capsys):
        assert main(["analyze", "--traj", "/no/such/dir",
                     "--ops", "series"]) == 1
        assert "no such trajectory" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, where, message", [
        (_manifest_edit(lambda text: text.split("\n", 1)[1]),
         "manifest.cfg",
         "malformed manifest: File contains no section headers"),
        (_manifest_edit(lambda text: text.replace("[trajectory]", "[run]")),
         "manifest.cfg", "malformed manifest: No section: 'trajectory'"),
        (_manifest_edit(lambda text: re.sub(r"(?m)^dt = .*$", "dt = fast",
                                            text)),
         "manifest.cfg",
         "malformed manifest: could not convert string to float: 'fast'"),
        (_manifest_edit(lambda text: re.sub(r"(?m)^cfl = .*$", "cfl = half",
                                            text)),
         "manifest.cfg",
         "malformed manifest: could not convert string to float: 'half'"),
        # a step or CFL number that the run could not have taken
        (_manifest_edit(lambda text: re.sub(
            r"(?m)^dt = (.*)$", lambda m: f"dt = {4 * float(m[1])!r}", text)),
         "manifest.cfg", "malformed manifest: [trajectory] CFL violation: "
                         "dt = 0.15625 exceeds 0.5 dr"),
        (_manifest_edit(lambda text: re.sub(r"(?m)^cfl = .*$", "cfl = 0.9",
                                            text)),
         "manifest.cfg", "malformed manifest: [trajectory] cfl = 0.9 is not "
                         "dt / dr = 0.5"),
        (_manifest_edit(lambda text: re.sub(r"(?m)^cfl = .*$", "cfl = -0.5",
                                            text)),
         "manifest.cfg", "malformed manifest: [trajectory] cfl = -0.5 is "
                         "not dt / dr = 0.5"),
        *((_manifest_edit(lambda text, key=key: re.sub(
            rf"(?m)^{key} = .*\n", "", text)),
           "manifest.cfg",
           f"malformed manifest: No option '{key}' in section: 'trajectory'")
          for key in ("r_max", "n_points", "ell0", "ell_inf", "times")),
        (_manifest_edit(lambda text: re.sub(r"(?m)^(times = .*) \S+$",
                                            r"\1", text)),
         "manifest.cfg", "malformed manifest: [trajectory] times holds"),
        (_manifest_edit(lambda text: re.sub(r"(?m)^r_max = .*$",
                                            "r_max = nan", text)),
         "manifest.cfg", "malformed manifest: 'nan' is not a finite number"),
        (_manifest_edit(lambda text: re.sub(r"(?m)^ell0 = .*$", "ell0 = nan",
                                            text)),
         "manifest.cfg", "malformed manifest: 'nan' is not a finite number"),
        (_manifest_edit(lambda text: re.sub(r"(?m)^(times = \S+) \S+",
                                            r"\1 inf", text)),
         "manifest.cfg", "malformed manifest: 'inf' is not a finite number"),
        *((_blowup_edit(**{key: value}), "manifest.cfg",
           f"malformed manifest: '{value.split()[0]}' is not a finite "
           f"number")
          for key, value in (("t_plus", "nan"), ("t_plus", "inf"),
                             ("last_valid_time", "nan"),
                             ("radius_series", "inf 0.1"))),
        (_older_store, "", "frame-*.snap store from an older wavemap; "
                           "re-simulate it"),
        (_frames_edit(lambda a: a.astype(np.float32)), "frames.npy",
         "holds float32"),
        (_frames_edit(lambda a: a[:-1]), "frames.npy", "manifest.cfg says"),
        (_frames_edit(lambda a: a[:, :, ::2]), "frames.npy",
         "manifest.cfg says"),
        (_truncate_frames, "frames.npy", "unreadable: "),
        (_frames_edit(lambda a: a.astype(object)), "frames.npy",
         "allow_pickle=False"),
        (_no_frames, "manifest.cfg",
         "malformed manifest: [trajectory] frames = 0 must be at least 1"),
        # times out of order (s-norm's quadrature once went complex on
        # them), and blow-up records that do not end at the run's last
        # frame, t = 4.0234375, before t_plus
        *((edit, "manifest.cfg", "malformed manifest: [trajectory] times "
                                 "must increase, and [blowup] "
                                 "last_valid_time be the last of them, "
                                 "before t_plus")
          for edit in (_times_edit(lambda t: t[::-1]),
                       _times_edit(lambda t: [t[1], t[0], *t[2:]]),
                       _times_edit(lambda t: [t[0], *t[:-1]]),
                       _blowup_edit(),
                       _blowup_edit(t_plus="4.0234375",
                                    last_valid_time="4.0234375"),
                       _blowup_edit(t_plus="1", last_valid_time="4.0234375"))),
    ], ids=["no-header", "no-trajectory-section", "dt", "cfl",
            "dt-past-cfl-bound", "cfl-not-dt-over-dr", "cfl-negative",
            "no-r_max", "no-n_points", "no-ell0", "no-ell_inf", "no-times",
            "times-count", "r_max-nan", "ell0-nan", "times-inf",
            "t_plus-nan", "t_plus-inf", "last_valid_time-nan",
            "radius_series-inf", "older-store", "frames-dtype",
            "frames-count", "frames-nodes", "frames-truncated",
            "frames-object", "no-frames", "times-reversed", "times-swapped",
            "times-repeated", "last_valid_time-not-last", "t_plus-at-end",
            "t_plus-before-end"])
    def test_malformed_manifest_is_one_line(self, run_dir, tmp_path, capsys,
                                            edit, where, message):
        traj = tmp_path / "run"
        shutil.copytree(run_dir, traj)
        edit(traj)
        (traj / "series.csv").unlink()
        assert main(["analyze", "--traj", str(traj), "--ops", "series"]) == 1
        err = capsys.readouterr().err
        # where = "" names the directory itself
        assert err.startswith(f"error: {traj / where}: ")
        assert err.count("\n") == 1 and message in err, err
        assert not (traj / "series.csv").exists()

    @pytest.mark.parametrize("dt", ["0", "-0.01"])
    def test_step_that_is_not_positive_is_refused(self, run_dir, tmp_path,
                                                  dt):
        # select_times halves its dyadic windows down to 4 dt, so a step
        # <= 0 would never end its loop
        traj = tmp_path / "run"
        shutil.copytree(run_dir, traj)
        _manifest_edit(lambda text: re.sub(r"(?m)^dt = .*$", f"dt = {dt}",
                                           text))(traj)
        with pytest.raises(CliError, match=rf"malformed manifest: "
                                           rf"\[trajectory\] dt = {dt} "
                                           rf"must be positive"):
            load_trajectory(str(traj))

    def test_one_frame_store_keeps_its_zero_step(self, tmp_path):
        grid = RadialGrid(20.0, 256)
        store = write_store(RadialField(grid, np.zeros(256), np.zeros(256),
                                        0.0, 0.0), tmp_path / "store")
        assert "\ndt = 0\n" in (store / "manifest.cfg").read_text()
        traj = load_trajectory(str(store))
        with traj.snapshots:
            assert traj.dt == 0.0

    def test_s_norm_of_one_frame_is_one_line(self, tmp_path, capsys):
        # the S-norm integrates over the frame times, so it needs two
        grid = RadialGrid(20.0, 256)
        store = write_store(RadialField(grid, np.zeros(256), np.zeros(256),
                                        0.0, 0.0), tmp_path / "store")
        assert main(["analyze", "--traj", str(store), "--ops",
                     "s-norm"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: need at least two frames\n"

    @pytest.mark.parametrize("edit", [_cut_frames, _extra_bytes],
                             ids=["cut-mid-frame", "extra-bytes"])
    def test_frames_of_the_wrong_size_are_refused_before_any_op(
            self, run_dir, tmp_path, capsys, edit):
        # frames are read one at a time, so the file's size is checked
        # against its header when the store is opened
        traj = tmp_path / "run"
        shutil.copytree(run_dir, traj)
        edit(traj)
        assert main(["analyze", "--traj", str(traj), "--ops",
                     "linf,s-norm,series"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {traj / 'frames.npy'}: unreadable: ")
        assert err.count("\n") == 1, err

    def test_lightcone_fractions_match_series_off_zero(self, tmp_path,
                                                       capsys):
        # a run hanging from pi: lightcone and series.csv both measure the
        # equipartition of psi - pi; a zero-amplitude run has a zero norm,
        # whose fractions both give as nan
        for name, data, fractions in (("pi", {"ell": repr(np.pi)}, None),
                                      ("zero", {"amplitude": "0"},
                                       ["nan", "nan"])):
            out = tmp_path / name
            cfg = write_cfg(tmp_path / f"{name}.cfg", out, data=data,
                            time={"t_final": "4.0", "record_every": "8"})
            assert main(["simulate", "--config", cfg]) == 0
            capsys.readouterr()
            assert main(["analyze", "--traj", str(out),
                         "--ops", "lightcone"]) == 0
            rows = [line.split()
                    for line in capsys.readouterr().out.splitlines()]
            with open(out / "series.csv") as fh:
                series = list(csv.DictReader(fh))
            assert len(rows) == len(series) > 2
            for row, frame in zip(rows, series):
                assert row[1] == frame["t"]
                assert row[-2:] == [frame["Hl_fraction"],
                                    frame["kin_fraction"]]
                assert fractions in (None, row[-2:])

    def test_lightcone_marks_boundary_tainted_rows(self, tmp_path, capsys):
        # a row is flagged once its shell or the run's domain of
        # dependence reaches r_max, and ends in the word the exterior
        # report uses; the other rows print as they always have
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out, time={"t_final": "20"})
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["analyze", "--traj", str(out),
                     "--ops", "lightcone"]) == 0
        lines = capsys.readouterr().out.splitlines()
        traj = load_trajectory(str(out))
        with traj.snapshots:
            rows = lightcone_concentration(traj, 10.0)
        assert len(lines) == len(rows)
        flags = [row.boundary_tainted for row in rows]
        assert any(flags) and not all(flags)
        for line, row in zip(lines, rows):
            assert line.endswith(" boundary-tainted") == row.boundary_tainted
            assert len(line.split()) == 6 + row.boundary_tainted

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lightcone_past_the_grid_is_quiet(self, tmp_path, capsys):
        # from t - A > r_max on, the part inside the shell is the whole
        # grid: no interval reaches past it, so nothing is clipped
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        grid={"r_max": "20", "n_points": "512"},
                        time={"t_final": "40", "record_every": "64"})
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["analyze", "--traj", str(out), "--ops", "lightcone",
                     "--A", "5"]) == 0
        times = [float(line.split()[1])
                 for line in capsys.readouterr().out.splitlines()]
        traj = load_trajectory(str(out))
        with traj.snapshots:
            assert times == list(traj.times)
        assert max(times) - 5 > 20

    def test_analyze_unknown_op(self, run_dir, capsys):
        assert main(["analyze", "--traj", str(run_dir),
                     "--ops", "frobnicate"]) == 1
        assert "unknown op" in capsys.readouterr().err

    def test_analyze_unknown_op_before_the_store(self, tmp_path, capsys):
        assert main(["analyze", "--traj", str(tmp_path / "no-such-dir"),
                     "--ops", "frobnicate"]) == 1
        assert capsys.readouterr().err == \
            f"error: unknown op 'frobnicate' (known: {', '.join(cli.OPS)})\n"

    @pytest.mark.parametrize("ops", [",", " ", ", ,"])
    def test_analyze_no_op_is_refused(self, run_dir, capsys, ops):
        assert main(["analyze", "--traj", str(run_dir), "--ops", ops]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --ops {ops!r} names no op (known: " \
            f"{', '.join(cli.OPS)})\n"

    def test_resolve_snapshot_two_bubbles(self, tmp_path, capsys):
        grid = RadialGrid(2.0, 2 ** 17)
        field = make_chain(grid, SPHERE, 0.0, [(-1, 1e-1), (-1, 1e-4)])
        snap = write_store(field, tmp_path / "chain")
        assert main(["resolve", "--snapshot", str(snap)]) == 0
        text = capsys.readouterr().out
        assert "J = 2" in text
        assert "within_bound = True" in text
        cp = ConfigParser()
        cp.read(snap / "bubbles.report")
        assert cp.getint("report", "J") == 2
        assert cp.getfloat("bubble 1", "scale") == \
            pytest.approx(1e-1, rel=5e-3)
        assert cp.getfloat("bubble 2", "scale") == \
            pytest.approx(1e-4, rel=1e-3)
        residual = load_trajectory(str(snap / "bubbles.report.residual"))
        assert residual.system is SPHERE
        with residual.snapshots:
            res, = residual.snapshots
        assert float(np.max(np.abs(res.psi - res.ell_inf))) < 0.1

    def test_custom_metric_residual_resolves(self, tmp_path, capsys):
        # the bubble stage stores its residual with the run's metric keys,
        # so the residual of a custom target resolves in turn
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        metric={"target": "custom", "id": "wiggle",
                                "g": "sin(rho) + 0.1*sin(rho)^3",
                                "g_prime":
                                    "cos(rho) + 0.3*sin(rho)^2*cos(rho)",
                                "window": "-7.0 7"},
                        pipeline={"stages": "series, bubbles"})
        assert main(["simulate", "--config", cfg]) == 0
        run = load_trajectory(str(out))
        store = out / "bubbles.report.residual"
        residual = load_trajectory(str(store))
        assert residual.system.keys == run.system.keys
        assert dict(run.system.keys)["window"] == "-7 7"
        with run.snapshots, residual.snapshots:
            res, = residual.snapshots
            ref = extract_bubbles(run.snapshots[-1], run.system).residual
        np.testing.assert_array_equal(res.psi, ref.psi)
        np.testing.assert_array_equal(res.psi_dot, ref.psi_dot)
        assert (res.grid, res.ell0, res.ell_inf, res.time) == \
            (ref.grid, ref.ell0, ref.ell_inf, ref.time)
        capsys.readouterr()
        assert main(["resolve", "--snapshot", str(store)]) == 0
        assert "J = 0" in capsys.readouterr().out
        assert (store / "bubbles.report").is_file()

    def test_metric_without_keys_refused_before_writing(self, tmp_path):
        # a Metric built by hand has no [metric] keys, and a store without
        # them cannot be read back
        bare = Metric("bare", np.sin, np.cos, (-4.0, 4.0))
        field = make_chain(RadialGrid(20.0, 256), bare, 0.0, [(1, 2.0)])
        with pytest.raises(CliError, match="get_metric or make_metric"):
            write_store(field, tmp_path / "bare", bare)
        assert not (tmp_path / "bare").exists()

    def test_linear_flow_refused_before_writing(self, tmp_path):
        # a Root has no [metric] keys at all: the refusal is the same line
        root = find_vanishing_set(SPHERE).root_at(0.0)
        field = make_perturbation(RadialGrid(20.0, 256), 0.1, 5.0, 2.5)
        traj = evolve(field, root, 0.5, record_every=8)
        with pytest.raises(CliError, match="has no \\[metric\\] keys"):
            save_trajectory(traj, str(tmp_path / "linear"))
        assert not (tmp_path / "linear").exists()

    def test_store_io_runs_through_the_frame_functions(self, tmp_path,
                                                       monkeypatch):
        # the benchmark times frame I/O as evolution.write_snapshot and
        # read_snapshot, so every store must be written and read by them
        calls = []
        for name, at in (("write_snapshot", 1), ("read_snapshot", 0)):
            def spy(*args, name=name, at=at, original=getattr(cli, name)):
                calls.append((name, os.path.relpath(args[at], tmp_path)))
                return original(*args)
            monkeypatch.setattr(cli, name, spy)
        cfg = write_cfg(tmp_path / "s.cfg", tmp_path / "run",
                        pipeline={"stages": "series, bubbles"})
        assert main(["simulate", "--config", cfg]) == 0
        assert calls == [
            ("write_snapshot", os.path.join("run", "frames.npy")),
            ("write_snapshot", os.path.join("run", "bubbles.report.residual",
                                            "frames.npy"))]
        del calls[:]
        assert main(["analyze", "--traj", str(tmp_path / "run"),
                     "--ops", "series"]) == 0
        assert calls == [("read_snapshot", os.path.join("run", "frames.npy"))]
        del calls[:]
        cfg = write_cfg(tmp_path / "t.cfg", tmp_path / "seeded",
                        data={"family": "snapshot",
                              "path": str(tmp_path / "run")})
        assert main(["simulate", "--config", cfg]) == 0
        assert calls == [
            ("read_snapshot", os.path.join("run", "frames.npy")),
            ("write_snapshot", os.path.join("seeded", "frames.npy"))]

    @pytest.mark.parametrize("flag", ["--A", "--cone-lambda"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_analyze_refuses_bad_cone_values(self, capsys, flag, value):
        # refused before the store is read: the directory does not exist
        assert main(["analyze", "--traj", "/no/such/dir", "--ops",
                     "lightcone,linf", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} = ") and err.count("\n") == 1
        assert "must be a positive finite number" in err

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
        # simulate's scattering stage and resolve --traj make one call
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "bump", "ell": "0",
                              "amplitude": "0.08", "center": "10",
                              "width": "4"},
                        grid={"r_max": "100", "n_points": "1024"},
                        time={"t_final": "70", "record_every": "16"},
                        pipeline={"stages": "series, scattering"})
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
        field = make_chain(grid, SPHERE, 0.0, [(1, 2.0)])
        snap = write_store(field, tmp_path / "seed")
        out = tmp_path / "resumed"
        cfg = write_cfg(tmp_path / "s.cfg", out,
                        data={"family": "snapshot", "path": str(snap)},
                        time={"t_final": "1.0", "record_every": "64"})
        assert main(["simulate", "--config", cfg]) == 0
        assert "status completed" in capsys.readouterr().out


class TestReportOutput:
    """The bubble stage's report, written by cli's one INI writer."""

    @pytest.fixture(scope="class")
    def planted(self, tmp_path_factory):
        # one bubble at scale 2e-2, hanging 0 -> pi, as a one-frame store
        grid = RadialGrid(5.0, 2 ** 14)
        field = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 2e-2, grid)
        store = write_store(field, tmp_path_factory.mktemp("planted") / "s")
        return store, extract_bubbles(field, SPHERE)

    def _resolve(self, store, tmp_path, name):
        copy = tmp_path / name
        shutil.copytree(store, copy)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["resolve", "--snapshot", str(copy)]) == 0
        return copy

    def test_tree_round_trip(self, planted, tmp_path):
        store, rep = planted
        out = self._resolve(store, tmp_path, "a")
        cp = ConfigParser()
        cp.read(out / "bubbles.report")
        assert cp.sections() == ["report", "bubble 1", "ledger"]
        assert dict(cp["report"]) == {
            "j": "1", "delta0": cli.FMT % rep.delta0,
            "eps0": cli.FMT % rep.eps0,
            "outer_root": cli.FMT % rep.outer_root,
            "outer_limit": cli.FMT % rep.outer_limit,
            "metric": "sphere", "notes": "; ".join(rep.notes)}
        qmap, = rep.bubbles
        assert {k: float(v) for k, v in cp["bubble 1"].items()} == {
            "ell": qmap.ell, "m": qmap.m, "sign": qmap.sign,
            "scale": rep.scales[0], "energy": qmap.energy,
            "misfit_sq": rep.misfits[0]}
        led = rep.ledger
        assert {k: float(v) for k, v in cp["ledger"].items()} == {
            "e_total": led.e_total, "e_bubbles": led.e_bubbles,
            "e_residual": led.e_residual, "defect": led.defect}
        # the residual is stored beside the report
        assert sorted(os.listdir(out)) == sorted(
            [*cli.STORE_FILES, "bubbles.report", "bubbles.report.residual"])

    def test_rewrite_is_byte_identical(self, planted, tmp_path):
        store, _ = planted
        a, b = (self._resolve(store, tmp_path, name) for name in "ab")
        assert (a / "bubbles.report").read_bytes() == \
            (b / "bubbles.report").read_bytes()


class TestTopLevel:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_selftest_filter(self, capsys):
        assert main(["selftest", "--filter", "thresholds"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("PASS")
        assert "1 passed, 0 failed" in text

    def test_selftest_runs_every_check(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == \
            [["PASS", name] for name, _ in cli.SELFTESTS]
        assert lines[-1] == "9 passed, 0 failed"

    def test_selftest_unknown_filter(self, capsys):
        assert main(["selftest", "--filter", "zzz"]) == 1
        assert "no selftest matches" in capsys.readouterr().err


class TestDocs:
    README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

    def test_readme_family_table_matches_families(self):
        # rows "| `family` | `key`, ... | `key` (default), ... |"
        with open(self.README) as fh:
            rows = [line for line in fh if line.startswith("| `")]
        table = {}
        for row in rows:
            name, required, optional, _ = (
                cell.strip() for cell in row.strip().strip("|").split("|"))
            table[name.strip("`")] = (
                tuple(re.findall(r"`(\w+)`", required)),
                {k: float(v) for k, v in
                 re.findall(r"`(\w+)` \(([^)]*)\)", optional)})
        assert table == {name: (f.required, f.optional)
                         for name, f in cli.FAMILIES.items()}

    def test_readme_custom_target_is_read(self):
        # the README's custom [metric] block passes the hypothesis check
        with open(self.README) as fh:
            blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
        custom = [b for b in blocks if "target = custom" in b]
        assert len(custom) == 1
        cp = ConfigParser()
        cp.read_string(custom[0])
        metric = cli.read_metric(cp, "README.md")
        assert metric.id == "wiggle"
        assert check_assumptions(metric).failure() is None

    def test_help_and_readme_list_the_ops(self, capsys):
        assert main(["analyze", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        listed = re.search(r"comma list: (.*?) --A", text).group(1)
        assert listed.split(", ") == list(cli.OPS)
        with open(self.README) as fh:
            usage = re.search(r"wavemap analyze .*--ops (\S+)", fh.read())
        assert usage.group(1).split(",") == list(cli.OPS)
