"""Scenario-driven batch front end.

Four subcommands cover the laboratory workflow:

    wavemap simulate --config <cfg> [...] [--out <dir>]
    wavemap analyze  --traj <dir> --ops <comma-list>
    wavemap resolve  --snapshot <dir> | --traj <dir>
    wavemap selftest [--filter <name>]

Scenario configs are line-oriented "key = value" files under the
sections [metric] [data] [grid] [time] [pipeline] [output].  A stored
trajectory is a directory holding manifest.cfg, which names the metric,
grid, end states and frame times, and frames.npy, the frames' psi and
psi_dot as one float64 array.  A single field, such as a seed for
`family = snapshot` or the residual the bubble stage leaves, is stored
the same way, as a one-frame trajectory.  Floats written as text use 17
significant digits and frames are stored as raw float64, so values round
trip losslessly, and identical configs produce byte-identical artifacts.
Several configs run one after another, each into its own output directory.
Config errors, the refusals of the data builders included, are all caught
by load_scenario, which builds each initial field, before any work is done.
"""

import argparse
import math
import os
import sys
import tempfile
from collections import namedtuple
from configparser import ConfigParser, Error as ConfigError
from pathlib import Path

import numpy as np

from .geometry import (FMT, SPHERE, YANG_MILLS, GeometryError,
                       check_assumptions, find_vanishing_set, get_metric,
                       make_metric)
from .statics import build_harmonic_map, eval_Q
from .evolution import (BOUNDARIES, RadialGrid, RadialField, Trajectory,
                        BlowupRecord, EvolutionError, evolve, write_snapshot,
                        read_snapshot, discrete_energy, _check_cfl,
                        _step_plan)
from .exprgrammar import ExpressionError
from .data import (make_bubble, make_bubble_bump, make_bump, make_chain,
                   make_perturbation)
from .diagnostics import (DiagnosticsError, energy, write_series,
                          select_times, lightcone_concentration,
                          linf_outside_cone, s_norm)
from .resolution import (ResolutionError, compute_delta0, extract_bubbles,
                         residual_norms, extend_H, build_scattering_state,
                         extract_regular_part)
from .rng import XorShift64Star

GRID_FLOOR = 64          # nodes; below this no scenario is worth running
SCALE_NODES = 8          # every requested length scale needs >= 8 cells


class CliError(Exception):
    """Scenario or invocation problem; caught in main, exit 1."""


def _write_ini(path, sections):
    cp = ConfigParser()
    cp.read_dict(sections)
    with open(path, "w") as fh:
        cp.write(fh)


# ---------------------------------------------------------------------------
# scenario parsing

def _snapshot(grid, metric, path):
    """The last frame of the store at `path`."""
    traj = load_trajectory(path)
    stored, wanted = dict(traj.system.keys), dict(metric.keys)
    differ = [k for k in {**stored, **wanted}
              if stored.get(k) != wanted.get(k)]
    with traj.snapshots as frames:
        if differ:
            raise GeometryError(f"snapshot {path} was written for metric "
                                f"{traj.system.id!r}, scenario uses "
                                f"{metric.id!r}: [metric] {differ[0]} "
                                f"differs")
        field = frames[-1]
    if field.grid != grid:
        raise EvolutionError(
            f"snapshot {path} has {field.grid.n_points} nodes up "
            f"to r = {field.grid.r_max:g}, [grid] asks for "
            f"{grid.n_points} up to r_max = {grid.r_max:g}")
    return field


# one row per [data] family: the keys it needs, the keys it reads when
# given with their defaults, and build(grid, metric, **params), the data
# builder that checks its field (snapshot's reads a store); its scales
# (scale, width, the steps' scales) must span SCALE_NODES cells
Family = namedtuple("Family", "required optional build")
FAMILIES = {
    "bubble": Family(("ell", "scale"), {"direction": 1}, make_bubble),
    "bump": Family(("amplitude", "center", "width"),
                   {"ell": 0.0, "velocity": 0.0}, make_bump),
    "superposition": Family(("scale", "amplitude", "center", "width"),
                            {"ell": 0.0, "direction": 1, "velocity": 0.0},
                            make_bubble_bump),
    "chain": Family(("steps",), {"ell_outer": 0.0}, make_chain),
    "snapshot": Family(("path",), {}, _snapshot),
}
# the keys of the sections whose keys depend on neither target nor family
KEYS = {"grid": ("n_points", "r_max"),
        "time": ("t_final", "dt", "cfl", "record_every", "boundary"),
        "pipeline": ("stages",), "output": ("dir",)}
SECTIONS = ("metric", "data", *KEYS)

# a config as simulate runs it, its initial field built
Scenario = namedtuple("Scenario", "path metric data t_final cfl record_every "
                                  "boundary stages out_dir")


def _require(cp, section, key, path):
    if not cp.has_option(section, key):
        raise CliError(f"{path}: missing [{section}] {key}")
    return cp.get(section, key)


def _finite(text):
    """float(text), raising ValueError for nan and inf too."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _getfloat(cp, section, key, path, default=None):
    if default is not None and not cp.has_option(section, key):
        return default
    text = _require(cp, section, key, path)
    try:
        return _finite(text)
    except ValueError:
        raise CliError(f"{path}: [{section}] {key} = {text!r} is not a "
                       f"finite number")


def _getint(cp, section, key, path, default=None):
    value = _getfloat(cp, section, key, path, default)
    if value != int(value):
        raise CliError(f"{path}: [{section}] {key} = "
                       f"{cp.get(section, key)!r} is not an integer")
    return int(value)


def _refuse_unread(cp, path, section, reads):
    """CliError for a key of cp's [section] that is not in `reads`."""
    for key in cp.options(section):
        if key not in reads:
            raise CliError(f"{path}: [{section}] {key} is not read "
                           f"(known: {', '.join(reads)})")


def read_metric(cp, path):
    """The metric of cp's [metric] section: target, and for a custom target
    its id, g, g_prime and window; any other key is refused.  A custom
    target that `check_assumptions` finds outside (A2) or (A3') is
    refused."""
    target = _require(cp, "metric", "target", path)
    _refuse_unread(cp, path, "metric", ("target",) if target != "custom"
                   else ("target", "id", "g", "g_prime", "window"))
    if target != "custom":
        try:
            return get_metric(target)
        except GeometryError:
            raise CliError(f"{path}: unknown metric target {target!r} "
                           f"(sphere, yang-mills, custom)")
    try:
        lo, hi = map(_finite, _require(cp, "metric", "window", path).split())
    except ValueError:
        raise CliError(f"{path}: [metric] window needs two finite numbers")
    try:
        metric = make_metric(*(_require(cp, "metric", key, path)
                               for key in ("id", "g", "g_prime")), (lo, hi))
        report = check_assumptions(metric)
    except (ExpressionError, GeometryError) as e:
        raise CliError(f"{path}: [metric] {e}")
    why = report.failure()
    if why:
        raise CliError(f"{path}: [metric] {metric.id} fails the hypotheses "
                       f"({report}): {why}")
    return metric


def load_scenario(path, out_override=None):
    if not os.path.isfile(path):
        raise CliError(f"no such config: {path}")
    cp = ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except ConfigError as e:
        # configparser names the offending line, over several lines
        raise CliError(f"{path}: malformed config: "
                       f"{' '.join(str(e).split())}")
    for section in cp.sections():
        if section not in SECTIONS:
            raise CliError(f"{path}: unknown section [{section}] "
                           f"(known: {', '.join(SECTIONS)})")
        if section in KEYS:
            _refuse_unread(cp, path, section, KEYS[section])
    for section in ("metric", "data", "grid", "time", "output"):
        if not cp.has_section(section):
            raise CliError(f"{path}: missing [{section}] section")

    metric = read_metric(cp, path)

    n_points = _getint(cp, "grid", "n_points", path)
    r_max = _getfloat(cp, "grid", "r_max", path)
    if n_points < GRID_FLOOR:
        raise CliError(f"{path}: grid floor: n_points = {n_points} is "
                       f"below {GRID_FLOOR}")
    try:
        grid = RadialGrid(r_max, n_points)
    except EvolutionError as e:
        raise CliError(f"{path}: [grid] {e}")

    family = _require(cp, "data", "family", path)

    t_final = _getfloat(cp, "time", "t_final", path)
    if not t_final > 0:
        raise CliError(f"{path}: [time] t_final = {t_final:g} must be "
                       f"positive")
    if cp.has_option("time", "dt"):
        if cp.has_option("time", "cfl"):
            raise CliError(f"{path}: [time] gives both dt and cfl; give one")
        key, cfl = "dt", _getfloat(cp, "time", "dt", path) / grid.dr
    else:
        key, cfl = "cfl", _getfloat(cp, "time", "cfl", path, default=0.5)
    if not cfl > 0:
        raise CliError(f"{path}: [time] {key} = {cp.get('time', key)} must "
                       f"be positive")
    try:
        _step_plan(grid, t_final, cfl)
    except EvolutionError as e:
        raise CliError(f"{path}: [time] {e}")
    record_every = _getint(cp, "time", "record_every", path, default=64.0)
    if record_every < 1:
        raise CliError(f"{path}: [time] record_every = {record_every} must "
                       f"be at least 1")
    boundary = cp.get("time", "boundary", fallback="fixed")
    if boundary not in BOUNDARIES:
        raise CliError(f"{path}: [time] unknown boundary {boundary!r} "
                       f"({', '.join(BOUNDARIES)})")

    raw = cp.get("pipeline", "stages", fallback="")
    stages = [s.strip() for s in raw.split(",") if s.strip()]
    for s in stages:
        if s not in STAGES:
            raise CliError(f"{path}: unknown pipeline stage {s!r} "
                           f"(known: {', '.join(STAGES)})")
    roots = find_vanishing_set(metric).roots
    if "bubbles" in stages and len(roots) < 2:
        raise CliError(
            f"{path}: [pipeline] stage bubbles needs two adjacent roots of "
            f"g; {metric.id} has {len(roots)} in [{metric.search_window[0]:g}"
            f", {metric.search_window[1]:g}]")
    out_dir = out_override or _require(cp, "output", "dir", path)

    data = _read_data(cp, path, family, grid, metric)
    with np.errstate(over="ignore"):
        e0 = energy(data, metric).total
    if not math.isfinite(e0):
        raise CliError(f"{path}: [data] the initial energy is {e0:g}; the "
                       f"flow is run for maps of finite energy")
    return Scenario(path=path, metric=metric, data=data,
                    t_final=t_final, cfl=cfl, record_every=record_every,
                    boundary=boundary, stages=stages, out_dir=out_dir)


def _direction(text):
    """int(text), raising ValueError unless it is +1 or -1."""
    if int(text) not in (-1, 1):
        raise ValueError(f"direction {text!r} is not +1 or -1")
    return int(text)


def _data_value(path, key, text):
    """A [data] value parsed as its key's kind: a store path, read when the
    data is built, direction:scale steps, a direction of +1 or -1 or a
    finite number."""
    if key == "path":
        return text
    if key == "steps":
        steps = []
        for item in text.split(","):
            try:
                d, lam = item.split(":")
                steps.append((_direction(d), _finite(lam)))
            except ValueError:
                raise CliError(f"{path}: [data] steps entry "
                               f"{item.strip()!r} is not direction:scale "
                               f"with direction +1 or -1")
        return steps
    try:
        return _direction(text) if key == "direction" else _finite(text)
    except ValueError:
        kind = "+1 or -1" if key == "direction" else "a finite number"
        raise CliError(f"{path}: [data] {key} = {text!r} is not {kind}")


def _read_data(cp, path, family, grid, metric):
    """The family's initial field, built from its [data] values, defaults
    filled in, once every given key is read by the family and parses and
    the family's scales are resolved by the grid; the builder's refusals
    are config errors."""
    if family not in FAMILIES:
        raise CliError(f"{path}: unknown data family {family!r} "
                       f"({', '.join(FAMILIES)})")
    row = FAMILIES[family]
    raw = {k: v for k, v in cp.items("data") if k != "family"}
    reads = (*row.required, *row.optional)
    for key in raw:
        if key not in reads:
            raise CliError(f"{path}: [data] {key} is read by no data family "
                           f"in use ({family} reads {', '.join(reads)})")
    for key in row.required:
        if key not in raw:
            raise CliError(f"{path}: missing [data] {key}")
    given = {key: _data_value(path, key, text) for key, text in raw.items()}
    p = {k: given.get(k, row.optional.get(k)) for k in reads}
    scales = [p[k] for k in ("scale", "width") if k in p]
    for lam in scales + [lam for _, lam in p.get("steps", ())]:
        if lam < SCALE_NODES * grid.dr:
            raise CliError(
                f"{path}: under-resolved: scale {lam:g} needs >= "
                f"{SCALE_NODES} grid cells but dr = {grid.dr:g}")
    try:
        return row.build(grid, metric, **p)
    except (GeometryError, EvolutionError, CliError) as e:
        raise CliError(f"{path}: [data] {e}")
    except MemoryError as e:
        raise CliError(f"{path}: [grid] n_points = {grid.n_points}: {e}")


# ---------------------------------------------------------------------------
# trajectory directories

# the manifest's [blowup] times, in BlowupRecord's field order
BLOWUP_TIMES = ("t_plus", "concentration_radius", "last_valid_time")
FRAMES = "frames.npy"       # (frames, 2, n_points) float64: psi, psi_dot
STORE_FILES = ("manifest.cfg", FRAMES)


def _store_dir(system, out_dir):
    """Make the store directory out_dir for a run of `system`, which must
    have [metric] keys to store."""
    if not getattr(system, "keys", ()):
        raise CliError(f"{out_dir}: {system!r} has no [metric] keys to "
                       f"store; build it with get_metric or make_metric")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise CliError(f"{out_dir}: not a store directory: {e.strerror}")


def _write_manifest(traj, out_dir):
    """manifest.cfg of a store whose frames are written: the run's
    settings, the frames' grid, boundary values and times, the [metric]
    keys of traj.system and the blow-up record."""
    first = traj.snapshots[0]
    sections = {"trajectory": {
        "scheme": traj.scheme,
        "dt": FMT % traj.dt,
        "cfl": FMT % traj.cfl,
        "frames": str(len(traj.snapshots)),
        "status": "truncated" if traj.blowup is not None else "completed",
        "r_max": FMT % first.grid.r_max,
        "n_points": str(first.grid.n_points),
        "ell0": FMT % first.ell0,
        "ell_inf": FMT % first.ell_inf,
        "times": " ".join(FMT % t for t in traj.times),
    }, "metric": dict(traj.system.keys)}
    if traj.blowup is not None:
        sections["blowup"] = {k: FMT % getattr(traj.blowup, k)
                              for k in BLOWUP_TIMES}
        sections["blowup"]["reason"] = traj.blowup.reason
        sections["blowup"]["radius_series"] = " ".join(
            f"{FMT % t} {FMT % rho}" for t, rho in traj.blowup.radius_series)
    _write_ini(os.path.join(out_dir, "manifest.cfg"), sections)


def save_trajectory(traj, out_dir):
    """Write the frames to frames.npy, then manifest.cfg, with the
    [metric] keys of traj.system."""
    _store_dir(traj.system, out_dir)
    with write_snapshot(traj.snapshots,
                        os.path.join(out_dir, FRAMES)) as frames:
        frames.commit()
    _write_manifest(traj, out_dir)


def load_trajectory(traj_dir):
    manifest = os.path.join(traj_dir, "manifest.cfg")
    frames_path = os.path.join(traj_dir, FRAMES)
    if not os.path.isdir(traj_dir):
        raise CliError(f"no such trajectory directory: {traj_dir}")
    if not os.path.isfile(manifest):
        raise CliError(f"{traj_dir}: no manifest.cfg; not a trajectory "
                       f"directory")
    if not os.path.isfile(frames_path) and any(
            n.startswith("frame-") and n.endswith(".snap")
            for n in os.listdir(traj_dir)):
        raise CliError(f"{traj_dir}: frame-*.snap store from an older "
                       f"wavemap; re-simulate it to get {FRAMES}")
    cp = ConfigParser()
    try:
        cp.read(manifest)
        number = lambda key: _finite(cp.get("trajectory", key))
        scheme = cp.get("trajectory", "scheme")
        dt, cfl = number("dt"), number("cfl")
        n_frames = cp.getint("trajectory", "frames")
        if n_frames < 1:
            raise ValueError(f"[trajectory] frames = {n_frames} must be at "
                             f"least 1")
        grid = RadialGrid(number("r_max"),
                          cp.getint("trajectory", "n_points"))
        ell0, ell_inf = number("ell0"), number("ell_inf")
        times = [_finite(t) for t in cp.get("trajectory", "times").split()]
        if len(times) != n_frames:
            raise ValueError(f"[trajectory] times holds {len(times)} "
                             f"values, frames = {n_frames}")
        blow = None
        if cp.has_section("blowup"):
            pairs = [_finite(v) for v in
                     cp.get("blowup", "radius_series").split()]
            if len(pairs) % 2:
                raise ValueError("[blowup] radius_series needs t rho pairs")
            t_plus, rho_c, t_last = (cp.get("blowup", k) for k in BLOWUP_TIMES)
            # the NaN blow-up record stores rho_c as nan
            blow = BlowupRecord(
                _finite(t_plus), float(rho_c), _finite(t_last),
                reason=cp.get("blowup", "reason"),
                radius_series=list(zip(pairs[::2], pairs[1::2])))
    except (ConfigError, ValueError) as e:
        # configparser's messages span lines; the error is one
        raise CliError(f"{manifest}: malformed manifest: "
                       f"{' '.join(str(e).split())}")
    # evolve records increasing times and ends a blow-up record at the last
    if any(b <= a for a, b in zip(times, times[1:])) or blow and not (
            blow.last_valid_time == times[-1] < blow.t_plus):
        raise CliError(f"{manifest}: malformed manifest: [trajectory] times "
                       f"must increase, and [blowup] last_valid_time be the "
                       f"last of them, before t_plus")
    # a one-frame store has no step and writes dt = 0
    if dt < 0 or (dt == 0 and n_frames > 1):
        raise CliError(f"{manifest}: malformed manifest: [trajectory] "
                       f"dt = {dt:g} must be positive")
    # a run's step is cfl dr, within the CFL bound of its grid
    if dt > 0:
        try:
            _check_cfl(grid, dt)
        except EvolutionError as e:
            raise CliError(f"{manifest}: malformed manifest: [trajectory] "
                           f"{e}")
        if not abs(cfl - dt / grid.dr) <= 1e-12 * dt / grid.dr:
            raise CliError(f"{manifest}: malformed manifest: [trajectory] "
                           f"cfl = {cfl:g} is not dt / dr = "
                           f"{dt / grid.dr:g}")
    metric = read_metric(cp, manifest)
    snaps = read_snapshot(frames_path, grid, ell0, ell_inf, times)
    return Trajectory(snapshots=snaps, dt=dt, scheme=scheme, cfl=cfl,
                      system=metric, blowup=blow)


# ---------------------------------------------------------------------------
# pipeline stages

def _bubbles(traj, report):
    rep = extract_bubbles(traj.snapshots[-1], traj.system)
    sections = {"report": {
        "J": str(rep.J),
        **{key: FMT % getattr(rep, key)
           for key in ("delta0", "eps0", "outer_root", "outer_limit")},
        "metric": rep.metric.id,
        "notes": "; ".join(rep.notes),
    }}
    for j, (qmap, lam, mis) in enumerate(
            zip(rep.bubbles, rep.scales, rep.misfits), start=1):
        sections[f"bubble {j}"] = {
            "ell": FMT % qmap.ell,
            "m": FMT % qmap.m,
            "sign": str(qmap.sign),
            "scale": FMT % lam,
            "energy": FMT % qmap.energy,
            "misfit_sq": FMT % mis,
        }
    # every ExtractionLedger field, in field order
    sections["ledger"] = {key: FMT % value
                          for key, value in vars(rep.ledger).items()}
    _write_ini(report, sections)
    save_trajectory(Trajectory([rep.residual], 0.0, "one-frame", 0.0,
                               traj.system), report + ".residual")
    return (f"bubbles J = {rep.J}, scales = "
            f"{[float(FMT % s) for s in rep.scales]}",
            [f"J = {rep.J}",
             *(f"scale {j} = {FMT % lam}"
               for j, lam in enumerate(rep.scales, start=1)),
             f"defect_fraction = {FMT % rep.defect_fraction}",
             *(f"note: {note}" for note in rep.notes),
             f"report = {report}",
             f"within_bound = {rep.J <= rep.j_max} "
             f"(J = {rep.J}, J_max = {rep.j_max})"])


def _scattering(traj, report):
    state = build_scattering_state(traj)
    _write_ini(report, {
        "scattering": {
            "t_star": FMT % state.t_star,
            "ell": FMT % state.ell.value,
            "alpha_rule": state.alpha_rule,
            "defect": FMT % state.defect,
            "selected_times": " ".join(FMT % t for t in state.selected.times),
        },
        "match": {FMT % t: FMT % e
                  for t, e in zip(state.match_times, state.match_errors)},
    })
    worst = max(state.match_errors)
    return (f"scattering t* = {state.t_star:.6g}, defect = "
            f"{state.defect:.6g}, worst match = {worst:.6g}",
            [f"t_star = {FMT % state.t_star}",
             f"defect = {FMT % state.defect}",
             f"worst_match = {FMT % worst}",
             f"report = {report}"])


def _regular(traj, report):
    reg = extract_regular_part(traj)
    _write_ini(report, {"regular": {
        "ell_star": FMT % reg.ell_star.value,
        "settle_gap": FMT % reg.settle_gap,
        "interior_times": " ".join(FMT % t for t in reg.interior_times),
        "interior_norms": " ".join(FMT % v for v in reg.interior_norms),
    }})
    return (f"regular part ell* = {reg.ell_star.value:.6g}, final interior "
            f"norm = {reg.interior_norms[-1]:.6g}",
            [f"ell_star = {FMT % reg.ell_star.value}",
             f"settle_gap = {FMT % reg.settle_gap}",
             f"final_interior_norm = {FMT % reg.interior_norms[-1]}",
             f"report = {report}"])


# one row per pipeline stage: whether it runs on a trajectory that blew up
# and on one that did not, run(traj, report path) -> (simulate's summary,
# resolve's lines), which writes <stage>.report, and simulate's note where
# the stage does not run; series.csv is written with every trajectory, so
# the series stage has nothing left to run
class Stage(namedtuple("Stage", "after_blowup without_blowup run skipped",
                       defaults=(None, ""))):
    def runs_on(self, traj):
        return self.after_blowup if traj.blowup is not None \
            else self.without_blowup


STAGES = {
    "series": Stage(True, True),
    "bubbles": Stage(True, True, _bubbles),
    "scattering": Stage(False, True, _scattering,
                        "skipped scattering (blow-up)"),
    "regular": Stage(True, False, _regular,
                     "skipped regular part (no blow-up)"),
}


def _stage_files(out_dir, names):
    """The files the named stages may write into out_dir: each stage its
    <name>.report, and the bubble stage the files of its residual store."""
    files = [os.path.join(out_dir, name + ".report") for name in names
             if STAGES[name].run]
    if "bubbles" in names:
        files += [os.path.join(out_dir, "bubbles.report.residual", name)
                  for name in STORE_FILES]
    return files


def _refuse_unwritable(cmd, files):
    """CliError, before any work, for a file to write that exists and is
    not a regular file, and for one under a path that exists and is not a
    directory: its store directory or a path above it."""
    for path in map(os.path.abspath, files):
        found = path
        while not os.path.exists(found):      # up to an existing path
            found = os.path.dirname(found)
        if found == path and not os.path.isfile(path):
            raise CliError(f"{path}: exists and is not a regular file; "
                           f"{cmd} writes a file there")
        if found != path and not os.path.isdir(found):
            raise CliError(f"{found}: exists and is not a directory; "
                           f"{cmd} writes a store directory")


# ---------------------------------------------------------------------------
# analyze ops: op(traj, args) returns the lines analyze prints

def _series_op(traj, args):
    path = os.path.join(args.traj, "series.csv")
    write_series(traj, path)
    return [f"series = {path}"]


def _select_times_op(traj, args):
    sel = select_times(traj)
    return [f"select {FMT % t} = {FMT % v}"
            for t, v in zip(sel.times, sel.values)]


OPS = {
    "series": _series_op,
    "select-times": _select_times_op,
    "lightcone": lambda traj, args: [
        f"lightcone {FMT % row.t} = {FMT % row.outside} "
        f"{FMT % row.hl_fraction} {FMT % row.kin_fraction}"
        + (" boundary-tainted" if row.boundary_tainted else "")
        for row in lightcone_concentration(traj, args.A)],
    "linf": lambda traj, args: [
        f"linf {FMT % t} = {FMT % v}"
        for t, v in linf_outside_cone(traj, args.cone_lambda)],
    "s-norm": lambda traj, args: [f"s_norm = {FMT % s_norm(traj)}"],
}


# ---------------------------------------------------------------------------
# subcommands

def run_simulate_one(scen):
    """Run one scenario with its frames streamed into the store as the run
    makes them, then write the manifest and series.csv and run the
    stages, which read the frames back from the store."""
    _store_dir(scen.metric, scen.out_dir)
    with write_snapshot([], os.path.join(scen.out_dir, FRAMES)) as frames:
        traj = evolve(scen.data, scen.metric, scen.t_final,
                      record_every=scen.record_every, cfl=scen.cfl,
                      boundary=scen.boundary, sink=frames)
        frames.commit()
        _write_manifest(traj, scen.out_dir)
        write_series(traj, os.path.join(scen.out_dir, "series.csv"))
        status = "truncated" if traj.blowup is not None else "completed"
        print(f"{scen.path}: status {status}, {len(traj.snapshots)} frames "
              f"-> {scen.out_dir}")
        if traj.blowup is not None:
            print(f"{scen.path}: blow-up at t+ = {traj.blowup.t_plus:.6g} "
                  f"(rho_c = {traj.blowup.concentration_radius:.6g})")

        code = 0
        for name in scen.stages:
            stage = STAGES[name]
            if stage.run is None:
                continue
            if not stage.runs_on(traj):
                print(f"{scen.path}: {stage.skipped}")
                continue
            try:
                summary, _ = stage.run(
                    traj, os.path.join(scen.out_dir, name + ".report"))
                print(f"{scen.path}: {summary}")
            except (ResolutionError, DiagnosticsError) as e:
                print(f"{scen.path}: error in stage {name}: {e}",
                      file=sys.stderr)
                code = 1
    return code


def run_simulate(args):
    scens = []
    for cfg in args.config:
        out = None
        if args.out:
            stem = os.path.splitext(os.path.basename(cfg))[0]
            out = args.out if len(args.config) == 1 else \
                os.path.join(args.out, stem)
        scens.append(load_scenario(cfg, out_override=out))
    outs = [os.path.abspath(s.out_dir) for s in scens]
    if len(set(outs)) != len(outs):
        raise CliError("scenarios share an output directory; batch runs "
                       "need disjoint outputs")
    # every file the batch may write: each store's own, series.csv and the
    # stages' files
    files = []
    for out, s in zip(outs, scens):
        files += [os.path.join(out, name)
                  for name in (*STORE_FILES, "series.csv")]
        files += _stage_files(out, s.stages)
    _refuse_unwritable("simulate", files)
    return max([run_simulate_one(s) for s in scens])


def run_analyze(args):
    for flag, value in (("--A", args.A), ("--cone-lambda", args.cone_lambda)):
        if not 0 < value < math.inf:
            raise CliError(f"{flag} = {value!r} must be a positive finite "
                           f"number")
    ops = [o.strip() for o in args.ops.split(",") if o.strip()]
    known = f"(known: {', '.join(OPS)})"
    if not ops:
        raise CliError(f"--ops {args.ops!r} names no op {known}")
    for op in ops:
        if op not in OPS:
            raise CliError(f"unknown op {op!r} {known}")
    traj = load_trajectory(args.traj)
    with traj.snapshots:
        if "series" in ops:
            _refuse_unwritable("analyze",
                               [os.path.join(args.traj, "series.csv")])
        # every op runs before any line prints, and series, the op that
        # writes a file, runs last: an op that refuses the store leaves it
        # untouched
        order = sorted(dict.fromkeys(ops), key=lambda op: op == "series")
        lines = {op: OPS[op](traj, args) for op in order}
    for op in ops:
        for line in lines[op]:
            print(line)
    return 0


def run_resolve(args):
    if bool(args.snapshot) == bool(args.traj):
        raise CliError("resolve needs exactly one of --snapshot or --traj")
    store = args.snapshot or args.traj
    traj = load_trajectory(store)
    # a trajectory resolves through the stage that runs in its case only:
    # the scattering state of a global run, the regular part left at a
    # blow-up; a snapshot, the store's last frame, through the stage that
    # runs in either case and reads the last frame: bubble extraction
    names = [name for name, stage in STAGES.items()
             if stage.run and stage.runs_on(traj) and bool(args.snapshot) ==
             (stage.after_blowup and stage.without_blowup)]
    with traj.snapshots:
        _refuse_unwritable("resolve", _stage_files(store, names))
        for name in names:
            report = os.path.join(store, name + ".report")
            for line in STAGES[name].run(traj, report)[1]:
                print(line)
    return 0


# ---------------------------------------------------------------------------
# selftest: fast invariant suite over the library itself

def _check_harmonic_oracle():
    qmap = build_harmonic_map(SPHERE, 0.0, +1)
    r = np.logspace(-3, 3, 2000)
    err = float(np.max(np.abs(eval_Q(qmap, r) - 2.0 * np.arctan(r))))
    assert err < 1e-8, f"profile error {err:.3g}"
    assert abs(qmap.energy - 4.0) < 1e-6, f"energy {qmap.energy!r}"
    return f"max profile error {err:.2e}"

def _check_thresholds():
    d0, e0 = compute_delta0(SPHERE)
    assert abs(d0 - 0.5) < 1e-12
    assert abs(e0 - (4.0 - math.sqrt(15.0))) < 1e-12
    d1, e1 = compute_delta0(YANG_MILLS)
    assert abs(d1 - 0.5) < 1e-12
    assert abs(e1 - (2.0 - math.sqrt(3.0))) < 1e-12
    return f"sphere eps0 = {e0:.10f}"

def _check_energy_conservation():
    grid = RadialGrid(20.0, 2048)
    f = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=5.0, width=3.0,
                  velocity=0.0)
    traj = evolve(f, SPHERE, 5.0, record_every=128)
    e0 = energy(traj.snapshots[0], SPHERE).total
    drift = max(abs(energy(s, SPHERE).total - e0)
                for s in traj.snapshots) / e0
    assert drift < 1e-4, f"drift {drift:.3g}"
    return f"relative drift {drift:.2e}"

def _check_stationarity():
    grid = RadialGrid(20.0, 1000)
    f = make_bubble(grid, SPHERE, 0.0, 1.0, +1)
    traj = evolve(f, SPHERE, 1.0, record_every=10 ** 9)
    dev = float(np.max(np.abs(traj.snapshots[-1].psi - f.psi)))
    assert dev < 1e-4, f"deviation {dev:.3g}"
    return f"max deviation {dev:.2e}"

def _check_linear_conservation():
    root = find_vanishing_set(SPHERE).root_at(0.0)
    grid = RadialGrid(12.0, 4096)
    f = make_perturbation(grid, amplitude=0.1, center=4.0, width=2.5)
    traj = evolve(f, root, 3.0, record_every=256, cfl=0.25)
    e0 = discrete_energy(traj.snapshots[0], root)
    drift = max(abs(discrete_energy(s, root) - e0)
                for s in traj.snapshots) / e0
    assert drift < 1e-6, f"drift {drift:.3g}"
    return f"discrete-energy drift {drift:.2e}"

def _check_extraction():
    grid = RadialGrid(5.0, 2 ** 14)
    f = make_bubble(grid, SPHERE, 0.0, 2e-2, +1)
    rep = extract_bubbles(f, SPHERE)
    assert rep.J == 1, f"J = {rep.J}"
    err = abs(rep.scales[0] - 2e-2) / 2e-2
    assert err < 1e-3, f"scale error {err:.3g}"
    res = residual_norms(rep).h_x_l2
    assert res < 1e-3, f"residual {res:.3g}"
    return f"scale error {err:.2e}, residual {res:.2e}"

def _check_extension_bound():
    rng = XorShift64Star(7)
    grid = RadialGrid(20.0, 1024)
    r = grid.r
    worst = math.inf
    for _ in range(100):
        r1 = 0.4 + 1.2 * rng.uniform()
        r2 = r1 * (2.0 + 3.0 * rng.uniform())
        a = -1.0 + 2.0 * rng.uniform()
        k = 0.5 + 3.0 * rng.uniform()
        f = RadialField(grid, a * np.sin(k * r), np.zeros_like(r),
                        0.0, 0.0, 0.0)
        worst = min(worst, extend_H(f, r1, r2).slack)
    assert worst >= 0.0, f"slack {worst:.3g}"
    return f"least slack {worst:.2e}"

def _check_snapshot_roundtrip():
    grid = RadialGrid(10.0, 257)
    gen = np.random.default_rng(3)
    f = RadialField(grid, gen.standard_normal(257),
                    gen.standard_normal(257), 0.25, -1.75, 3.0625)
    with tempfile.TemporaryDirectory() as d:
        p1, p2 = os.path.join(d, "a"), os.path.join(d, "b")
        save_trajectory(Trajectory([f], 0.0, "one-frame", 0.0, SPHERE), p1)
        back = load_trajectory(p1)
        with back.snapshots:
            save_trajectory(back, p2)
        for name in ("manifest.cfg", FRAMES):
            assert Path(p1, name).read_bytes() == \
                Path(p2, name).read_bytes(), f"{name} bytes differ"
    return "save -> load -> save byte-identical"

def _check_series_determinism():
    root = find_vanishing_set(SPHERE).root_at(0.0)
    grid = RadialGrid(30.0, 512)
    f = make_perturbation(grid, amplitude=0.1, center=8.0, width=3.0)
    traj = evolve(f, root, 3.0, record_every=64)
    with tempfile.TemporaryDirectory() as d:
        p1, p2 = os.path.join(d, "a.csv"), os.path.join(d, "b.csv")
        write_series(traj, p1)
        write_series(traj, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes(), "bytes differ"
    return "rewrite byte-identical"


SELFTESTS = [
    ("harmonic-oracle", _check_harmonic_oracle),
    ("thresholds", _check_thresholds),
    ("energy-conservation", _check_energy_conservation),
    ("stationarity", _check_stationarity),
    ("linear-conservation", _check_linear_conservation),
    ("extraction", _check_extraction),
    ("extension-bound", _check_extension_bound),
    ("snapshot-roundtrip", _check_snapshot_roundtrip),
    ("series-determinism", _check_series_determinism),
]


def run_selftest(args):
    chosen = [(n, f) for n, f in SELFTESTS
              if args.filter is None or args.filter in n]
    if not chosen:
        raise CliError(f"no selftest matches {args.filter!r}")
    failures = 0
    width = max(len(n) for n, _ in chosen)
    for name, fn in chosen:
        try:
            detail = fn()
            print(f"PASS  {name:<{width}}  {detail}")
        except Exception as e:            # report and keep going
            failures += 1
            print(f"FAIL  {name:<{width}}  {e}")
    print(f"{len(chosen) - failures} passed, {failures} failed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="wavemap",
        description="equivariant wave map laboratory: simulate, analyze, "
                    "resolve, selftest")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="run scenario configs")
    sim.add_argument("--config", nargs="+", required=True,
                     help="scenario config file(s)")
    sim.add_argument("--out", help="output directory (per-config subdirs "
                                   "for batches)")
    sim.set_defaults(run=run_simulate)

    ana = sub.add_parser("analyze", help="diagnostics over a stored "
                                         "trajectory")
    ana.add_argument("--traj", required=True, help="trajectory directory")
    ana.add_argument("--ops", required=True,
                     help="comma list: " + ", ".join(OPS))
    ana.add_argument("--A", type=float, default=10.0,
                     help="lightcone shell width")
    ana.add_argument("--cone-lambda", type=float, default=0.5)
    ana.set_defaults(run=run_analyze)

    res = sub.add_parser("resolve", help="bubble / scattering / regular "
                                         "pipelines")
    res.add_argument("--snapshot", help="store whose last frame to decompose")
    res.add_argument("--traj", help="trajectory directory to resolve")
    res.set_defaults(run=run_resolve)

    st = sub.add_parser("selftest", help="fast invariant suite")
    st.add_argument("--filter", help="substring of suite names to run")
    st.set_defaults(run=run_selftest)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.run(args)
    except (CliError, GeometryError, EvolutionError, ResolutionError,
            DiagnosticsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
