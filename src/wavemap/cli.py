"""Scenario-driven batch front end.

Four subcommands cover the laboratory workflow:

    wavemap simulate --config <cfg> [...] [--out <dir>]
    wavemap analyze  --traj <dir> --ops <comma-list>
    wavemap resolve  --snapshot <path> | --traj <dir>
    wavemap selftest [--filter <name>]

Scenario configs are line-oriented "key = value" files under the
sections [metric] [data] [grid] [time] [pipeline] [output].  All float
text I/O uses 17 significant digits so values round trip losslessly,
and identical config + seed produces byte-identical artifacts.  Several
configs run one after another, each into its own output directory.
Config errors are all caught by load_scenario, before any work is done.
"""

import argparse
import math
import os
import sys
from configparser import ConfigParser, Error as ConfigError
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import (SPHERE, YANG_MILLS, GeometryError, Metric,
                       find_vanishing_set, make_metric)
from .statics import build_harmonic_map, rescale_Q
from .evolution import (BOUNDARIES, RadialGrid, RadialField, Trajectory,
                        BlowupRecord, EvolutionError, evolve, write_snapshot,
                        read_snapshot, discrete_energy, _check_cfl)
from .exprgrammar import ExpressionError
from .data import make_bump, make_chain, bump_profile
from .diagnostics import (energy, h_norms, write_series, select_times,
                          lightcone_concentration, linf_outside_cone,
                          s_norm, support_radius)
from .resolution import (ResolutionError, compute_delta0, extract_bubbles,
                         residual_norms, extend_H, build_scattering_state,
                         extract_regular_part, pythagorean_report,
                         write_bubble_report)
from .rng import XorShift64Star

FMT = "%.17g"
BUILTIN_METRICS = {"sphere": SPHERE, "yang-mills": YANG_MILLS}
GRID_FLOOR = 64          # nodes; below this no scenario is worth running
SCALE_NODES = 8          # every requested length scale needs >= 8 cells
KNOWN_STAGES = ("series", "bubbles", "scattering", "regular")
KNOWN_OPS = ("series", "select-times", "lightcone", "linf", "s-norm")
# the [data] keys each family requires; those of NUMERIC_KEYS that are
# given must parse as numbers
FAMILY_KEYS = {
    "bubble": ("ell", "scale"),
    "bump": ("amplitude", "center", "width"),
    "superposition": ("scale", "amplitude", "center", "width"),
    "chain": ("steps",),
    "snapshot": ("path",),
}
NUMERIC_KEYS = ("ell", "ell_outer", "scale", "amplitude", "center", "width",
                "velocity")


class CliError(Exception):
    """Scenario or invocation problem; caught in main, exit 1."""


# ---------------------------------------------------------------------------
# scenario parsing

@dataclass
class Scenario:
    path: str
    metric: Metric
    family: str
    params: dict
    grid: RadialGrid
    t_final: float
    cfl: float
    record_every: int
    boundary: str
    stages: list
    scattering_count: int
    out_dir: str
    seed: int


def _require(cp, section, key, path):
    if not cp.has_option(section, key):
        raise CliError(f"{path}: missing [{section}] {key}")
    return cp.get(section, key)


def _getfloat(cp, section, key, path, default=None):
    if not cp.has_option(section, key):
        if default is None:
            raise CliError(f"{path}: missing [{section}] {key}")
        return default
    try:
        return cp.getfloat(section, key)
    except ValueError:
        raise CliError(f"{path}: [{section}] {key} = "
                       f"{cp.get(section, key)!r} is not a number")


def _getint(cp, section, key, path, default=None):
    value = _getfloat(cp, section, key, path, default)
    if not math.isfinite(value):
        raise CliError(f"{path}: [{section}] {key} = "
                       f"{cp.get(section, key)!r} is not an integer")
    return int(value)


def load_scenario(path, out_override=None):
    if not os.path.isfile(path):
        raise CliError(f"no such config: {path}")
    cp = ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except ConfigError as e:
        # configparser reports offending lines by number already
        raise CliError(str(e))
    for section in ("metric", "data", "grid", "time", "output"):
        if not cp.has_section(section):
            raise CliError(f"{path}: missing [{section}] section")

    target = _require(cp, "metric", "target", path)
    if target in BUILTIN_METRICS:
        metric = BUILTIN_METRICS[target]
    elif target == "custom":
        try:
            lo, hi = map(float, _require(cp, "metric", "window", path).split())
        except ValueError:
            raise CliError(f"{path}: [metric] window needs two numbers")
        try:
            metric = make_metric(_require(cp, "metric", "id", path),
                                 _require(cp, "metric", "g", path),
                                 _require(cp, "metric", "g_prime", path),
                                 (lo, hi))
        except ExpressionError as e:
            raise CliError(f"{path}: [metric] {e}")
    else:
        raise CliError(f"{path}: unknown metric target {target!r} "
                       f"(sphere, yang-mills, custom)")

    n_points = _getint(cp, "grid", "n_points", path)
    r_max = _getfloat(cp, "grid", "r_max", path)
    if n_points < GRID_FLOOR:
        raise CliError(f"{path}: grid floor: n_points = {n_points} is "
                       f"below {GRID_FLOOR}")
    grid = RadialGrid(r_max, n_points)

    family = _require(cp, "data", "family", path)
    params = {k: v for k, v in cp.items("data") if k != "family"}
    seed = int(params.pop("seed", "0"))

    t_final = _getfloat(cp, "time", "t_final", path)
    if not 0 < t_final < math.inf:
        raise CliError(f"{path}: [time] t_final = {t_final:g} must be "
                       f"positive and finite")
    if cp.has_option("time", "dt"):
        cfl = _getfloat(cp, "time", "dt", path) / grid.dr
    else:
        cfl = _getfloat(cp, "time", "cfl", path, default=0.5)
    if not cfl > 0:
        raise CliError(f"{path}: [time] dt must be positive")
    try:
        _check_cfl(grid, cfl * grid.dr)
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

    stages = []
    count = 5
    if cp.has_section("pipeline"):
        raw = cp.get("pipeline", "stages", fallback="")
        stages = [s.strip() for s in raw.split(",") if s.strip()]
        for s in stages:
            if s not in KNOWN_STAGES:
                raise CliError(f"{path}: unknown pipeline stage {s!r} "
                               f"(known: {', '.join(KNOWN_STAGES)})")
        count = _getint(cp, "pipeline", "scattering_count", path,
                        default=5.0)
    out_dir = out_override or _require(cp, "output", "dir", path)

    scen = Scenario(path=path, metric=metric, family=family, params=params,
                    grid=grid, t_final=t_final, cfl=cfl,
                    record_every=record_every, boundary=boundary,
                    stages=stages, scattering_count=count,
                    out_dir=out_dir, seed=seed)
    _validate_data(scen)
    return scen


def _chain_steps(scen):
    """[data] steps = d:s, d:s, ... as (direction, scale) pairs."""
    steps = []
    for item in scen.params["steps"].split(","):
        try:
            d, lam = item.split(":")
            steps.append((int(d), float(lam)))
        except ValueError:
            raise CliError(f"{scen.path}: [data] steps entry "
                           f"{item.strip()!r} is not direction:scale")
    return steps


def _data_scales(scen):
    """Every length scale the data family requests from the grid."""
    if scen.family == "chain":
        return [abs(lam) for _, lam in _chain_steps(scen)]
    return [float(scen.params[key]) for key in ("scale", "width")
            if key in FAMILY_KEYS[scen.family]]


def _validate_data(scen):
    p = scen.params
    if scen.family not in FAMILY_KEYS:
        raise CliError(f"{scen.path}: unknown data family {scen.family!r} "
                       f"({', '.join(FAMILY_KEYS)})")
    for key in FAMILY_KEYS[scen.family]:
        if key not in p:
            raise CliError(f"{scen.path}: missing [data] {key}")
    for key in NUMERIC_KEYS:
        if key in p:
            try:
                float(p[key])
            except ValueError:
                raise CliError(f"{scen.path}: [data] {key} = {p[key]!r} is "
                               f"not a number")
    if scen.family == "bump" and float(p["center"]) < float(p["width"]):
        raise CliError(f"{scen.path}: [data] bump support must avoid the "
                       f"origin (center >= width)")
    if scen.family == "snapshot" and not os.path.isfile(p["path"]):
        raise CliError(f"{scen.path}: no such snapshot: {p['path']}")
    dr = scen.grid.dr
    for lam in _data_scales(scen):
        if lam < SCALE_NODES * dr:
            raise CliError(
                f"{scen.path}: under-resolved: scale {lam:g} needs >= "
                f"{SCALE_NODES} grid cells but dr = {dr:g}")
    vset = find_vanishing_set(scen.metric)
    for key in ("ell", "ell_outer"):
        if key in p:
            val = float(p[key])
            near = vset.nearest(val)
            if abs(val - near.value) > 1e-6:
                raise CliError(f"{scen.path}: [data] {key} = {val:g} is "
                               f"not a root of g")
    # build_data needs a connector for each step from a root toward its
    # neighbor: one step from ell for a bubble, the chain's steps inward
    # from ell_outer
    if scen.family in ("bubble", "superposition"):
        direction = p.get("direction", "1")
        try:
            sides = [int(direction)]
        except ValueError:
            raise CliError(f"{scen.path}: [data] direction = {direction!r} "
                           f"is not an integer")
        level = float(p.get("ell", "0"))
    elif scen.family == "chain":
        sides = [d for d, _ in _chain_steps(scen)]
        level = float(p.get("ell_outer", "0"))
    else:
        return
    level = vset.nearest(level).value
    for d in sides:
        side = 1 if d > 0 else -1
        inner = vset.neighbor(level, side)
        if inner is None:
            raise CliError(f"{scen.path}: [data] no root of g "
                           f"{'above' if side > 0 else 'below'} ell = "
                           f"{level:g} inside the metric window")
        level = inner.value


def build_data(scen):
    p = scen.params
    fam = scen.family
    grid = scen.grid
    if fam == "bubble":
        qmap = build_harmonic_map(scen.metric, float(p["ell"]),
                                  int(p.get("direction", "1")))
        return rescale_Q(qmap, float(p["scale"]), grid)
    if fam == "bump":
        return make_bump(grid, scen.metric, float(p.get("ell", "0")),
                         amplitude=float(p["amplitude"]),
                         center=float(p["center"]),
                         width=float(p["width"]),
                         velocity=float(p.get("velocity", "0")))
    if fam == "superposition":
        qmap = build_harmonic_map(scen.metric, float(p.get("ell", "0")),
                                  int(p.get("direction", "1")))
        base = rescale_Q(qmap, float(p["scale"]), grid)
        bump = float(p["amplitude"]) * bump_profile(
            grid.r, 1.0, float(p["center"]), float(p["width"]))
        return RadialField(grid, base.psi + bump,
                           base.psi_dot + float(p.get("velocity", "0"))
                           * bump, base.ell0, base.ell_inf, 0.0)
    if fam == "chain":
        field, _, _ = make_chain(grid, scen.metric,
                                 float(p.get("ell_outer", "0")),
                                 _chain_steps(scen))
        return field
    if fam == "snapshot":
        field, metric_id = read_snapshot(p["path"])
        if metric_id != scen.metric.id:
            raise CliError(f"snapshot {p['path']} was written for metric "
                           f"{metric_id!r}, scenario uses "
                           f"{scen.metric.id!r}")
        return field
    raise CliError(f"unknown data family {fam!r}")


# ---------------------------------------------------------------------------
# trajectory directories

def save_trajectory(traj, out_dir, metric_id):
    os.makedirs(out_dir, exist_ok=True)
    cp = ConfigParser()
    cp["trajectory"] = {
        "metric": metric_id,
        "scheme": traj.scheme,
        "dt": FMT % traj.dt,
        "cfl": FMT % traj.cfl,
        "frames": str(len(traj.snapshots)),
        "status": "truncated" if traj.blowup is not None else "completed",
    }
    if traj.blowup is not None:
        b = traj.blowup
        cp["blowup"] = {
            "t_plus": FMT % b.t_plus,
            "concentration_radius": FMT % b.concentration_radius,
            "last_valid_time": FMT % b.last_valid_time,
            "reason": b.reason,
        }
    with open(os.path.join(out_dir, "manifest.cfg"), "w") as fh:
        cp.write(fh)
    for i, snap in enumerate(traj.snapshots):
        write_snapshot(snap, os.path.join(out_dir, "frame-%06d.snap" % i),
                       metric_id)


def load_trajectory(traj_dir):
    manifest = os.path.join(traj_dir, "manifest.cfg")
    if not os.path.isdir(traj_dir):
        raise CliError(f"no such trajectory directory: {traj_dir}")
    if not os.path.isfile(manifest):
        raise CliError(f"{traj_dir}: no manifest.cfg; not a trajectory "
                       f"directory")
    cp = ConfigParser()
    cp.read(manifest)
    metric_id = cp.get("trajectory", "metric")
    if metric_id not in BUILTIN_METRICS:
        raise CliError(f"{traj_dir}: metric {metric_id!r} is not a "
                       f"builtin; re-run from the original config")
    names = sorted(n for n in os.listdir(traj_dir)
                   if n.startswith("frame-") and n.endswith(".snap"))
    if not names:
        raise CliError(f"{traj_dir}: no frame files")
    snaps = [read_snapshot(os.path.join(traj_dir, n))[0] for n in names]
    blow = None
    if cp.has_section("blowup"):
        blow = BlowupRecord(
            t_plus=cp.getfloat("blowup", "t_plus"),
            concentration_radius=cp.getfloat("blowup",
                                             "concentration_radius"),
            last_valid_time=cp.getfloat("blowup", "last_valid_time"),
            reason=cp.get("blowup", "reason"),
            radius_series=[])
    return Trajectory(snapshots=snaps, dt=cp.getfloat("trajectory", "dt"),
                      scheme=cp.get("trajectory", "scheme"),
                      cfl=cp.getfloat("trajectory", "cfl"),
                      system=BUILTIN_METRICS[metric_id], blowup=blow,
                      meta={"dir": traj_dir})


# ---------------------------------------------------------------------------
# subcommands

def run_simulate_one(scen):
    data = build_data(scen)
    traj = evolve(data, scen.metric, scen.t_final,
                  record_every=scen.record_every, cfl=scen.cfl,
                  boundary=scen.boundary)
    os.makedirs(scen.out_dir, exist_ok=True)
    save_trajectory(traj, scen.out_dir, scen.metric.id)
    write_series(traj, os.path.join(scen.out_dir, "series.csv"))
    status = "truncated" if traj.blowup is not None else "completed"
    print(f"{scen.path}: status {status}, {len(traj.snapshots)} frames "
          f"-> {scen.out_dir}")
    if traj.blowup is not None:
        print(f"{scen.path}: blow-up at t+ = {traj.blowup.t_plus:.6g} "
              f"(rho_c = {traj.blowup.concentration_radius:.6g})")

    code = 0
    vset = find_vanishing_set(scen.metric)
    for stage in scen.stages:
        if stage == "series":
            continue            # always written above
        try:
            if stage == "bubbles":
                rep = extract_bubbles(traj.snapshots[-1], scen.metric)
                write_bubble_report(rep, os.path.join(scen.out_dir,
                                                      "bubbles.report"))
                print(f"{scen.path}: bubbles J = {rep.J}, scales = "
                      f"{[float(FMT % s) for s in rep.scales]}")
            elif stage == "scattering":
                if traj.blowup is not None:
                    print(f"{scen.path}: skipped scattering (blow-up)")
                    continue
                ell = vset.nearest(traj.snapshots[0].ell_inf)
                state = build_scattering_state(traj, ell,
                                               count=scen.scattering_count)
                _write_scattering_report(
                    state, os.path.join(scen.out_dir, "scattering.report"))
                print(f"{scen.path}: scattering t* = {state.t_star:.6g}, "
                      f"defect = {state.defect:.6g}, worst match = "
                      f"{max(state.match_errors):.6g}")
            elif stage == "regular":
                if traj.blowup is None:
                    print(f"{scen.path}: skipped regular part (no blow-up)")
                    continue
                reg = extract_regular_part(traj)
                _write_regular_report(
                    reg, os.path.join(scen.out_dir, "regular.report"))
                print(f"{scen.path}: regular part ell* = "
                      f"{reg.ell_star.value:.6g}, final interior norm = "
                      f"{reg.interior_norms[-1]:.6g}")
        except ResolutionError as e:
            print(f"{scen.path}: error in stage {stage}: {e}",
                  file=sys.stderr)
            code = 1
    return code


def _write_scattering_report(state, path):
    cp = ConfigParser()
    cp["scattering"] = {
        "t_star": FMT % state.t_star,
        "ell": FMT % state.ell.value,
        "alpha_rule": state.alpha_rule,
        "defect": FMT % state.defect,
        "selected_times": " ".join(FMT % t for t in state.selected.times),
    }
    cp["match"] = {FMT % t: FMT % e
                   for t, e in zip(state.match_times, state.match_errors)}
    with open(path, "w") as fh:
        cp.write(fh)


def _write_regular_report(reg, path):
    cp = ConfigParser()
    cp["regular"] = {
        "ell_star": FMT % reg.ell_star.value,
        "settle_gap": FMT % reg.settle_gap,
        "interior_times": " ".join(FMT % t for t in reg.interior_times),
        "interior_norms": " ".join(FMT % v for v in reg.interior_norms),
    }
    with open(path, "w") as fh:
        cp.write(fh)


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
    return max([run_simulate_one(s) for s in scens])


def run_analyze(args):
    traj = load_trajectory(args.traj)
    ops = [o.strip() for o in args.ops.split(",") if o.strip()]
    for op in ops:
        if op not in KNOWN_OPS:
            raise CliError(f"unknown op {op!r} (known: "
                           f"{', '.join(KNOWN_OPS)})")
    vset = find_vanishing_set(traj.system)
    ell = vset.nearest(traj.snapshots[0].ell_inf)
    for op in ops:
        if op == "series":
            path = os.path.join(args.traj, "series.csv")
            write_series(traj, path)
            print(f"series = {path}")
        elif op == "select-times":
            sel = select_times(traj)
            for t, v in zip(sel.times, sel.values):
                print(f"select {FMT % t} = {FMT % v}")
        elif op == "lightcone":
            for row in lightcone_concentration(traj, args.A, ell=ell):
                print(f"lightcone {FMT % row.t} = {FMT % row.outside} "
                      f"{FMT % row.hl_fraction} {FMT % row.kin_fraction}")
        elif op == "linf":
            for t, v in linf_outside_cone(traj, args.cone_lambda):
                print(f"linf {FMT % t} = {FMT % v}")
        elif op == "s-norm":
            val = s_norm(traj, ell)
            print(f"s_norm = {FMT % val}")
    return 0


def run_resolve(args):
    if bool(args.snapshot) == bool(args.traj):
        raise CliError("resolve needs exactly one of --snapshot or --traj")
    if args.snapshot:
        if not os.path.isfile(args.snapshot):
            raise CliError(f"no such snapshot: {args.snapshot}")
        field, metric_id = read_snapshot(args.snapshot)
        if metric_id not in BUILTIN_METRICS:
            raise CliError(f"{args.snapshot}: metric {metric_id!r} is not "
                           f"a builtin")
        metric = BUILTIN_METRICS[metric_id]
        rep = extract_bubbles(field, metric)
        out = args.snapshot + ".bubbles"
        write_bubble_report(rep, out)
        print(f"J = {rep.J}")
        for j, lam in enumerate(rep.scales, start=1):
            print(f"scale {j} = {FMT % lam}")
        print(f"defect_fraction = {FMT % rep.defect_fraction}")
        for note in rep.notes:
            print(f"note: {note}")
        print(f"report = {out}")
        pyth = pythagorean_report(rep)
        print(f"within_bound = {pyth.within_bound} "
              f"(J = {pyth.j}, J_max = {pyth.j_max})")
        return 0

    traj = load_trajectory(args.traj)
    vset = find_vanishing_set(traj.system)
    if traj.blowup is not None:
        reg = extract_regular_part(traj)
        out = os.path.join(args.traj, "regular.report")
        _write_regular_report(reg, out)
        print(f"ell_star = {FMT % reg.ell_star.value}")
        print(f"settle_gap = {FMT % reg.settle_gap}")
        print(f"final_interior_norm = {FMT % reg.interior_norms[-1]}")
        print(f"report = {out}")
    else:
        ell = vset.nearest(traj.snapshots[0].ell_inf)
        state = build_scattering_state(traj, ell)
        out = os.path.join(args.traj, "scattering.report")
        _write_scattering_report(state, out)
        print(f"t_star = {FMT % state.t_star}")
        print(f"defect = {FMT % state.defect}")
        print(f"worst_match = {FMT % max(state.match_errors)}")
        print(f"report = {out}")
    return 0


# ---------------------------------------------------------------------------
# selftest: fast invariant suite over the library itself

def _check_harmonic_oracle():
    qmap = build_harmonic_map(SPHERE, 0.0, +1)
    r = np.logspace(-3, 3, 2000)
    from .statics import eval_Q
    err = float(np.max(np.abs(eval_Q(qmap, r) - 2.0 * np.arctan(r))))
    assert err < 1e-8, f"profile error {err:.3g}"
    assert abs(qmap.energy - 4.0) < 1e-6, f"energy {qmap.energy!r}"
    return f"max profile error {err:.2e}"

def _check_thresholds():
    d0, e0 = compute_delta0(SPHERE, K=4.0)
    assert abs(d0 - 0.5) < 1e-12
    assert abs(e0 - (4.0 - math.sqrt(15.0))) < 1e-9
    d1, e1 = compute_delta0(YANG_MILLS, K=2.0)
    assert abs(d1 - 0.5) < 1e-12
    assert abs(e1 - (2.0 - math.sqrt(3.0))) < 1e-9
    return f"sphere eps0 = {e0:.10f}"

def _check_energy_conservation():
    grid = RadialGrid(20.0, 2048)
    f = make_bump(grid, SPHERE, 0.0, amplitude=0.1, center=5.0, width=3.0)
    traj = evolve(f, SPHERE, 5.0, record_every=128)
    e0 = energy(traj.snapshots[0], SPHERE).total
    drift = max(abs(energy(s, SPHERE).total - e0)
                for s in traj.snapshots) / e0
    assert drift < 1e-4, f"drift {drift:.3g}"
    return f"relative drift {drift:.2e}"

def _check_stationarity():
    grid = RadialGrid(20.0, 1000)
    f = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 1.0, grid)
    traj = evolve(f, SPHERE, 1.0, record_every=10 ** 9,
                  detect_blowup=False)
    dev = float(np.max(np.abs(traj.snapshots[-1].psi - f.psi)))
    assert dev < 1e-4, f"deviation {dev:.3g}"
    return f"max deviation {dev:.2e}"

def _check_linear_conservation():
    root = find_vanishing_set(SPHERE).root_at(0.0)
    grid = RadialGrid(12.0, 4096)
    from .data import make_perturbation
    f = make_perturbation(grid, amplitude=0.1, center=4.0, width=2.5)
    traj = evolve(f, root, 3.0, record_every=256, cfl=0.25,
                  detect_blowup=False)
    e0 = discrete_energy(traj.snapshots[0], root)
    drift = max(abs(discrete_energy(s, root) - e0)
                for s in traj.snapshots) / e0
    assert drift < 1e-6, f"drift {drift:.3g}"
    return f"discrete-energy drift {drift:.2e}"

def _check_extraction():
    grid = RadialGrid(5.0, 2 ** 14)
    f = rescale_Q(build_harmonic_map(SPHERE, 0.0, +1), 2e-2, grid)
    rep = extract_bubbles(f, SPHERE)
    assert rep.J == 1, f"J = {rep.J}"
    err = abs(rep.scales[0] - 2e-2) / 2e-2
    assert err < 1e-3, f"scale error {err:.3g}"
    root = find_vanishing_set(SPHERE).root_at(0.0)
    res = residual_norms(rep, root).h_x_l2
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
    import tempfile
    grid = RadialGrid(10.0, 257)
    gen = np.random.default_rng(3)
    f = RadialField(grid, gen.standard_normal(257),
                    gen.standard_normal(257), 0.25, -1.75, 3.0625)
    with tempfile.TemporaryDirectory() as d:
        p1 = os.path.join(d, "a.snap")
        p2 = os.path.join(d, "b.snap")
        write_snapshot(f, p1, "sphere")
        g, _ = read_snapshot(p1)
        write_snapshot(g, p2, "sphere")
        with open(p1, "rb") as fh1, open(p2, "rb") as fh2:
            assert fh1.read() == fh2.read(), "bytes differ"
    return "write -> read -> write byte-identical"

def _check_series_determinism():
    import tempfile
    from .data import make_perturbation
    root = find_vanishing_set(SPHERE).root_at(0.0)
    grid = RadialGrid(30.0, 512)
    f = make_perturbation(grid, amplitude=0.1, center=8.0, width=3.0)
    traj = evolve(f, root, 3.0, record_every=64, detect_blowup=False)
    with tempfile.TemporaryDirectory() as d:
        p1 = os.path.join(d, "a.csv")
        p2 = os.path.join(d, "b.csv")
        write_series(traj, p1)
        write_series(traj, p2)
        with open(p1, "rb") as fh1, open(p2, "rb") as fh2:
            assert fh1.read() == fh2.read(), "bytes differ"
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

    ana = sub.add_parser("analyze", help="diagnostics over a stored "
                                         "trajectory")
    ana.add_argument("--traj", required=True, help="trajectory directory")
    ana.add_argument("--ops", required=True,
                     help="comma list: " + ", ".join(KNOWN_OPS))
    ana.add_argument("--A", type=float, default=10.0,
                     help="lightcone shell width")
    ana.add_argument("--cone-lambda", type=float, default=0.5)

    res = sub.add_parser("resolve", help="bubble / scattering / regular "
                                         "pipelines")
    res.add_argument("--snapshot", help="snapshot file to decompose")
    res.add_argument("--traj", help="trajectory directory to resolve")

    st = sub.add_parser("selftest", help="fast invariant suite")
    st.add_argument("--filter", help="substring of suite names to run")
    return ap


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        if args.cmd == "simulate":
            return run_simulate(args)
        if args.cmd == "analyze":
            return run_analyze(args)
        if args.cmd == "resolve":
            return run_resolve(args)
        if args.cmd == "selftest":
            return run_selftest(args)
    except (CliError, GeometryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
