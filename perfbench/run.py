#!/usr/bin/env python3
"""Benchmark for wavemap, driven from outside the package.

    python3 perfbench/run.py --workload global-8k --seed 1 --seconds 30 \
        --trace 0

Workloads (BENCHMARK.json says why each exists):

    demo          cold `simulate` of configs/sphere-small-data.cfg
    global-8k     seeded n = 8192 global run: cold simulate, analyze, resolve
    bubble-sweep  driver processes extracting seeded closed-form bubble chains
    ensemble      driver processes running beta_hat_ensemble

The load is a closed loop with one client: every process starts after the
previous one exits, so only one runs at a time.  An iteration is the
workload's unit (one command sequence, or one driver process); iterations
repeat until the next one would overrun --seconds, with at least two so the
cross-iteration output checks have something to compare.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, each the
median over iterations.  --trace 1 runs one untraced and one traced
iteration and prints the per-layer metrics; tracing patches the package's
public functions from perfbench/tracer.py, nothing inside the package.

Every output is written under .perfbench-tmp/ in the checkout and removed
at exit.  The last stdout line is the JSON result; the lines before it are
the per-command timings, failures and provenance.
"""

import argparse
import configparser
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER = str(HERE / "driver.py")
DEMO_CFG = ROOT / "configs" / "sphere-small-data.cfg"
REQUIRED = (ROOT / "BENCHMARK.json", ROOT / "src" / "wavemap" / "cli.py",
            DEMO_CFG)

RUN_LIMIT_S = 170        # children are killed after this; runs must end by 180
MIN_ITERATIONS = 2
SETUP_PROBES = 3         # fresh `import wavemap.cli` + load_scenario processes
SWEEP_CHAINS = 100       # extractions per bubble-sweep process
SCALE_TOL = 0.05         # scale tolerance pinned by acceptance criterion c06
STORE_FILES = ("manifest.cfg", "series.csv", "scattering.report")
ANALYZE_OPS = "series,select-times,lightcone,linf,s-norm"


@dataclass
class Proc:
    start: float         # CLOCK_MONOTONIC at spawn
    wall: float
    code: int | None     # exit status, None when killed on the time limit
    stdout: str
    stderr: str


def _text(data):
    if isinstance(data, bytes):
        return data.decode(errors="replace")
    return data or ""


def process_failure(proc):
    if proc.code is None:
        return "killed at the run time limit"
    if proc.code != 0:
        return f"exit status {proc.code}"
    if "Traceback (most recent call last)" in proc.stderr:
        return "traceback on stderr"
    return None


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def read_ini(path):
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    return cp


class Bench:
    """Process runner plus the run's samples and failure ledger."""

    def __init__(self, tmp, seconds):
        self.tmp = tmp
        now = time.monotonic()
        self.budget_end = now + seconds
        self.deadline = now + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("WAVEMAP_THREADS", None)
        self.attempted = 0
        self.failures = []
        self.failed = 0
        self.walls = []
        self.setups = []
        self.samples = defaultdict(list)
        self.traces = []

    def spawn(self, argv):
        start = time.monotonic()
        try:
            p = subprocess.run(argv, cwd=self.tmp, env=self.env, text=True,
                               capture_output=True,
                               timeout=max(1.0, self.deadline - start))
            code, out, err = p.returncode, p.stdout, p.stderr
        except subprocess.TimeoutExpired as e:
            code, out, err = None, _text(e.stdout), _text(e.stderr)
        return Proc(start, time.monotonic() - start, code, out, err)

    def fail(self, op, seconds, reason, stderr="", count=1):
        """A failed op keeps its time and the tail of its stderr."""
        tail = stderr.strip().splitlines()[-5:]
        self.failed += count
        self.failures.append({"op": op, "seconds": seconds, "reason": reason,
                              "count": count, "stderr_tail": tail})
        print(f"FAILED {op} after {seconds:.3f} s: {reason}", file=sys.stderr)
        for line in tail:
            print(f"  | {line}", file=sys.stderr)

    def child(self, op, argv, count=1):
        """Run a driver.py child; returns its JSON result, or None if the
        process failed (then all `count` ops it carried count as failed)."""
        proc = self.spawn(argv)
        self.attempted += count
        reason = process_failure(proc)
        result = None
        if reason is None:
            try:
                result = last_json(proc.stdout)
            except ValueError:
                pass
            if not isinstance(result, dict):
                reason, result = "no JSON result line", None
        if reason:
            self.fail(op, proc.wall, reason, proc.stderr, count)
        return proc, result

    def command(self, name, args, traced, check):
        """One wavemap command: a cold `python -m wavemap.cli` process, or
        cli.main traced in-process by driver.py.  `check(stdout)` returns
        a failure reason or None."""
        if traced:
            proc, result = self.child(name, [sys.executable, DRIVER, "cli",
                                             *args])
            if result is None:
                return
            self.traces.append(result["trace"])
            stdout = result["stdout"]
        else:
            proc = self.spawn([sys.executable, "-m", "wavemap.cli", *args])
            self.attempted += 1
            self.samples[name + "_s"].append(proc.wall)
            stdout = proc.stdout
        reason = process_failure(proc)
        if reason is None:
            try:
                reason = check(stdout)
            except (OSError, ValueError, KeyError, configparser.Error) as e:
                reason = f"output check: {e!r}"
        if reason:
            self.fail(name, proc.wall, reason, proc.stderr)

    def setup_probe(self, config):
        proc, result = self.child("setup", [sys.executable, DRIVER, "setup",
                                            str(config)])
        if result is not None:
            self.setups.append(result["ready"] - proc.start)


# ---------------------------------------------------------------------------
# workloads: prepare() builds the inputs from the seed; iteration() runs one
# iteration and returns its wall time, first spawn to last exit

class Demo:
    setup_config = DEMO_CFG

    def prepare(self, seed, tmp):
        pass                        # the shipped config; the seed is unused

    def iteration(self, b, i, traced):
        out = b.tmp / f"demo-{i}"
        t0 = time.monotonic()
        b.command("simulate", ["simulate", "--config", str(DEMO_CFG),
                               "--out", str(out)], traced,
                  lambda stdout: self.check(out))
        wall = time.monotonic() - t0
        shutil.rmtree(out, ignore_errors=True)
        return wall

    @staticmethod
    def check(out):
        status = read_ini(out / "manifest.cfg").get("trajectory", "status")
        if status != "completed":
            return f"status {status}"
        j = read_ini(out / "bubbles.report").getint("report", "j")
        if j != 0:
            return f"J = {j}, expected 0"
        sc = read_ini(out / "scattering.report")
        defect = sc.getfloat("scattering", "defect")
        worst = max(float(v) for v in sc["match"].values())
        if not worst <= defect:
            return f"worst match {worst:g} > defect {defect:g}"
        return None


class Global8k:
    """Global regime: amplitude, center and width keep the bump small and
    its support under 17, so t = 70 is at least 4x the support radius and
    the scattering construction applies."""

    def prepare(self, seed, tmp):
        rng = random.Random(f"global-8k:{seed}")
        amplitude = rng.uniform(0.05, 0.1)
        center = rng.uniform(8.0, 12.0)
        width = rng.uniform(3.0, 5.0)
        self.setup_config = tmp / "global-8k.cfg"
        self.setup_config.write_text(
            "[metric]\ntarget = sphere\n\n"
            f"[data]\nfamily = bump\nell = 0\namplitude = {amplitude!r}\n"
            f"center = {center!r}\nwidth = {width!r}\n\n"
            "[grid]\nr_max = 100\nn_points = 8192\n\n"
            "[time]\nt_final = 70\ncfl = 0.5\nrecord_every = 128\n\n"
            "[pipeline]\nstages = series, scattering\n\n"
            f"[output]\ndir = {tmp / 'unused'}\n")
        self.reference = None       # store files of the first iteration

    def iteration(self, b, i, traced):
        traj = b.tmp / "global-8k"
        shutil.rmtree(traj, ignore_errors=True)
        saved = {}

        def after_simulate(stdout):
            saved.update((n, (traj / n).read_bytes()) for n in STORE_FILES)
            status = read_ini(traj / "manifest.cfg").get("trajectory",
                                                         "status")
            if status != "completed":
                return f"status {status}"
            if self.reference is None:
                self.reference = dict(saved)
            changed = [n for n in STORE_FILES if saved[n] != self.reference[n]]
            return f"differs from iteration 0: {changed}" if changed else None

        def after_analyze(stdout):
            values = [float(line.split("=", 1)[1]) for line in
                      stdout.splitlines() if line.startswith("s_norm =")]
            if len(values) != 1 or not math.isfinite(values[0]):
                return f"s_norm {values}, expected one finite value"
            if (traj / "series.csv").read_bytes() != saved["series.csv"]:
                return "series.csv rewritten from the store differs"
            return None

        def after_resolve(stdout):
            if (traj / "scattering.report").read_bytes() != \
                    saved["scattering.report"]:
                return "scattering.report from the store differs"
            return None

        t0 = time.monotonic()
        b.command("simulate", ["simulate", "--config",
                               str(self.setup_config), "--out", str(traj)],
                  traced, after_simulate)
        b.command("analyze", ["analyze", "--traj", str(traj), "--ops",
                              ANALYZE_OPS], traced, after_analyze)
        b.command("resolve", ["resolve", "--traj", str(traj)], traced,
                  after_resolve)
        wall = time.monotonic() - t0
        shutil.rmtree(traj, ignore_errors=True)
        return wall


class BubbleSweep:
    """Closed-form sphere chains on 2^15 nodes over r_max = 4 (8 dr is
    9.8e-4).  One-bubble scales lie in [0.01, 0.3]; two-bubble chains put
    the inner scale 100 to 250 times below an outer one in [0.25, 0.5], so
    every scale spans at least 8 dr and the pair sits far below the 0.2
    separation floor."""

    setup_config = None

    def prepare(self, seed, tmp):
        rng = random.Random(f"bubble-sweep:{seed}")
        chains = []
        for k in range(SWEEP_CHAINS):
            sign = rng.choice((1, -1))
            if k % 2 == 0:
                scales = [rng.uniform(0.01, 0.3)]
            else:
                outer = rng.uniform(0.25, 0.5)
                scales = [outer, outer * rng.uniform(0.004, 0.01)]
            chains.append({"sign": sign, "scales": scales})
        self.spec = tmp / "bubble-sweep.json"
        self.spec.write_text(json.dumps({"r_max": 4.0, "n_points": 2 ** 15,
                                         "scale_tol": SCALE_TOL,
                                         "chains": chains}))

    def iteration(self, b, i, traced):
        argv = [sys.executable, DRIVER, "sweep", str(self.spec)]
        proc, result = b.child("bubble-sweep", argv + ["--trace"] * traced,
                               count=SWEEP_CHAINS)
        if result is None:
            return proc.wall
        for k, reason in result["bad"]:
            b.fail(f"extraction {k}", result["extract_s"][k], reason)
        if traced:
            b.traces.append(result["trace"])
        else:
            b.setups.append(result["ready"] - proc.start)
            b.samples["sweep_s"].append(result["sweep_s"])
            b.samples["extract_ms"].extend(1e3 * s
                                           for s in result["extract_s"])
        return proc.wall


class Ensemble:
    setup_config = None

    def prepare(self, seed, tmp):
        rng = random.Random(f"ensemble:{seed}")
        self.params = tmp / "ensemble.json"
        self.params.write_text(json.dumps({
            "r_max": 128.0, "n_points": 2048, "t": 20.0, "n_data": 100,
            "seed": rng.getrandbits(63) | 1}))
        self.reference = None

    def iteration(self, b, i, traced):
        argv = [sys.executable, DRIVER, "ensemble", str(self.params)]
        proc, result = b.child("ensemble", argv + ["--trace"] * traced)
        if result is None:
            return proc.wall
        beta = float(result["beta_hat"])
        if self.reference is None:
            self.reference = result["beta_hat"]
        if not beta > 0.0:
            b.fail("ensemble", result["ensemble_s"], f"beta_hat {beta!r}")
        elif result["beta_hat"] != self.reference:
            b.fail("ensemble", result["ensemble_s"],
                   f"beta_hat {result['beta_hat']} != {self.reference} "
                   "for the same seed")
        if traced:
            b.traces.append(result["trace"])
        else:
            b.setups.append(result["ready"] - proc.start)
            b.samples["ensemble_s"].append(result["ensemble_s"])
        return proc.wall


WORKLOADS = {"demo": Demo, "global-8k": Global8k,
             "bubble-sweep": BubbleSweep, "ensemble": Ensemble}


# ---------------------------------------------------------------------------
# metrics

def median_or_none(values):
    return statistics.median(values) if values else None


def end_to_end(b):
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"wall_s": median_or_none(b.walls),
            "setup_s": median_or_none(b.setups),
            "peak_rss_mb": rss_kib / 1024.0}


def detail(b):
    """Per-command medians and extraction percentiles, printed, not gated."""
    out = {name: statistics.median(v) for name, v in b.samples.items()
           if name != "extract_ms"}
    lat = b.samples.get("extract_ms")
    if lat:
        out["extract_ms_p50"] = statistics.median(lat)
        out["extract_ms_p90"] = statistics.quantiles(lat, n=10)[-1]
        out["extractions"] = len(lat)
    return out


def per_layer(traces, untraced_wall, traced_wall):
    """Fold the traced processes' reports into the per-layer metrics."""
    funcs = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    for tr in traces:
        for qual, row in tr["functions"].items():
            funcs[qual] = [a + x for a, x in zip(funcs[qual], row)]
        for key, n in tr["counts"].items():
            counts[key] += n
    values = {
        "cli.import_s": sum(tr.get("cli_import_s", 0.0) for tr in traces),
        "cli.save_trajectory_bytes": counts["save_trajectory_bytes"],
        "cli.load_trajectory_bytes": counts["load_trajectory_bytes"],
        "statics.connectors_built": counts["connectors_built"],
        "resolution.bubbles_found": counts["bubbles_found"],
        "evolution.node_steps": counts["node_steps"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": sum(tr["unattributed_s"] for tr in traces),
        "trace.spans": sum(tr["spans"] for tr in traces),
    }
    for module, functions in TARGETS.items():
        values[f"{module}.self_s"] = 0.0
        for name in functions:
            calls, incl, self_s = funcs[f"{module}.{name}"]
            values[f"{module}.{name}_calls"] = calls
            values[f"{module}.{name}_s"] = incl
            values[f"{module}.self_s"] += self_s
    steps = counts["node_steps"]
    values["evolution.ns_per_node_step"] = \
        1e9 * values["evolution.evolve_s"] / steps if steps else 0.0
    return values


def provenance():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"
    return {"commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a wavemap checkout, missing {missing}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        b = Bench(tmp, args.seconds)
        wl = WORKLOADS[args.workload]()
        wl.prepare(args.seed, tmp)
        # untimed: compiles bytecode and warms the file cache
        warm = b.spawn([sys.executable, "-c", "import wavemap.cli"])
        b.attempted += 1
        if process_failure(warm):
            b.fail("warm-up import", warm.wall, process_failure(warm),
                   warm.stderr)

        if args.trace:
            untraced = wl.iteration(b, 0, False)
            traced = wl.iteration(b, 1, True)
            values = per_layer(b.traces, untraced, traced)
        else:
            if wl.setup_config is not None:
                for _ in range(SETUP_PROBES):
                    b.setup_probe(wl.setup_config)
            i = 0
            while True:
                b.walls.append(wl.iteration(b, i, False))
                i += 1
                if i >= MIN_ITERATIONS and (time.monotonic()
                                            + statistics.median(b.walls)
                                            > b.budget_end):
                    break
            values = end_to_end(b)
            print("detail " + json.dumps(dict(detail(b), walls=b.walls,
                                              setups=b.setups)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass                    # another run still uses it

    print("provenance " + json.dumps(provenance()))
    if b.failures:
        print("failures " + json.dumps(b.failures))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": b.failed == 0, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
