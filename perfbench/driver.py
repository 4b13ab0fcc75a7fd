"""Child process of the benchmark; run.py starts it with PYTHONPATH=src.

    driver.py setup <config>                  import wavemap.cli, load_scenario
    driver.py cli <wavemap arguments...>      cli.main in-process, traced
    driver.py sweep <specs.json> [--trace]    extract_bubbles over chains
    driver.py ensemble <params.json> [--trace]

Each mode prints one JSON object as its last stdout line.  "ready" is the
CLOCK_MONOTONIC reading when set-up ended (the import plus, for the library
modes, the untimed first call); run.py subtracts its own reading at spawn.
The exit status is 0, or the status cli.main returned.
"""

import contextlib
import io
import json
import sys
import time

from tracer import Tracer


def setup(config):
    import wavemap.cli as cli
    cli.load_scenario(config)
    return {"ready": time.monotonic()}


def traced_cli(argv):
    tracer = Tracer()
    t0 = time.perf_counter()
    import wavemap.cli as cli
    import_s = time.perf_counter() - t0
    tracer.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    trace = dict(tracer.report(), cli_import_s=import_s)
    return {"stdout": captured.getvalue(), "trace": trace}, code


def sweep(spec_path, tracer):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy as np
    from wavemap import evolution, geometry, resolution
    if tracer:
        tracer.install()
    grid = evolution.RadialGrid(spec["r_max"], spec["n_points"])

    def chain(c):
        """Closed-form sphere chain, sign * sum_j (2 arctan(r/lam_j) - pi):
        one connector per scale, descending from 0 at infinity."""
        sign, scales = c["sign"], c["scales"]
        psi = sign * sum(2.0 * np.arctan(grid.r / lam) - np.pi
                         for lam in scales)
        return evolution.RadialField(grid, psi, np.zeros_like(psi),
                                     ell0=-sign * len(scales) * np.pi,
                                     ell_inf=0.0, time=0.0)

    chains = spec["chains"]
    # one untimed extraction per chain shape builds every connector the
    # sweep needs, so connector construction is paid here, in set-up
    shapes = {}
    for c in chains:
        shapes.setdefault((c["sign"], len(c["scales"])), c)
    for c in shapes.values():
        resolution.extract_bubbles(chain(c), geometry.SPHERE)
    ready = time.monotonic()

    latencies, bad = [], []
    t0 = time.perf_counter()
    for k, c in enumerate(chains):
        field = chain(c)
        a = time.perf_counter()
        rep = resolution.extract_bubbles(field, geometry.SPHERE)
        latencies.append(time.perf_counter() - a)
        planted = c["scales"]
        if rep.J != len(planted):
            bad.append([k, f"J = {rep.J}, planted {len(planted)}: "
                           f"{'; '.join(rep.notes)}"])
            continue
        err = max(abs(s / s0 - 1.0) for s, s0 in zip(rep.scales, planted))
        if not err <= spec["scale_tol"]:
            bad.append([k, f"scale error {err:.3g} > {spec['scale_tol']}"])
    result = {"ready": ready, "sweep_s": time.perf_counter() - t0,
              "extract_s": latencies, "bad": bad}
    return result


def ensemble(param_path, tracer):
    with open(param_path) as fh:
        p = json.load(fh)
    from wavemap import diagnostics, evolution, geometry
    if tracer:
        tracer.install()
    grid = evolution.RadialGrid(p["r_max"], p["n_points"])
    root = geometry.find_vanishing_set(geometry.SPHERE).root_at(0.0)
    diagnostics.beta_hat_ensemble(grid, root, p["t"], n_data=1,
                                  seed=p["seed"])
    ready = time.monotonic()
    t0 = time.perf_counter()
    beta, _ = diagnostics.beta_hat_ensemble(grid, root, p["t"],
                                            n_data=p["n_data"],
                                            seed=p["seed"])
    return {"ready": ready, "ensemble_s": time.perf_counter() - t0,
            "beta_hat": repr(beta)}


def main(argv):
    mode, rest = argv[0], argv[1:]
    code = 0
    if mode == "setup":
        result = setup(rest[0])
    elif mode == "cli":
        result, code = traced_cli(rest)
    else:
        tracer = Tracer() if "--trace" in rest[1:] else None
        result = {"sweep": sweep, "ensemble": ensemble}[mode](rest[0], tracer)
        if tracer:
            result["trace"] = tracer.report()
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
