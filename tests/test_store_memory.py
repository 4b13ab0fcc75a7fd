"""Every command holds one frame at a time.

simulate streams each frame into the store as the run makes it, and
analyze and resolve read the frames back by offset, one at a time, so a
command's peak memory does not grow with the frame count.  One run, a
sphere bump on n = 2048 nodes to t = 70, is stored at record_every 1
(2869 frames, 94 MB of frames) and at record_every 512 (7 frames); each
command's peak RSS, read with os.wait4 from a fresh interpreter, must
agree within 5 MB between the two stores.  The two stores' commands run
side by side, so the test costs about the one long chain.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EVERY = (1, 512)
SLACK_MB = 5.0


def _config(path, out, every):
    path.write_text(
        "[metric]\ntarget = sphere\n\n"
        "[data]\nfamily = bump\namplitude = 0.08\ncenter = 10\nwidth = 4\n\n"
        "[grid]\nr_max = 100\nn_points = 2048\n\n"
        f"[time]\nt_final = 70\nrecord_every = {every}\n\n"
        "[pipeline]\nstages = series\n\n"
        f"[output]\ndir = {out}\n")
    return str(path)


def _side_by_side(commands, cwd, env):
    """(exit code, peak RSS in MB) of each command, all run at once."""
    procs = [subprocess.Popen([sys.executable, "-m", "wavemap.cli", *args],
                              cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
             for args in commands]
    results = []
    for proc in procs:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        results.append((proc.returncode, usage.ru_maxrss / 1024.0))
    return results


def test_peak_memory_does_not_grow_with_the_frame_count(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    stores = [tmp_path / f"every-{every}" for every in EVERY]
    cfgs = [_config(tmp_path / f"every-{every}.cfg", store, every)
            for every, store in zip(EVERY, stores)]
    peaks = {}
    for name, commands in (
            ("simulate", [["simulate", "--config", cfg] for cfg in cfgs]),
            ("analyze", [["analyze", "--traj", str(store), "--ops",
                          "linf,s-norm"] for store in stores]),
            ("resolve", [["resolve", "--traj", str(store)]
                         for store in stores])):
        (code_long, long), (code_short, short) = \
            _side_by_side(commands, tmp_path, env)
        # 7 frames are too few to select times from: the short store's
        # resolve is refused once it has read the store
        assert code_long == 0 and code_short == (name == "resolve"), name
        peaks[name] = long, short
    frames = (stores[0] / "frames.npy").stat().st_size
    assert frames > 90e6
    assert all(abs(long - short) < SLACK_MB
               for long, short in peaks.values()), peaks
