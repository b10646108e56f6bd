#!/usr/bin/env python3
"""Repo benchmark: end-to-end metrics per workload, or a per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload smg98-64 --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (wall and CPU time of
the timed body, set-up time, peak RSS, artifact size); with
``--trace 1`` they are the per-layer ledger (self time, calls and layer
entries per ``repro`` package, simulator counters, the profiler's
overhead and the runner's per-point wall times).  ``--pin`` re-pins the
output digests.

Every measurement runs in a fresh interpreter with a fixed
``PYTHONHASHSEED`` inside a private directory under the checkout that
is deleted afterwards.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from ledger import LAYERS, OTHER, aggregate, totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
#: Seeds whose output digests are pinned: the default and a held-out one.
PINNED_SEEDS = (0, 2003)
#: Timed set-up probes per run, besides the body's own set-up.
SETUP_PROBES = 3
#: Wall-clock budget of one run, all child processes included.
RUN_BUDGET_S = 170.0
#: Protocol prefix of the lines a child process reports on.
MARK = "@@perfbench "
#: Simulator counters reported by the traced run (docs/observability.md).
OBS_COUNTERS = (
    "simt.events", "mpi.eager_sends", "mpi.rendezvous_sends", "mpi.wire_bytes",
    "vt.records", "vt.flushes", "vt.confsync_epochs", "dynprof.probe_inserts",
    "obs.sampler_ticks", "replay.recorded_decisions",
)


# -- child side: one fresh interpreter --------------------------------------------


def _announce(kind: str, doc=None) -> None:
    line = MARK + kind + ("" if doc is None else " " + json.dumps(doc))
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def _fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _cpu_seconds() -> float:
    """User+system time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _pinned(workload: str, seed: int):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def verify(passes, reference=None):
    """Count attempted and failed points over a run's passes.

    An output fails when it raised, when its pass broke an invariant, or
    when its digest differs from ``reference`` (the pinned digests; by
    default the run's first pass).  Returns (attempted, failed, notes).
    """
    if reference is None:
        reference = {label: value for label, (value, _n) in passes[0].outputs.items()}
    attempted = failed = 0
    notes = []
    for p in passes:
        notes += p.problems
        for label, (value, n) in p.outputs.items():
            attempted += n
            expected = reference.get(label, value)
            if value != expected:
                notes.append(f"{label}: output digest {value} != {expected}")
            if value is None or value != expected or p.problems:
                failed += n
    return attempted, failed, notes


def _timed_pass(wl, workdir: Path, profile=None, collect_obs=False):
    """Run one pass cold in a fresh directory; returns (pass, wall, cpu, bytes)."""
    pass_dir = _fresh_dir(workdir, "pass")
    gc.collect()
    t0, c0 = time.perf_counter(), _cpu_seconds()
    if profile is not None:
        profile.enable()
    try:
        result = wl.run_pass(str(pass_dir), collect_obs=collect_obs)
    finally:
        if profile is not None:
            profile.disable()
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
    size = _tree_bytes(pass_dir)
    shutil.rmtree(pass_dir)
    return result, wall, cpu, size


def measure(wl, workdir: Path, seconds: float, reference):
    """The end-to-end run: whole passes until ``seconds`` are used up."""
    passes, walls, cpus, sizes = [], [], [], []
    start = time.perf_counter()
    while True:
        result, wall, cpu, size = _timed_pass(wl, workdir)
        passes.append(result)
        walls.append(wall)
        cpus.append(cpu)
        sizes.append(size)
        # Start another pass only if it ends less than half a pass late.
        if time.perf_counter() - start + wall / 2 >= seconds:
            break
    final = wl.final_check(str(_fresh_dir(workdir, "final")), passes[0])
    attempted, failed, notes = verify(passes + [final], reference)
    # Means, not medians: a run holds only 3-4 passes of the runner
    # workloads, and the host's speed drifts from pass to pass, so the
    # mean over all the timed seconds is the steadier figure.
    metrics = {
        "wall_s": (statistics.fmean(walls), "s"),
        "cpu_s": (statistics.fmean(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "artifact_mb": (statistics.median(sizes) / 1e6, "MB"),
    }
    return {
        "attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics,
        "samples": {"pass_walls": walls,
                    "point_walls": [p.point_walls for p in passes]},
        "digests": {label: value for p in (passes[0], final)
                    for label, (value, _n) in p.outputs.items()},
    }


def trace(wl, workdir: Path, reference):
    """The traced run: one untraced pass, then two passes under cProfile.

    Calls, entries and simulator counters must repeat exactly across the
    two traced passes.  Counters come from two extra obs-collecting
    passes when the workload's own passes collect none, so that the
    profiled passes keep the obs layer on its off path.
    """
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    plain, plain_wall, _, _ = _timed_pass(wl, workdir)
    passes, walls, ledgers = [plain], [], []
    for _ in range(2):
        profile = cProfile.Profile()
        result, wall, _, _ = _timed_pass(wl, workdir, profile=profile)
        passes.append(result)
        walls.append(wall)
        ledgers.append(aggregate(pstats.Stats(profile).stats, package_root))
    counters = [p.counters for p in passes[1:]]
    if not counters[0]:
        counters = [_timed_pass(wl, workdir, collect_obs=True)[0].counters
                    for _ in range(2)]
    final = wl.final_check(str(_fresh_dir(workdir, "final")), plain)
    attempted, failed, notes = verify(passes + [final], reference)
    if totals(ledgers[0]) != totals(ledgers[1]) or counters[0] != counters[1]:
        notes.append("traced passes differ in calls, entries or counters: "
                     f"{totals(ledgers[0])} {counters[0]} vs "
                     f"{totals(ledgers[1])} {counters[1]}")
    metrics = {}
    for layer in LAYERS:
        rows = [ledger[layer] for ledger in ledgers]
        metrics[f"{layer}.self_s"] = (statistics.fmean(r["self_s"] for r in rows), "s")
        metrics[f"{layer}.calls"] = (rows[0]["calls"], "count")
        metrics[f"{layer}.entries"] = (rows[0]["entries"], "count")
    metrics[f"{OTHER}.self_s"] = (
        statistics.fmean(ledger[OTHER]["self_s"] for ledger in ledgers), "s")
    for name in OBS_COUNTERS:
        metrics[name] = (counters[0].get(name, 0),
                         "bytes" if name.endswith("_bytes") else "count")
    metrics["trace.overhead"] = (statistics.fmean(walls) / plain_wall, "ratio")
    # The runner's wall time per computed point, from the untraced pass.
    point_walls = list(plain.point_walls.values())
    metrics["runner.point_p50_s"] = (statistics.median(point_walls), "s")
    metrics["runner.point_max_s"] = (max(point_walls), "s")
    return {
        "attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics,
        "samples": {"plain_wall": plain_wall, "traced_walls": walls,
                    "point_walls": plain.point_walls},
    }


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    workdir = Path(args.workdir)
    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up(str(_fresh_dir(workdir, "warm-up")))
    shutil.rmtree(workdir / "warm-up")
    _announce("ready")
    if args.child == "setup":
        return 0
    reference = None if args.unpinned else _pinned(args.workload, args.seed)
    if args.child == "body":
        doc = measure(wl, workdir, args.seconds, reference)
    else:
        doc = trace(wl, workdir, reference)
    _announce("result", doc)
    return 0


# -- parent side: orchestration --------------------------------------------------


class RunFailed(RuntimeError):
    pass


def spawn(mode: str, args, workdir: Path, deadline: float, unpinned: bool = False):
    """Run one child; returns (seconds until it was ready, its result doc)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if unpinned:
        cmd.append("--unpinned")
    # Bytecode goes to the run's private directory, whatever the caller's
    # environment says, so every run starts from the same state.
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(workdir),
               XDG_CACHE_HOME=str(workdir / "xdg"),
               PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    ready = doc = None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith(MARK + "ready"):
                ready = time.perf_counter() - start
            elif line.startswith(MARK + "result "):
                doc = json.loads(line[len(MARK + "result "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and doc is None):
        raise RunFailed(f"{mode} child exited with {code} before reporting")
    return ready, doc


def run_once(args, unpinned: bool = False) -> dict:
    """One benchmark run in a private directory; returns the child's doc."""
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            return spawn("trace", args, workdir, deadline, unpinned)[1]
        setups = []
        # The first probe is untimed: it absorbs bytecode compilation and
        # cold file caches, which a user pays once per install.
        for i in range(SETUP_PROBES + 1):
            ready, _ = spawn("setup", args, workdir, deadline)
            if i:
                setups.append(ready)
        ready, doc = spawn("body", args, workdir, deadline, unpinned)
        setups.append(ready)
        doc["metrics"]["setup_s"] = (statistics.median(setups), "s")
        doc["samples"]["setups"] = setups
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def pin(args) -> int:
    """Re-pin the output digests of every workload at the pinned seeds."""
    pinned = {}
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            one = argparse.Namespace(**{**vars(args), "workload": workload,
                                        "seed": seed, "seconds": 0, "trace": 0})
            doc = run_once(one, unpinned=True)
            if doc["failed"]:
                raise RunFailed(f"{workload} seed {seed}: {doc['notes']}")
            pinned.setdefault(workload, {})[str(seed)] = doc["digests"]
            print(f"pinned {workload} seed {seed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


def parent_main(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.pin:
        return pin(args)
    try:
        doc = run_once(args)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for note in doc["notes"]:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print("perfbench env: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "loadavg": os.getloadavg(), **doc["samples"],
    }))
    print(json.dumps({
        "correct": doc["failed"] == 0 and not doc["notes"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in doc["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="smg98-64")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the output digests at the pinned seeds")
    parser.add_argument("--child", choices=("setup", "body", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--unpinned", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
