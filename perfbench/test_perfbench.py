"""Self-tests of the benchmark harness (``python3 -m pytest perfbench``).

They need no simulation: the ledger is fed a synthetic profile, the
digest check is fed pinned digests, and the run orchestration is driven
with a stand-in for its child processes.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from ledger import aggregate, layer_of, totals  # noqa: E402
from workloads import Pass, digest  # noqa: E402

ROOT = os.path.join(os.sep, "co", "src", "repro")


def _src(*parts: str) -> str:
    return os.path.join(ROOT, *parts)


def test_layer_of_maps_packages_modules_and_the_rest():
    assert layer_of(_src("mpi", "comm.py"), ROOT) == "mpi"
    assert layer_of(_src("jobs.py"), ROOT) == "jobs"
    assert layer_of(_src("__init__.py"), ROOT) == "other"
    assert layer_of("~", ROOT) == "other"
    assert layer_of(os.path.join(os.sep, "usr", "lib", "heapq.py"), ROOT) == "other"
    assert layer_of(os.path.join(os.sep, "co", "src", "reprox", "a.py"), ROOT) == "other"


def test_aggregate_sums_self_time_calls_and_cross_layer_entries():
    send = (_src("mpi", "comm.py"), 10, "send")
    post = (_src("mpi", "transport.py"), 5, "post")
    step = (_src("simt", "core.py"), 1, "step")
    pop = ("~", 0, "<built-in method _heapq.heappop>")
    stats = {
        # send: 3 calls from simt (an entry each), 2 recursive from itself.
        send: (3, 5, 0.5, 1.0, {step: (3, 3, 0.1, 0.2), send: (2, 0, 0.1, 0.1)}),
        # post: called only from send, inside mpi -- no entries.
        post: (7, 7, 0.25, 0.25, {send: (7, 7, 0.25, 0.25)}),
        # step: the profiled root, no recorded caller -- 4 entries.
        step: (4, 4, 1.0, 2.0, {}),
        pop: (9, 9, 0.125, 0.125, {step: (9, 9, 0.125, 0.125)}),
    }
    ledger = aggregate(stats, ROOT)
    assert ledger["mpi"] == {"self_s": 0.75, "calls": 12, "entries": 3}
    assert ledger["simt"] == {"self_s": 1.0, "calls": 4, "entries": 4}
    assert ledger["other"] == {"self_s": 0.125, "calls": 9, "entries": 9}
    assert ledger["vt"] == {"self_s": 0.0, "calls": 0, "entries": 0}
    assert totals(ledger)["mpi"] == (12, 3)


def _pinned_seeds():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["smg98-64", "confsync-512", "sweep3d-capture"])
def test_digest_check_flags_a_wrong_seed_payload(workload):
    pinned = _pinned_seeds()[workload]
    right, wrong = (pinned[str(seed)] for seed in run.PINNED_SEEDS)
    assert set(right) == set(wrong) and right != wrong

    def outputs(digests):
        return Pass(outputs={label: (value, 2) for label, value in digests.items()})

    assert run.verify([outputs(right)], right) == (2 * len(right), 0, [])
    attempted, failed, notes = run.verify([outputs(right), outputs(wrong)], right)
    assert (attempted, failed) == (4 * len(right), 2 * len(right))
    assert len(notes) == len(right)


def test_unpinned_runs_check_later_passes_against_the_first():
    first = Pass(outputs={"p": (digest({"time": 1.0}), 1)})
    same = Pass(outputs={"p": (digest({"time": 1.0}), 1)})
    other = Pass(outputs={"p": (digest({"time": 1.5}), 1)})
    raised = Pass(outputs={"p": (None, 1)})
    broken = Pass(outputs={"p": (digest({"time": 1.0}), 1)}, problems=["claim"])
    assert run.verify([first, same])[:2] == (2, 0)
    assert run.verify([first, other, raised, broken])[:2] == (4, 3)


class _Writer:
    """A workload stand-in whose pass writes artifacts."""

    def run_pass(self, workdir, collect_obs=False):
        Path(workdir, "cache").mkdir()
        Path(workdir, "cache", "entry.json").write_bytes(b"x" * 1000)
        return Pass()


def test_timed_pass_measures_and_removes_its_directory(tmp_path):
    _, wall, cpu, size = run._timed_pass(_Writer(), tmp_path)
    assert size == 1000 and wall >= 0 and cpu >= 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fail", [False, True])
def test_run_once_removes_its_private_directory(tmp_path, monkeypatch, fail):
    seen = []

    def fake_spawn(mode, args, workdir, deadline, unpinned=False):
        seen.append(workdir)
        (workdir / "pass").mkdir(exist_ok=True)
        (workdir / "pass" / "trace.json").write_text("{}")
        if fail and mode == "body":
            raise run.RunFailed("child died")
        return 0.5, {"metrics": {}, "samples": {}}

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "spawn", fake_spawn)
    args = run.argparse.Namespace(trace=0)
    if fail:
        with pytest.raises(run.RunFailed):
            run.run_once(args)
    else:
        doc = run.run_once(args)
        assert doc["metrics"]["setup_s"] == (0.5, "s")
        assert doc["samples"]["setups"] == [0.5] * (run.SETUP_PROBES + 1)
    assert seen and all(not path.exists() for path in seen)
    assert list(tmp_path.iterdir()) == []
