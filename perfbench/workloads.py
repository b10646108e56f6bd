"""The benchmark's workloads, run serially through the public API.

Each workload builds its grid from the seed it is given, warms up once,
and then runs *passes*.  A pass is the timed body: it executes the whole
grid cold into its own fresh directory and returns a :class:`Pass` with
one output digest per checked output, the wall time of every computed
point and any invariant the outputs broke.  Comparing digests (against
the pinned ones, or against the run's first pass) is the caller's job.

``smg98-64``
    smg98 at 64 ranks, scale 1.0, all five Table 3 policies, through
    :class:`~repro.runner.SweepRunner`.
``confsync-512``
    The Figure 8(a)/(b) ``measure_confsync`` cells at 512 ranks.
``sweep3d-capture``
    The Figure 7(c) ``--quick`` grid through ``repro.experiments.cli.main`` with
    every capture on (obs, sampled series, compacted trace, order
    logs), cold into a fresh cache and then regenerated from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "Pass", "digest"]


def digest(obj) -> str:
    """sha256 of an output's canonical JSON form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """What one pass produced."""

    #: output label -> (sha256, or None when it raised; points it covers)
    outputs: Dict[str, Tuple[Optional[str], int]] = field(default_factory=dict)
    #: computed point label -> host wall seconds
    point_walls: Dict[str, float] = field(default_factory=dict)
    #: broken output invariants (a non-empty list fails every output)
    problems: List[str] = field(default_factory=list)
    #: simulator counters, when the pass collected them
    counters: Dict[str, int] = field(default_factory=dict)


def _ratio_checks(times: Dict[str, float], claims) -> List[str]:
    """Evaluate ``(label, numerator, denominator, low, high)`` claims."""
    problems = []
    for label, num, den, low, high in claims:
        ratio = times[num] / times[den]
        if not low <= ratio <= high:
            problems.append(f"{label}: {num}/{den} = {ratio:.4g}")
    return problems


class RunnerWorkload:
    """A grid of sweep points run by one serial SweepRunner per pass."""

    #: (label, numerator, denominator, low, high) claims on point times.
    claims: Tuple = ()

    def __init__(self, seed: int) -> None:
        from repro import SweepPoint

        self.seed = seed
        self.warm_point, cells = self.grid(SweepPoint, seed)
        self.points = [point for _name, point in cells]
        self.names = {point: name for name, point in cells}

    @staticmethod
    def grid(SweepPoint, seed: int):  # pragma: no cover - abstract
        """``(warm-up point, [(name, point), ...])`` for one seed."""
        raise NotImplementedError

    def warm_up(self, workdir: str) -> None:
        from repro import SweepRunner

        SweepRunner(jobs=1).run_grid([self.warm_point])

    def run_pass(self, workdir: str, collect_obs: bool = False) -> Pass:
        from repro import SweepRunner

        runner = SweepRunner(jobs=1, cache=os.path.join(workdir, "cache"),
                             collect_obs=collect_obs)
        results = runner.run(self.points)
        out = Pass()
        times = {}
        for point in self.points:
            result = results[point]
            label = point.label
            out.point_walls[label] = result.wall_time
            if result.ok:
                out.outputs[label] = (digest(result.payload), 1)
                times[self.names[point]] = result.payload["time"]
            else:
                out.outputs[label] = (None, 1)
        if len(times) == len(self.points):
            out.problems = _ratio_checks(times, self.claims)
        if collect_obs:
            out.counters = dict(runner.obs.snapshot()["counters"])
        return out

    def final_check(self, workdir: str, first: Pass) -> Pass:
        return Pass()


class Smg98(RunnerWorkload):
    # The paper's Figure 7(a) claims at 64 CPUs (fig7_shape_report).
    claims = (
        ("Full ~7x slower than None", "Full", "None", 4.5, 10.0),
        ("Full-Off well above None", "Full-Off", "None", 1.2, float("inf")),
        ("Subset ~ Full-Off", "Subset", "Full-Off", 0.8, 1.25),
        ("Dynamic very close to None", "Dynamic", "None", 0.0, 1.05),
    )

    @staticmethod
    def grid(SweepPoint, seed: int):
        def cell(policy: str, procs: int):
            return SweepPoint.policy_cell("smg98", policy, procs, scale=1.0, seed=seed)

        policies = ("Full", "Full-Off", "Subset", "None", "Dynamic")
        return cell("Dynamic", 8), [(policy, cell(policy, 64)) for policy in policies]


class Confsync(RunnerWorkload):
    # The paper's Figure 8(a)/(b) claims (EXPERIMENTS.md).
    claims = (
        ("changes ~ no change", "Changes", "No Change", 0.95, 1.05),
        ("statistics an order of magnitude larger", "Statistics", "No Change", 5.0, 20.0),
    )

    @staticmethod
    def grid(SweepPoint, seed: int):
        return SweepPoint.confsync(64, stats=True, seed=seed), [
            ("No Change", SweepPoint.confsync(512, seed=seed)),
            ("Changes", SweepPoint.confsync(512, change=True, seed=seed)),
            ("Statistics", SweepPoint.confsync(512, stats=True, seed=seed)),
        ]


class Sweep3dCapture:
    """Figure 7(c) through the CLI with every capture on, then warm."""

    scale = "0.1"
    #: ``--quick`` caps the CPU counts at 16: four policies (no Subset) x
    #: 2, 4, 8, 16 CPUs.  The full grid's traced run took over two of the
    #: three minutes one benchmark run may take.
    experiment = ("fig7c", "--quick")
    points = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _cli(self, *argv: str) -> Tuple[int, str, str]:
        """Run the CLI in-process; returns (exit code, stdout, stderr)."""
        from repro.experiments.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--scale", self.scale, "--seed", str(self.seed),
                             "--json"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _captures(workdir: str) -> List[str]:
        def path(name: str) -> str:
            return os.path.join(workdir, name)

        return ["--cache-dir", path("cache"), "--obs", path("obs.json"),
                "--obs-sample", "0.5", "--trace", path("traces"), "--trace-compact",
                "--record", path("orders")]

    def warm_up(self, workdir: str) -> None:
        code, _, err = self._cli("sweep", "--apps", "sweep3d", "--policies", "Dynamic",
                                 "--cpus", "8", *self._captures(workdir))
        if code != 0:
            raise RuntimeError(f"sweep3d warm-up failed ({code}): {err[-2000:]}")

    def run_pass(self, workdir: str, collect_obs: bool = False) -> Pass:
        out = Pass()
        cold = self._cli(*self.experiment, "--progress", *self._captures(workdir))
        warm = self._cli(*self.experiment, "--cache-dir", os.path.join(workdir, "cache"))
        docs = {}
        for name, (code, stdout, _) in (("cold", cold), ("warm", warm)):
            docs[name] = json.loads(stdout) if code == 0 else None
            results = docs[name]["results"] if code == 0 else None
            out.outputs[name] = (digest(results) if code == 0 else None, self.points)
            # The figure's shape report: the paper's Figure 7(c) claims.
            out.problems += [f"{name}: {line}" for item in results or ()
                             if item["type"] == "text"
                             for line in item["text"].splitlines()
                             if line.startswith("FAIL")]
        if out.outputs["warm"][0] != out.outputs["cold"][0]:
            out.problems.append("warm regeneration differs from the cold run")
        if docs["warm"] and docs["warm"]["telemetry"]["hit_rate"] != 1.0:
            out.problems.append("warm regeneration missed the cache")
        for line in cold[2].splitlines():
            event = json.loads(line) if line.startswith("{") else {}
            if event.get("event") == "point" and not event["cached"]:
                out.point_walls[event["label"]] = event["wall_time"]
        if docs["cold"]:
            with open(os.path.join(workdir, "obs.json"), encoding="utf-8") as fh:
                out.counters = dict(json.load(fh)["obs"]["counters"])
        return out

    def final_check(self, workdir: str, first: Pass) -> Pass:
        """Captures off must give the same figure bytes as captures on."""
        code, stdout, _ = self._cli(*self.experiment, "--no-cache")
        value = digest(json.loads(stdout)["results"]) if code == 0 else None
        out = Pass(outputs={"off": (value, self.points)})
        if value != first.outputs["cold"][0]:
            out.problems.append("captures-off figure differs from captures-on")
        return out


WORKLOADS = {
    "smg98-64": Smg98,
    "confsync-512": Confsync,
    "sweep3d-capture": Sweep3dCapture,
}
