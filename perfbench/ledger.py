"""Per-layer call ledger: cProfile statistics aggregated by ``repro`` package.

A *layer* is one top-level package (or module) of ``repro``:
``repro/mpi/comm.py`` belongs to ``mpi``, ``repro/jobs.py`` to ``jobs``.
Everything else -- the standard library, builtins, this benchmark -- is
``other``.  For each layer the ledger holds

``self_s``
    time spent in the layer's own functions (cProfile ``tottime``);
``calls``
    every call of one of its functions (cProfile ``ncalls``; each resume
    of a generator counts as a call);
``entries``
    the calls that crossed into the layer from another one, i.e. calls
    whose caller is outside the layer, or which have no recorded caller.

Call and entry counts are exact: the simulation is deterministic, so two
runs of the same workload produce identical counts.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

__all__ = ["LAYERS", "OTHER", "layer_of", "aggregate", "totals"]

#: Ledgered layers: every package and top-level module of ``repro``.
LAYERS = (
    "simt", "cluster", "program", "vt", "mpi", "openmp", "apps", "jobs",
    "dpcl", "dynprof", "faults", "obs", "compact", "replay", "runner",
    "svc", "analysis", "experiments",
)
#: Catch-all layer: standard library, builtins and the benchmark itself.
OTHER = "other"

#: cProfile function label: (filename, first line, function name).
Func = Tuple[str, int, str]


def layer_of(filename: str, package_root: str) -> str:
    """The layer a source file belongs to, given the ``repro`` package
    directory; files outside it (and unknown modules) are ``other``."""
    prefix = os.path.join(package_root, "")
    if not filename.startswith(prefix):
        return OTHER
    head = filename[len(prefix):].split(os.sep, 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in LAYERS else OTHER


def aggregate(stats: Dict[Func, tuple], package_root: str) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer self time, calls
    and entries.

    ``stats`` maps a function label to ``(cc, nc, tt, ct, callers)``,
    where ``callers`` maps a caller's label to ``(nc, cc, tt, ct)`` --
    the layout cProfile produces.
    """
    layers: Dict[Func, str] = {}

    def layer(func: Func) -> str:
        found = layers.get(func)
        if found is None:
            found = layers[func] = layer_of(func[0], package_root)
        return found

    ledger = {name: {"self_s": 0.0, "calls": 0, "entries": 0}
              for name in (*LAYERS, OTHER)}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        own = layer(func)
        row = ledger[own]
        row["self_s"] += tt
        row["calls"] += nc
        inside = sum(counts[0] for caller, counts in callers.items()
                     if layer(caller) == own)
        row["entries"] += nc - inside
    return ledger


def totals(ledger: Dict[str, Dict[str, float]]) -> Dict[str, Tuple[int, int]]:
    """The exact part of a ledger -- (calls, entries) per layer -- which
    two runs of one workload must reproduce."""
    return {name: (row["calls"], row["entries"]) for name, row in ledger.items()}
