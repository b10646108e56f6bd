"""Per-process Vampirtrace library state.

One :class:`VTProcessState` is linked into each simulated process (MPI
rank, or the single process of an OpenMP run).  It owns the function
registry, the deactivation table built from the configuration file, the
per-thread trace buffers, and the running statistics.  The executor and
the dynamic probe snippets call into it on every probe firing; the cost
constants it charges are what create the Full / Full-Off / Subset /
Dynamic separation of Figure 7:

* **active probe** — ``vt_active_event_cost`` per event, plus a record;
* **deactivated probe** — ``vt_lookup_cost`` per event, no record
  ("a majority of the overhead due to the call is avoided", §4.2);
* **uninstrumented function** — the state is never consulted: zero cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..cluster import MachineSpec, Task
from ..obs import get as _obs_get
from ..obs.trace import get as _trace_get
from ..simt import Environment
from .buffer import ThreadTraceBuffer, TraceFile
from .config import VTConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..program import FunctionInstance, ProcessImage, ProgramContext

__all__ = [
    "FunctionRegistry",
    "VTProcessState",
    "FunctionStats",
    "set_compact_accounting",
    "compact_accounting",
]

#: When True (and an obs registry is live), ``flush_to`` also encodes
#: every buffer through the VGVZ codec and mirrors the result as the
#: ``vt.trace_compact_bytes`` counter.  The encode is a real O(records)
#: pass over the whole postmortem trace, far above the registry's
#: few-dict-ops-per-site budget, so it is opt-in — the cheap analytic
#: ``vt.trace_raw_bytes`` counter is mirrored unconditionally.
_COMPACT_ACCOUNTING = False


def set_compact_accounting(enabled: bool) -> bool:
    """Turn flush-time VGVZ size mirroring on or off; returns the previous state."""
    global _COMPACT_ACCOUNTING
    previous = _COMPACT_ACCOUNTING
    _COMPACT_ACCOUNTING = bool(enabled)
    return previous


@contextmanager
def compact_accounting() -> Iterator[None]:
    """Run a block with ``vt.trace_compact_bytes`` mirroring enabled."""
    previous = set_compact_accounting(True)
    try:
        yield
    finally:
        set_compact_accounting(previous)


class FunctionRegistry:
    """Job-wide function-name <-> id registry.

    The real VT assigns ids per process at first registration; using a
    registry shared by all ranks of one run keeps ids consistent for the
    postmortem merge without changing any cost behaviour (registration
    is still charged per process via ``vt_funcdef_cost``).
    """

    def __init__(self) -> None:
        self._name_to_fid: Dict[str, int] = {}
        self._fid_to_name: Dict[int, str] = {}
        self._next = 1

    def define(self, name: str) -> int:
        fid = self._name_to_fid.get(name)
        if fid is None:
            fid = self._next
            self._next += 1
            self._name_to_fid[name] = fid
            self._fid_to_name[fid] = name
        return fid

    def name_of(self, fid: int) -> str:
        return self._fid_to_name[fid]

    def lookup(self, name: str) -> Optional[int]:
        return self._name_to_fid.get(name)

    def items(self) -> List[Tuple[int, str]]:
        return sorted(self._fid_to_name.items())

    def __len__(self) -> int:
        return len(self._name_to_fid)


class FunctionStats:
    """Running statistics of one function on one process."""

    __slots__ = ("count", "inclusive_time")

    def __init__(self) -> None:
        self.count = 0
        self.inclusive_time = 0.0

    def __repr__(self) -> str:
        return f"<FunctionStats n={self.count} t={self.inclusive_time:.6f}>"


class VTProcessState:
    """The instrumentation library linked into one process."""

    def __init__(
        self,
        env: Environment,
        spec: MachineSpec,
        image: "ProcessImage",
        process_index: int,
        registry: Optional[FunctionRegistry] = None,
        config: Optional[VTConfig] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.image = image
        self.process_index = process_index
        self.registry = registry if registry is not None else FunctionRegistry()
        self.config = config if config is not None else VTConfig.all_on()
        self.initialized = False
        #: Simulated time VT_init completed (None until then).
        self._init_time: Optional[float] = None
        #: Deactivated function ids (the paper's lookup table).
        self._off: Set[int] = set()
        #: Per-task trace buffers and shadow call stacks.
        self._buffers: Dict[Task, ThreadTraceBuffer] = {}
        self._stacks: Dict[Task, List[Tuple[int, float]]] = {}
        #: Pending batched begin marks awaiting their end marks.
        self._pending_batch: Dict[Tuple[Task, int], Tuple[int, float, float]] = {}
        self.stats: Dict[int, FunctionStats] = {}
        #: Config epoch, bumped on every applied change (confsync).
        self.epoch = 0
        #: Records accumulated since the last mid-run buffer flush.
        self._unflushed_records = 0
        #: Number of processes concurrently writing traces (set by the
        #: job launcher); they share the trace filesystem's bandwidth.
        self.n_cotracers = 1
        #: Total time this process spent flushing trace buffers.
        self.flush_time_total = 0.0
        #: Optional fault hook (set by a FaultInjector): called with the
        #: writing task before each raw-record batch is accounted; True
        #: means the buffer write fails and the batch is lost.
        self.write_fault: Optional[Callable] = None
        #: Raw records lost to injected trace-buffer write failures.
        self.write_drops = 0
        #: Optional hook run by rank 0 inside VT_confsync — the
        #: configuration_break breakpoint a monitoring tool can grab.
        self.break_hook: Optional[Callable] = None
        # Cache cost constants as attributes (hot path).
        self._active_cost = spec.vt_active_event_cost
        self._lookup_cost = spec.vt_lookup_cost
        self._flush_threshold = spec.vt_flush_threshold_records
        self._obs = _obs_get()
        self._trace = _trace_get()

        image.vt = self
        # Expose the library to dynamically inserted snippets.
        image.register_runtime("VT_funcdef", self._rt_funcdef)
        image.register_runtime("VT_begin", self._rt_begin)
        image.register_runtime("VT_end", self._rt_end)

    # -- initialisation --------------------------------------------------------

    def initialize(self, task: Task) -> None:
        """VT_init: register static functions, build the deactivation table.

        In MPI applications this runs inside the MPI_Init wrapper; in
        OpenMP applications the Guide compiler plants VT_init at the top
        of main (Section 3.4).
        """
        if self.initialized:
            return
        n_registered = 0
        for fi in self.image.functions.values():
            if fi.symbol.static_instrumented:
                fi.fid = self.registry.define(fi.name)
                n_registered += 1
        task.charge(n_registered * self.spec.vt_funcdef_cost)
        self._rebuild_table()
        self.initialized = True
        self._init_time = task.now

    def _rebuild_table(self) -> None:
        active = self.config.resolver()
        self._off = {
            fi.fid
            for fi in self.image.functions.values()
            if fi.fid is not None and not active(fi.name)
        }

    def funcdef(self, task: Task, name: str) -> int:
        """VT_funcdef: register one function by name (dynamic path)."""
        task.charge(self.spec.vt_funcdef_cost)
        return self.funcdef_external(name)

    def funcdef_external(self, name: str) -> int:
        """Registration performed on behalf of a stopped target (the
        DPCL daemon charges the time to itself, not to the target)."""
        fid = self.registry.define(name)
        fi = self.image.functions.get(name)
        if fi is not None:
            fi.fid = fid
            if not self.config.is_active(name):
                self._off.add(fid)
        return fid

    # -- configuration ------------------------------------------------------------

    def apply_config(self, config: VTConfig, task: Optional[Task] = None) -> None:
        """Install a new configuration and rebuild the deactivation table."""
        self.config = config
        self._rebuild_table()
        self.epoch += 1
        if self._obs.enabled:
            self._obs.inc("vt.reconfigurations")
        if self._trace.enabled:
            self._trace.instant(
                self.process_index, 0, "vt.epoch", "vt.confsync",
                task.now if task is not None else self.env.now,
                args={"epoch": self.epoch},
            )
        if task is not None:
            task.charge(self.spec.confsync_apply_cost)

    def is_fid_active(self, fid: Optional[int]) -> bool:
        return fid is not None and self.initialized and fid not in self._off

    # -- trace-buffer flushing ------------------------------------------------------

    def _account_records(self, task: Task, k: int) -> None:
        """Track ``k`` new raw records; charge a shared-FS flush when the
        buffer threshold is crossed.  This mid-run I/O is the dominant
        perturbation of complete profiling at scale (the paper's 2 MB/s
        per processor growth estimate): concurrent writers divide the
        trace filesystem's bandwidth, so flush time scales with the
        number of tracing processes."""
        if self.write_fault is not None and self.write_fault(task):
            # The buffer write failed: the batch never reaches the trace
            # stream (and never contributes flush traffic).  The in-
            # memory profile (stats) is unaffected — only trace volume
            # is lost, which is how VT treats unwritable buffer pages.
            self.write_drops += k
            if self._obs.enabled:
                self._obs.inc("vt.write_drops", k)
            return
        self._unflushed_records += k
        if self._obs.enabled:
            self._obs.inc("vt.records", k)
        if self._trace.enabled:
            # Drop-immune raw-record count: the tracer-side input of the
            # trace-volume model (records x trace_record_bytes).
            self._trace.count("vt.records", k)
        if self._unflushed_records >= self._flush_threshold:
            self._flush_records(task)

    def _flush_records(self, task: Task) -> None:
        """Charge the shared-FS flush of every unflushed record."""
        n = self._unflushed_records
        self._unflushed_records = 0
        t0 = task.now
        dt = (
            n * self.spec.trace_record_bytes * self.n_cotracers
            / self.spec.trace_fs_bandwidth
        )
        task.charge(dt)
        self.flush_time_total += dt
        if self._obs.enabled:
            self._obs.inc("vt.flushes")
            self._obs.inc("vt.flush_bytes", n * self.spec.trace_record_bytes)
            self._obs.span("vt.flush", dt)
        if self._trace.enabled:
            buf = self._buffers.get(task)
            self._trace.complete(
                self.process_index, buf.thread if buf is not None else 0,
                "vt.flush", "vt.flush", t0, t0 + dt,
                args={"records": n,
                      "bytes": n * self.spec.trace_record_bytes},
            )

    # -- buffers -----------------------------------------------------------------

    def buffer_for(self, task: Task, thread_id: int = 0) -> ThreadTraceBuffer:
        buf = self._buffers.get(task)
        if buf is None:
            buf = ThreadTraceBuffer(self.process_index, thread_id)
            self._buffers[task] = buf
            self._stacks[task] = []
        return buf

    @property
    def buffers(self) -> List[ThreadTraceBuffer]:
        return list(self._buffers.values())

    # -- the probe hot path ---------------------------------------------------------

    def probe_begin(self, pctx: "ProgramContext", fi: "FunctionInstance") -> None:
        """VT_begin, from a static probe or a dynamic trampoline snippet."""
        fid = fi.fid
        task = pctx.task
        trace = self._trace
        if fid is None or not self.initialized or fid in self._off:
            task.charge(self._lookup_cost)
            if trace.enabled:
                trace.count("vt.probe_events")
                trace.count("vt.probe_time", self._lookup_cost)
            return
        task.charge(self._active_cost)
        # Inlined single-record fast path of _account_records: this and
        # probe_end are the two hottest calls in a profiled run.
        if self.write_fault is None:
            self._unflushed_records += 1
            if self._obs.enabled:
                self._obs.inc("vt.records")
            if trace.enabled:
                trace.count("vt.records")
            if self._unflushed_records >= self._flush_threshold:
                self._flush_records(task)
        else:
            self._account_records(task, 1)
        buf = self._buffers.get(task)
        if buf is None:
            buf = self.buffer_for(task, pctx.thread_id)
        t = task.now
        buf.enter(fid, t)
        self._stacks[task].append((fid, t))
        if trace.enabled:
            trace.count("vt.probe_events")
            trace.count("vt.probe_time", self._active_cost)
            if trace.fine:
                trace.begin(self.process_index, buf.thread,
                            self.registry.name_of(fid), "app", t)

    def probe_end(self, pctx: "ProgramContext", fi: "FunctionInstance") -> None:
        """VT_end, the matching exit event."""
        fid = fi.fid
        task = pctx.task
        trace = self._trace
        if fid is None or not self.initialized or fid in self._off:
            task.charge(self._lookup_cost)
            if trace.enabled:
                trace.count("vt.probe_events")
                trace.count("vt.probe_time", self._lookup_cost)
            return
        task.charge(self._active_cost)
        if self.write_fault is None:
            self._unflushed_records += 1
            if self._obs.enabled:
                self._obs.inc("vt.records")
            if trace.enabled:
                trace.count("vt.records")
            if self._unflushed_records >= self._flush_threshold:
                self._flush_records(task)
        else:
            self._account_records(task, 1)
        buf = self._buffers.get(task)
        if buf is None:
            buf = self.buffer_for(task, pctx.thread_id)
        t = task.now
        buf.leave(fid, t)
        if trace.enabled:
            trace.count("vt.probe_events")
            trace.count("vt.probe_time", self._active_cost)
            if trace.fine:
                trace.end(self.process_index, buf.thread, t)
        stack = self._stacks[task]
        # Pop the matching begin (tolerate asymmetric instrumentation).
        while stack:
            open_fid, t0 = stack.pop()
            if open_fid == fid:
                st = self.stats.get(fid)
                if st is None:
                    st = self.stats[fid] = FunctionStats()
                st.count += 1
                st.inclusive_time += t - t0
                break

    # Aliases used by the executor's static-probe path.
    static_begin = probe_begin
    static_end = probe_end

    # -- batching support (executor leaf fast path) ------------------------------------

    def pair_info(self, pctx: "ProgramContext", fi: "FunctionInstance") -> Tuple[float, float, bool]:
        """(begin_cost, end_cost, records?) for one probe pair right now."""
        if self.is_fid_active(fi.fid):
            return (self._active_cost, self._active_cost, True)
        return (self._lookup_cost, self._lookup_cost, False)

    def record_batch_pair(
        self,
        pctx: "ProgramContext",
        fi: "FunctionInstance",
        n: int,
        first_begin: float,
        period: float,
        duration: float,
    ) -> None:
        """Record ``n`` (enter, leave) pairs in aggregate + update stats."""
        fid = fi.fid
        assert fid is not None
        task = pctx.task
        self._account_records(task, 2 * n)
        buf = self._buffers.get(task)
        if buf is None:
            buf = self.buffer_for(task, pctx.thread_id)
        buf.batch_pair(fid, n, first_begin, period, duration)
        st = self.stats.get(fid)
        if st is None:
            st = self.stats[fid] = FunctionStats()
        st.count += n
        st.inclusive_time += n * duration
        trace = self._trace
        if trace.enabled:
            trace.count("vt.probe_events", 2 * n)
            trace.count("vt.probe_time", 2 * n * self._active_cost)
            if trace.fine:
                # One aggregate span stands for the whole batch; the ring
                # would otherwise drown in per-iteration pairs.
                trace.complete(
                    self.process_index, buf.thread,
                    f"{self.registry.name_of(fid)} x{n}", "app.batch",
                    first_begin,
                    first_begin + (n - 1) * period + duration,
                    args={"n": n},
                )

    def batch_mark(
        self,
        pctx: "ProgramContext",
        fi: "FunctionInstance",
        kind: str,
        n: int,
        t_first: float,
        period: float,
    ) -> None:
        """Pair batched dynamic begin/end marks into batch-pair records."""
        if not self.is_fid_active(fi.fid):
            return
        key = (pctx.task, fi.fid)
        if kind == "begin":
            self._pending_batch[key] = (n, t_first, period)
            return
        pending = self._pending_batch.pop(key, None)
        if pending is not None and pending[0] == n:
            _n, t_begin, per = pending
            self.record_batch_pair(pctx, fi, n, t_begin, per, t_first - t_begin)
        else:
            # Unpaired end marks: record as zero-duration pairs so counts
            # stay conservative rather than silently dropped.
            self.record_batch_pair(pctx, fi, n, t_first, period, 0.0)

    # -- message events (called by the MPI wrapper) ---------------------------------------

    def log_message(self, pctx: "ProgramContext", kind: str, peer: int, tag: int, size: int) -> None:
        if not self.initialized or not self.config.mpi_trace:
            return
        task = pctx.task
        task.charge(self.spec.vt_msg_event_cost)
        self._account_records(task, 1)
        buf = self._buffers.get(task)
        if buf is None:
            buf = self.buffer_for(task, pctx.thread_id)
        buf.message(kind, peer, tag, size, task.now)

    def log_collective(self, pctx: "ProgramContext", op: str, comm_size: int, t_start: float) -> None:
        if not self.initialized or not self.config.mpi_trace:
            return
        task = pctx.task
        task.charge(self.spec.vt_msg_event_cost)
        self._account_records(task, 1)
        buf = self._buffers.get(task)
        if buf is None:
            buf = self.buffer_for(task, pctx.thread_id)
        buf.collective(op, comm_size, t_start, task.now)

    def log_marker(self, task: Task, name: str, t_start: float, t_end: Optional[float] = None) -> None:
        buf = self._buffers.get(task)
        if buf is None:
            buf = self.buffer_for(task)
        buf.marker(name, t_start, t_end)

    # -- statistics --------------------------------------------------------------------

    def stats_table(self) -> List[Tuple[str, int, float]]:
        """(name, count, inclusive_time) rows, sorted by time descending."""
        rows = [
            (self.registry.name_of(fid), st.count, st.inclusive_time)
            for fid, st in self.stats.items()
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows

    def stats_payload_bytes(self) -> int:
        """Wire/disk size of a statistics snapshot.

        A fixed per-process header block (call-stack summaries, message
        matrices) plus one row per function with counts/time histograms.
        """
        return 24_576 + 96 * max(1, len(self.stats))

    def charge_stats_generation(self, task: Task) -> None:
        """CPU cost of aggregating the statistics snapshot."""
        task.charge(self.spec.stats_per_func_cost * max(1, len(self.stats)))

    # -- finalisation -------------------------------------------------------------------

    def flush_to(self, trace: TraceFile) -> None:
        """Dump buffers and the name table into the postmortem trace file.

        Each thread's suspension intervals are written as "suspended"
        markers so the timeline view can show (and the profile view can
        exclude) the regions of inactivity dynamic instrumentation
        causes (Sections 4.2 and 5.1).
        """
        for fid, name in self.registry.items():
            trace.register_function(fid, name)
        for task, buf in self._buffers.items():
            for start, end in task.suspensions:
                buf.marker("suspended", start, end)
                # Trace only mid-run suspensions (patch windows): stops
                # that ended before VT_init are spawn/instrument setup,
                # which the paper's reported time already excludes.
                if self._trace.enabled and (
                    self._init_time is None or end > self._init_time
                ):
                    self._trace.complete(
                        self.process_index, buf.thread,
                        "suspended", "suspended",
                        max(start, self._init_time or start), end,
                    )
        for buf in self._buffers.values():
            trace.add_buffer(buf)
        if self._obs.enabled:
            # Per-rank trace-volume observability.  The analytic raw
            # size is an O(1) memoized count; the VGVZ compact size is
            # a full codec pass over the buffer, so it stays behind the
            # explicit ``set_compact_accounting`` knob to keep plain
            # obs-enabled runs at dict-op cost (the engine benchmark
            # cell runs under a live registry and gates this).
            for buf in self._buffers.values():
                self._obs.inc("vt.trace_raw_bytes", buf.raw_bytes)
                if _COMPACT_ACCOUNTING:
                    self._obs.inc("vt.trace_compact_bytes", buf.compact_bytes)

    # -- runtime-registry entry points (for snippets that call by name) -------------------

    def _rt_funcdef(self, pctx: "ProgramContext", name: str) -> int:
        return self.funcdef(pctx.task, name)

    def _rt_begin(self, pctx: "ProgramContext", name: str) -> None:
        self.probe_begin(pctx, self.image.func(name))

    def _rt_end(self, pctx: "ProgramContext", name: str) -> None:
        self.probe_end(pctx, self.image.func(name))

    def __repr__(self) -> str:
        return (
            f"<VTProcessState p{self.process_index} init={self.initialized} "
            f"off={len(self._off)} epoch={self.epoch}>"
        )
