"""The fast-forwarded ``Task.flush`` against the quantum-by-quantum loop.

``QuantumTask`` below keeps the original flush — one engine ``Timeout``
per compute quantum, the suspend gate checked between quanta — as the
reference.  Every property runs the same program twice, once on each
task class, and compares with ``==``: the fast-forward must reproduce
the reference's float additions bit for bit, and a suspend, a foreign
charge or an interrupt must find the task exactly where the reference
would have it.

Suspend and resume times carry an odd offset so they never coincide
with a quantum boundary: on an exact boundary the reference's answer
depends on the order of same-timestamp events (see
``test_suspend_on_exact_boundary_parks_at_that_boundary``).
"""

from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.cluster import Cluster, POWER3_SP, Task
from repro.dynprof import run_policy
from repro.faults import FaultPlan, FaultSpec
from repro.simt import Environment, Interrupt, Latch, Timeout


class QuantumTask(Task):
    """Reference: the per-quantum flush loop the fast-forward replaces."""

    def flush(self):
        quantum = self.spec.compute_quantum
        env = self.env
        while self._pending > 0.0:
            if not self._gate.is_open:
                yield from self._park()
            dt = self._pending if quantum <= 0 else min(self._pending, quantum)
            self._pending -= dt
            yield Timeout(env, dt)
        if not self._gate.is_open:
            yield from self._park()


#: Keeps drawn controller times off the quantum boundaries.
ODD = 1.234567e-5


def boundaries(pending, quantum, start=0.0):
    """The quantum boundaries of a flush, summed as the engine sums them."""
    out = []
    t = start
    while pending > 0.0:
        dt = min(pending, quantum)
        pending -= dt
        t += dt
        out.append(t)
    return out


def quantum_chunk(quantum):
    """A compute chunk: below one quantum, an exact multiple, or many."""
    return st.one_of(
        st.floats(0.01, 0.99).map(lambda f: quantum * f),
        st.integers(1, 6).map(lambda k: quantum * k),
        st.tuples(st.integers(2, 40), st.floats(0.0, 1.0)).map(
            lambda kf: quantum * (kf[0] + kf[1])),
    )


@st.composite
def programs(draw):
    quantum = draw(st.sampled_from([0.02, 0.05]))
    n_tasks = draw(st.integers(1, 3))
    rounds = draw(st.integers(1, 3))
    bodies = [
        [draw(st.lists(quantum_chunk(quantum), min_size=1, max_size=4))
         for _ in range(rounds)]
        for _ in range(n_tasks)
    ]
    instant = st.integers(0, 400).map(lambda k: k * 0.01 + ODD)
    suspends = draw(st.lists(
        st.tuples(st.integers(0, n_tasks - 1), instant,
                  st.integers(1, 60).map(lambda k: k * 0.01),
                  st.booleans()),
        max_size=4))
    charges = draw(st.lists(
        st.tuples(st.integers(0, n_tasks - 1), instant,
                  st.floats(1e-6, 0.03)),
        max_size=3))
    return quantum, bodies, suspends, charges


def simulate(task_cls, quantum, bodies, suspends=(), charges=()):
    """Run one drawn program; return everything a task exposes."""
    env = Environment()
    spec = POWER3_SP.with_overrides(compute_quantum=quantum)
    cluster = Cluster(env, spec, seed=1)
    tasks = [task_cls(env, cluster.node(i), f"t{i}", spec)
             for i in range(len(bodies))]
    rounds = len(bodies[0])
    barriers = [Latch(env, len(tasks)) for _ in range(rounds)]
    clocks = {task.name: [] for task in tasks}

    def body(task, chunks_by_round):
        for barrier, chunks in zip(barriers, chunks_by_round):
            for chunk in chunks:
                task.charge(chunk)
                clocks[task.name].append(task.now)
                yield from task.flush()
                clocks[task.name].append(task.now)
            barrier.count_down()
            yield from task.blocked_wait(barrier.wait())
            clocks[task.name].append(task.now)
        return env.now

    def suspender(task, at, hold, nested):
        yield env.timeout(at)
        task.request_suspend()
        if nested:
            yield env.timeout(hold / 2)
            task.request_suspend()
            yield env.timeout(hold / 2)
            task.resume()
        yield env.timeout(hold)
        task.resume()

    def charger(task, at, dt):
        yield env.timeout(at)
        task.charge(dt)

    procs = [task.start(body(task, b)) for task, b in zip(tasks, bodies)]
    for idx, at, hold, nested in suspends:
        env.process(suspender(tasks[idx], at, hold, nested))
    for idx, at, dt in charges:
        env.process(charger(tasks[idx], at, dt))
    env.run()
    return [
        dict(finish=proc.value, suspensions=task.suspensions,
             compute_time=task.compute_time, clock=clocks[task.name],
             pending=task.pending)
        for task, proc in zip(tasks, procs)
    ]


@given(program=programs())
@settings(max_examples=150, deadline=None)
def test_fast_forward_matches_quantum_loop(program):
    quantum, bodies, suspends, charges = program
    want = simulate(QuantumTask, quantum, bodies, suspends, charges)
    got = simulate(Task, quantum, bodies, suspends, charges)
    assert got == want


def test_many_quanta_take_one_engine_event():
    env = Environment()
    spec = POWER3_SP.with_overrides(compute_quantum=0.05)
    task = Task(env, Cluster(env, spec, seed=1).node(0), "t", spec)

    def body():
        yield from task.compute(2.0)  # 40 quanta

    task.start(body())
    env.run()
    # Initialize + core grant + one fast-forward Timeout + process exit.
    assert env.events_processed == 4
    assert env.now == simulate(QuantumTask, 0.05, [[[2.0]]])[0]["finish"]


def test_nonpositive_quantum_flushes_in_one_event():
    for quantum in (0.0, -1.0):
        want = simulate(QuantumTask, quantum, [[[0.7, 3.3]], [[1.1]]],
                        suspends=[(0, 0.5 + ODD, 0.2, False)])
        got = simulate(Task, quantum, [[[0.7, 3.3]], [[1.1]]],
                       suspends=[(0, 0.5 + ODD, 0.2, False)])
        assert got == want


def test_interrupt_during_fast_forward_restores_pending():
    def run(task_cls):
        env = Environment()
        spec = POWER3_SP.with_overrides(compute_quantum=0.05)
        task = task_cls(env, Cluster(env, spec, seed=1).node(0), "t", spec)
        seen = {}

        def body():
            task.charge(1.0)
            try:
                yield from task.flush()
            except Interrupt:
                seen["at"] = env.now
                seen["pending"] = task.pending
                seen["now"] = task.now
            yield from task.flush()
            seen["finish"] = env.now

        proc = task.start(body())

        def interrupter():
            yield env.timeout(0.3 + ODD)
            proc.interrupt("stop")

        env.process(interrupter())
        env.run(until=proc)
        return seen, task

    want, _ = run(QuantumTask)
    got, task = run(Task)
    assert got == want
    assert task._forward is None
    # 0.3 + ODD lies inside the 7th quantum: 13 quanta were still due.
    assert got["pending"] == pytest.approx(0.65)


def test_suspend_on_exact_boundary_parks_at_that_boundary():
    """Definition: a suspend requested at time ``s`` parks the task at the
    first quantum boundary ``t_j >= s`` — including ``t_j == s``.

    The per-quantum loop reached the same answer only when the request
    ran before the task's own boundary event at that timestamp; queued
    after it, the task had already begun the next quantum and parked one
    quantum late.  The fast-forward has no event at ``t_j`` to race with.
    """
    quantum = 0.05
    boundary = boundaries(10 * quantum, quantum)[2]  # t_3

    def run(task_cls, request_late):
        env = Environment()
        spec = POWER3_SP.with_overrides(compute_quantum=quantum)
        task = task_cls(env, Cluster(env, spec, seed=1).node(0), "t", spec)

        def body():
            yield from task.compute(10 * quantum)

        def controller():
            if request_late:  # schedule the request after the task's t_3
                yield env.timeout(2.5 * quantum)
            yield env.timeout_at(boundary)
            task.request_suspend()
            yield env.timeout(1.0)
            task.resume()

        env.process(controller())
        task.start(body())
        env.run()
        return task.suspensions[0][0]

    assert run(Task, request_late=False) == boundary
    assert run(Task, request_late=True) == boundary
    assert run(QuantumTask, request_late=False) == boundary
    assert run(QuantumTask, request_late=True) > boundary


def test_suspend_at_last_boundary_keeps_the_far_event():
    env = Environment()
    spec = POWER3_SP.with_overrides(compute_quantum=0.05)
    task = Task(env, Cluster(env, spec, seed=1).node(0), "t", spec)
    # 0.4 takes nine quanta in floats, the last one 7e-17 s long.
    end = boundaries(0.4, 0.05)[-1]

    def controller():
        yield env.timeout_at(end)
        task.request_suspend()
        yield env.timeout(1.0)
        task.resume()

    env.process(controller())
    task.start(task.compute(0.4))
    env.run()
    assert task.suspensions == [(end, end + 1.0)]
    assert env.events_cancelled == 0


@st.composite
def stall_plans(draw):
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, 30)) * 0.1 + ODD
        length = draw(st.integers(1, 20)) * 0.05
        specs.append(FaultSpec("rank_stall", rank=draw(st.integers(0, 3)),
                               start=start, end=start + length))
    return FaultPlan.of(*specs)


def run_both(app_name, policy, plan):
    """One small cell under ``plan``: (fast-forward, reference) results."""
    app = get_app(app_name)

    def run():
        return asdict(run_policy(app, policy, 4, scale=0.02, faults=plan))

    got = run()
    with mock.patch.object(Task, "flush", QuantumTask.flush):
        want = run()
    return got, want


@given(plan=stall_plans(), app=st.sampled_from(["smg98", "sppm", "umt98"]),
       policy=st.sampled_from(["Full", "Dynamic"]))
@settings(max_examples=15, deadline=None)
def test_stall_fault_plans_match_quantum_loop(plan, app, policy):
    got, want = run_both(app, policy, plan)
    assert got == want


def test_stall_fault_rewinds_a_fast_forward():
    """The stall plan above lands inside multi-quantum flushes of smg98:
    the property exercises the rewind path, not just short flushes."""
    plan = FaultPlan.of(
        FaultSpec("rank_stall", rank=1, start=0.5 + ODD, end=1.0),
        FaultSpec("rank_stall", rank=2, start=1.7 + ODD, end=2.0),
    )
    rewinds = []
    rewind = Task._rewind

    def counting_rewind(self):
        rewinds.append(self.name)
        rewind(self)

    with mock.patch.object(Task, "_rewind", counting_rewind):
        got, want = run_both("smg98", "Full", plan)
    assert got == want
    assert len(rewinds) == 2
