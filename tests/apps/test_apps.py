"""Application-analog tests: inventories, numerics, scaling shapes."""

import pytest

from repro.apps import ALL_APPS, SMG98, SPPM, SWEEP3D, UMT98, get_app
from repro.cluster import Cluster, POWER3_SP
from repro.jobs import MpiJob, OmpJob
from repro.simt import Environment

SPEC = POWER3_SP.with_overrides(net_jitter=0.02)


def run_app(app, n_cpus, scale=0.05, link_vt=True, vt_config=None, instrument=False, seed=0):
    env = Environment()
    cluster = Cluster(env, SPEC, seed=seed)
    exe = app.build_exe(instrument)
    program = app.make_program(n_cpus, scale)
    if app.kind == "mpi":
        job = MpiJob(env, cluster, exe, n_cpus, program,
                     link_vt=link_vt, vt_config=vt_config)
        job.start()
        env.run(until=job.completion())
        env.run()
        elapsed = max(p.value for p in job.procs)
        return job, elapsed
    job = OmpJob(env, cluster, exe, n_cpus, program,
                 link_vt=link_vt, vt_config=vt_config)
    job.start()
    env.run(until=job.completion())
    env.run()
    return job, job.proc.value


# ------------------------------------------------------------- inventories


def test_function_counts_match_paper():
    # Section 4.3 gives exact inventories.
    assert len(SMG98.functions) == 199 and len(SMG98.subset) == 62
    assert len(SPPM.functions) == 22 and len(SPPM.subset) == 7
    assert len(SWEEP3D.functions) == 21 and len(SWEEP3D.dynamic_targets) == 21
    assert len(UMT98.functions) == 44 and len(UMT98.subset) == 6


def test_table2_metadata():
    assert SMG98.lang == "MPI/C"
    assert SPPM.lang == "MPI/F77"
    assert SWEEP3D.lang == "MPI/F77"
    assert UMT98.lang == "OMP/F77"
    assert UMT98.kind == "omp"


def test_sweep3d_has_no_subset_policy_and_no_1cpu():
    assert not SWEEP3D.has_subset_policy
    assert 1 not in SWEEP3D.cpu_counts  # does not run on one processor


def test_get_app_lookup():
    assert get_app("SMG98") is SMG98
    with pytest.raises(KeyError):
        get_app("linpack")


def test_exes_define_full_inventory():
    for app in ALL_APPS.values():
        exe = app.build_exe(False)
        for fn in app.functions:
            assert fn in exe
        assert not any(s.static_instrumented for s in exe.symbols.values())
        exe2 = app.build_exe(True)
        n_instr = sum(s.static_instrumented for s in exe2.symbols.values())
        assert n_instr >= len(app.functions)


# ------------------------------------------------------------- numerics


def test_smg98_residual_decreases():
    job, _ = run_app(SMG98, 4, scale=0.3)
    residuals = job.pctxs[0].props["residuals"]
    assert len(residuals) >= 2
    assert residuals[-1] < residuals[0]
    # Monotone decrease cycle over cycle.
    assert all(b <= a * 1.0001 for a, b in zip(residuals, residuals[1:]))


def test_smg98_neighbour_gathers_equal_np_roll_bit_for_bit():
    import numpy as np

    from repro.apps.smg98 import LOCAL_N, _neighbour_sum

    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal((LOCAL_N, LOCAL_N))
        rolled = (np.roll(u, 1, 0) + np.roll(u, -1, 0)
                  + np.roll(u, 1, 1) + np.roll(u, -1, 1))
        assert np.array_equal(_neighbour_sum(u), rolled)


def test_sppm_conserves_mass():
    job, _ = run_app(SPPM, 4, scale=0.15)
    state = job.pctxs[0].props["sppm"]
    for mass in state.mass_history:
        assert mass == pytest.approx(state.initial_mass, rel=1e-12)


def test_sweep3d_flux_converges():
    job, _ = run_app(SWEEP3D, 4, scale=0.3)
    state = job.pctxs[0].props["sweep"]
    hist = state.err_history
    assert len(hist) >= 2
    # Attenuation beats the constant source: the error metric settles.
    assert hist[-1] == pytest.approx(hist[-2], rel=0.5)


def test_umt98_runs_and_iterates():
    job, elapsed = run_app(UMT98, 4, scale=0.2)
    state = job.pctx.props["umt"]
    assert len(state.err_history) == state.iterations
    assert elapsed > 0


# ------------------------------------------------------------- scaling shapes


def test_smg98_weak_scaling_time_grows_with_cpus():
    _j1, t1 = run_app(SMG98, 1, scale=0.1)
    _j2, t16 = run_app(SMG98, 16, scale=0.1)
    assert t16 > t1 * 1.1


def test_sweep3d_strong_scaling_time_shrinks():
    _j1, t2 = run_app(SWEEP3D, 2, scale=0.1)
    _j2, t16 = run_app(SWEEP3D, 16, scale=0.1)
    assert t16 < t2 / 3


def test_umt98_strong_scaling_time_shrinks():
    _j1, t1 = run_app(UMT98, 1, scale=0.1)
    _j2, t8 = run_app(UMT98, 8, scale=0.1)
    assert t8 < t1 / 3


def test_all_ranks_report_similar_elapsed():
    job, _ = run_app(SMG98, 8, scale=0.1)
    times = [p.value for p in job.procs]
    assert max(times) < min(times) * 1.2


# ------------------------------------------------------------- tracing


def test_instrumented_run_produces_trace_records():
    from repro.vt import VTConfig

    job, _ = run_app(SMG98, 2, scale=0.05, instrument=True,
                     vt_config=VTConfig.all_on())
    assert job.trace.raw_record_count > 10_000
    assert job.trace.size_bytes > 0


def test_uninstrumented_run_produces_only_mpi_records():
    job, _ = run_app(SMG98, 2, scale=0.05, instrument=False)
    # No subroutine probes: records are only MPI message/collective events.
    from repro.vt import CollectiveRecord, MsgRecord

    for _p, _t, rec in job.trace.all_records():
        assert isinstance(rec, (MsgRecord, CollectiveRecord))


# ------------------------------------------------------- call-count asymmetry


def test_smg98_call_asymmetry_premise():
    """The structural fact behind Figure 7(a): the non-subset utility
    functions carry almost all calls, the subset carries the time.
    (Subset ~ Full-Off and Dynamic ~ None are only possible this way.)"""
    job, _ = run_app(SMG98, 2, scale=0.1)
    image = job.images[0]
    subset = set(SMG98.subset)
    subset_calls = sum(
        fi.call_count for n, fi in image.functions.items() if n in subset
    )
    noise_calls = sum(
        fi.call_count for n, fi in image.functions.items()
        if n in set(SMG98.functions) - subset
    )
    assert noise_calls > 100 * subset_calls
    assert subset_calls > 0


def test_sweep3d_low_call_intensity():
    """Figure 7(c)'s premise: few calls relative to compute."""
    job, elapsed = run_app(SWEEP3D, 4, scale=0.1)
    total_calls = sum(
        fi.call_count for im in job.images for fi in im.functions.values()
    )
    # Calls per second of computation, per rank: orders of magnitude
    # below Smg98's ~600k/s.
    per_rank_per_sec = total_calls / 4 / elapsed
    assert per_rank_per_sec < 20_000


def test_umt98_produces_per_thread_timeline_bars():
    from repro.analysis import Timeline
    from repro.vt import VTConfig

    job, _ = run_app(UMT98, 4, scale=0.1, instrument=True,
                     vt_config=VTConfig.all_on())
    tl = Timeline(job.trace)
    # One bar per OpenMP thread of the single process.
    threads = {t for (_p, t) in tl.bars}
    assert threads == {0, 1, 2, 3}
