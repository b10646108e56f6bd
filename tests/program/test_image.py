"""Tests for executable/process images, symbols, variables, patching."""

import fnmatch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.program import (
    ENTRY,
    EXIT,
    Const,
    ExecutableImage,
    FunctionSymbol,
    ProcessImage,
)
from repro.simt import Environment


def build_exe():
    exe = ExecutableImage("app")
    exe.define("main")
    exe.define("solve_pressure")
    exe.define("solve_energy")
    exe.define("io_dump")
    return exe


def test_duplicate_symbol_rejected():
    exe = ExecutableImage("app")
    exe.define("f")
    with pytest.raises(ValueError, match="duplicate"):
        exe.define("f")


def test_function_names_listed():
    exe = build_exe()
    assert set(exe.function_names()) == {
        "main", "solve_pressure", "solve_energy", "io_dump",
    }
    assert "main" in exe


def test_static_instrumentation_marks_all():
    exe = build_exe()
    n = exe.instrument_statically()
    assert n == 4
    assert all(s.static_instrumented for s in exe.symbols.values())
    # Idempotent: second call instruments nothing new.
    assert exe.instrument_statically() == 0


def test_static_instrumentation_subset():
    exe = build_exe()
    assert exe.instrument_statically(["solve_pressure"]) == 1
    assert exe.symbols["solve_pressure"].static_instrumented
    assert not exe.symbols["main"].static_instrumented


def test_non_instrumentable_functions_skipped():
    exe = ExecutableImage("app")
    exe.add_function(FunctionSymbol("_stub", instrumentable=False))
    assert exe.instrument_statically() == 0


def test_process_image_has_instance_per_symbol():
    env = Environment()
    pim = ProcessImage(env, build_exe(), "app[0]")
    assert pim.func("main").symbol.name == "main"
    with pytest.raises(KeyError):
        pim.func("nope")


def test_find_functions_glob():
    env = Environment()
    pim = ProcessImage(env, build_exe(), "app[0]")
    names = sorted(fi.name for fi in pim.find_functions("solve_*"))
    assert names == ["solve_energy", "solve_pressure"]
    assert pim.find_functions("zzz*") == []


@given(
    before=st.lists(st.sampled_from(
        ["main", "solve_a", "solve_b", "io_dump", "s1", "sx"]), unique=True),
    after=st.lists(st.sampled_from(["solve_c", "s2", "zz"]), unique=True),
    patterns=st.lists(st.sampled_from(
        ["*", "solve_*", "s?", "*_dump", "[ms]*", "zz*", "main"]), max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_memoised_find_functions_matches_uncached(before, after, patterns):
    """Glob results are memoised per (executable, pattern): each rank's
    image answers from one match, in symbol-table order, and symbols
    added later reach new images but not ones already built."""
    env = Environment()
    exe = ExecutableImage("app")
    for name in before:
        exe.define(name)
    early = ProcessImage(env, exe, "app[0]")

    def uncached(pim, pattern):
        return [fi for n, fi in pim.functions.items()
                if fnmatch.fnmatchcase(n, pattern)]

    for pattern in patterns:
        assert early.find_functions(pattern) == uncached(early, pattern)
    for name in after:
        exe.define(name)
    late = ProcessImage(env, exe, "app[1]")
    for pattern in patterns + ["*"]:
        assert early.find_functions(pattern) == uncached(early, pattern)
        assert late.find_functions(pattern) == uncached(late, pattern)


def test_install_and_remove_probe():
    env = Environment()
    pim = ProcessImage(env, build_exe(), "app[0]")
    handle = pim.install_probe("solve_pressure", ENTRY, Const(0))
    assert pim.installed_probes == 1
    assert pim.probes_installed_at("solve_pressure", ENTRY) == 1
    assert pim.func("solve_pressure").entry is not None

    assert pim.remove_probe(handle) is True
    assert pim.installed_probes == 0
    # Empty trampoline is torn down (jump patched back out).
    assert pim.func("solve_pressure").entry is None
    # Removing twice is a no-op returning False.
    assert pim.remove_probe(handle) is False


def test_multiple_probes_chain_at_one_point():
    env = Environment()
    pim = ProcessImage(env, build_exe(), "app[0]")
    h1 = pim.install_probe("main", EXIT, Const(1))
    h2 = pim.install_probe("main", EXIT, Const(2))
    assert pim.probes_installed_at("main", EXIT) == 2
    pim.remove_probe(h1)
    assert pim.probes_installed_at("main", EXIT) == 1
    assert pim.func("main").exit is not None  # one mini left
    pim.remove_probe(h2)
    assert pim.func("main").exit is None


def test_probe_activation_toggle():
    env = Environment()
    pim = ProcessImage(env, build_exe(), "app[0]")
    h = pim.install_probe("main", ENTRY, Const(1), activate=False)
    assert not h.mini.active
    pim.set_probe_active(h, True)
    assert h.mini.active


def test_install_on_bad_location_rejected():
    env = Environment()
    pim = ProcessImage(env, build_exe(), "app[0]")
    with pytest.raises(ValueError):
        pim.install_probe("main", "callsite", Const(1))


def test_install_on_non_instrumentable_rejected():
    env = Environment()
    exe = ExecutableImage("app")
    exe.add_function(FunctionSymbol("locked", instrumentable=False))
    pim = ProcessImage(env, exe, "app[0]")
    with pytest.raises(ValueError, match="not instrumentable"):
        pim.install_probe("locked", ENTRY, Const(1))


def test_variable_cells_notify_watchers():
    env = Environment()
    pim = ProcessImage(env, build_exe(), "app[0]")
    cell = pim.variable_cell("spin")
    ev = cell.changed()
    assert not ev.triggered
    pim.write_variable("spin", 99)
    assert ev.triggered and ev._value == 99
    assert pim.read_variable("spin") == 99


def test_runtime_registry():
    env = Environment()
    pim = ProcessImage(env, build_exe(), "app[0]")
    def fn(ctx):
        return None

    pim.register_runtime("VT_begin", fn)
    assert pim.resolve_runtime("VT_begin") is fn
    assert pim.resolve_runtime("VT_end") is None


def test_images_are_independent_across_processes():
    """Each MPI rank's image is patched independently (Fig. 9 premise)."""
    env = Environment()
    exe = build_exe()
    a = ProcessImage(env, exe, "app[0]")
    b = ProcessImage(env, exe, "app[1]")
    a.install_probe("main", ENTRY, Const(1))
    assert a.installed_probes == 1
    assert b.installed_probes == 0
    assert b.func("main").entry is None
