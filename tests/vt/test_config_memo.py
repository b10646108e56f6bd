"""The memoised VT rule resolver against an uncached reference,
including after the public ``rules`` list and ``default_on`` change."""

import fnmatch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vt import VTConfig

names = st.sampled_from(
    ["alpha", "beta", "gamma", "delta_x", "util_copy", "hypre_Solve", "a"])
rule = st.tuples(
    st.sampled_from(["*", "a*", "alpha", "beta", "util_*", "*_x", "g?mma",
                     "hypre_*", "[ab]*"]),
    st.booleans(),
)
#: A mutation of a config: append a rule, drop one, or flip the default.
edit = st.one_of(
    st.tuples(st.just("append"), rule),
    st.tuples(st.just("pop"), st.integers(0, 7)),
    st.tuples(st.just("default"), st.booleans()),
)


def uncached(rules, default_on, name):
    state = default_on
    for glob, active in rules:
        if fnmatch.fnmatchcase(name, glob):
            state = active
    return state


@given(rules=st.lists(rule, max_size=8), default=st.booleans(),
       edits=st.lists(edit, max_size=5), probe=st.lists(names, max_size=10))
@settings(max_examples=60, deadline=None)
def test_memoised_resolution_matches_uncached(rules, default, edits, probe):
    cfg = VTConfig(rules=rules, default_on=default)
    twin = VTConfig(rules=list(rules), default_on=default)
    universe = ["alpha", "beta", "gamma", "delta_x", "util_copy",
                "hypre_Solve", "a"]
    for op, arg in [(None, None)] + edits:
        if op == "append":
            cfg.rules.append(arg)
        elif op == "pop" and cfg.rules:
            cfg.rules.pop(arg % len(cfg.rules))
        elif op == "default":
            cfg.default_on = arg
        for name in probe + universe:
            want = uncached(cfg.rules, cfg.default_on, name)
            assert cfg.is_active(name) == want
        assert cfg.deactivation_table(universe) == {
            n for n in universe
            if not uncached(cfg.rules, cfg.default_on, n)}
    # Mutating one config never leaks into another with the old rules.
    for name in universe:
        assert twin.is_active(name) == uncached(rules, default, name)


def test_parse_appends_invalidate_the_memo():
    cfg = VTConfig.parse("SYMBOL * OFF\n")
    assert not cfg.is_active("hypre_Solve")
    cfg.rules.append(("hypre_*", True))
    assert cfg.is_active("hypre_Solve")
    assert not cfg.is_active("util_copy")
