"""The Vampirtrace configuration file.

At VT initialisation the configuration file is read and a table of
deactivated symbols is built; every ``VT_begin``/``VT_end`` does a lookup
into this table (Section 4.2 of the paper).  The format here mirrors the
spirit of the real VT config file:

.. code-block:: text

    # comments and blank lines are ignored
    DEFAULT ON              # implicit state of unmentioned symbols
    SYMBOL * OFF            # glob directives, later ones win
    SYMBOL hypre_* ON
    MPI-TRACE ON            # log MPI message events?
    STATS OFF               # write runtime statistics at confsync?

Directives are case-insensitive; symbol globs are case-sensitive.
"""

from __future__ import annotations

import fnmatch
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Set, Tuple

__all__ = ["VTConfig", "VTConfigError"]


class VTConfigError(ValueError):
    """Malformed configuration text."""


def _parse_on_off(token: str, line_no: int) -> bool:
    t = token.upper()
    if t == "ON":
        return True
    if t == "OFF":
        return False
    raise VTConfigError(f"line {line_no}: expected ON or OFF, got {token!r}")


@lru_cache(maxsize=64)
def _resolver(
    rules: Tuple[Tuple[str, bool], ...], default_on: bool
) -> Callable[[str], bool]:
    """A memoised last-match-wins resolver for one rule set.

    Every rank of a job resolves every symbol against the same rules;
    the memo makes that one ``fnmatch`` pass per rule set and symbol
    instead of one per rank.
    """
    memo: Dict[str, bool] = {}

    def resolve(name: str) -> bool:
        state = memo.get(name)
        if state is None:
            state = default_on
            for glob, active in rules:
                if fnmatch.fnmatchcase(name, glob):
                    state = active
            memo[name] = state
        return state

    return resolve


class VTConfig:
    """Parsed VT configuration: symbol activation rules + library flags."""

    def __init__(
        self,
        rules: Iterable[Tuple[str, bool]] = (),
        default_on: bool = True,
        mpi_trace: bool = True,
        stats: bool = False,
    ) -> None:
        #: Ordered (glob, active) rules; the *last* matching rule wins.
        self.rules: List[Tuple[str, bool]] = list(rules)
        self.default_on = default_on
        self.mpi_trace = mpi_trace
        self.stats = stats

    # -- parsing --------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "VTConfig":
        cfg = cls()
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            keyword = parts[0].upper()
            if keyword == "SYMBOL":
                if len(parts) != 3:
                    raise VTConfigError(
                        f"line {line_no}: SYMBOL needs <glob> <ON|OFF>"
                    )
                cfg.rules.append((parts[1], _parse_on_off(parts[2], line_no)))
            elif keyword == "DEFAULT":
                if len(parts) != 2:
                    raise VTConfigError(f"line {line_no}: DEFAULT needs ON|OFF")
                cfg.default_on = _parse_on_off(parts[1], line_no)
            elif keyword == "MPI-TRACE":
                if len(parts) != 2:
                    raise VTConfigError(f"line {line_no}: MPI-TRACE needs ON|OFF")
                cfg.mpi_trace = _parse_on_off(parts[1], line_no)
            elif keyword == "STATS":
                if len(parts) != 2:
                    raise VTConfigError(f"line {line_no}: STATS needs ON|OFF")
                cfg.stats = _parse_on_off(parts[1], line_no)
            else:
                raise VTConfigError(f"line {line_no}: unknown directive {parts[0]!r}")
        return cfg

    # -- convenience constructors (the paper's Table 3 policies) ----------------

    @classmethod
    def all_on(cls) -> "VTConfig":
        """Full: every statically inserted probe active."""
        return cls()

    @classmethod
    def all_off(cls) -> "VTConfig":
        """Full-Off: everything statically instrumented but deactivated."""
        return cls(rules=[("*", False)])

    @classmethod
    def subset(cls, active: Iterable[str]) -> "VTConfig":
        """Subset: deactivate all, then re-activate the important functions."""
        rules: List[Tuple[str, bool]] = [("*", False)]
        rules.extend((name, True) for name in active)
        return cls(rules=rules)

    # -- evaluation ---------------------------------------------------------------

    def resolver(self) -> Callable[[str], bool]:
        """``name -> active`` under the current rules (last match wins).

        Memoised per rule set, and keyed on a snapshot of :attr:`rules`
        and :attr:`default_on`, so mutating either yields a fresh one.
        """
        return _resolver(tuple(self.rules), self.default_on)

    def is_active(self, name: str) -> bool:
        """Resolve one symbol against the rules (last match wins)."""
        return self.resolver()(name)

    def deactivation_table(self, names: Iterable[str]) -> Set[str]:
        """The table VT builds at init: the set of *deactivated* symbols."""
        active = self.resolver()
        return {n for n in names if not active(n)}

    # -- serialisation (what confsync broadcasts) -----------------------------------

    def dump(self) -> str:
        lines = [f"DEFAULT {'ON' if self.default_on else 'OFF'}"]
        lines.extend(
            f"SYMBOL {glob} {'ON' if active else 'OFF'}" for glob, active in self.rules
        )
        lines.append(f"MPI-TRACE {'ON' if self.mpi_trace else 'OFF'}")
        lines.append(f"STATS {'ON' if self.stats else 'OFF'}")
        return "\n".join(lines) + "\n"

    def payload_bytes(self) -> int:
        """Size of the serialised config (what confsync puts on the wire)."""
        return len(self.dump().encode("utf-8"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VTConfig):
            return NotImplemented
        return (
            self.rules == other.rules
            and self.default_on == other.default_on
            and self.mpi_trace == other.mpi_trace
            and self.stats == other.stats
        )

    def __repr__(self) -> str:
        return (
            f"<VTConfig rules={len(self.rules)} default="
            f"{'on' if self.default_on else 'off'} mpi={self.mpi_trace} "
            f"stats={self.stats}>"
        )
