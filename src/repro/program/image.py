"""Executable-image and process-image models.

An :class:`ExecutableImage` is the on-disk program: a symbol table of
:class:`FunctionSymbol` s, each optionally carrying *static* VT
instrumentation (the Guide compiler analog inserts entry/exit profile
calls at compile time, Section 3.1).

A :class:`ProcessImage` is one OS process's copy of the image: dynamic
patches (trampolines), address-space variables, and the runtime-function
registry snippets resolve against.  MPI ranks each get their own process
image — dynprof must patch every one of them — while all OpenMP threads
of a process share a single image, which is why Umt98's instrumentation
time is flat in Figure 9.
"""

from __future__ import annotations

import fnmatch
import inspect
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..simt import Environment, Event
from .snippet import Snippet
from .trampoline import BaseTrampoline, ProbeHandle

__all__ = [
    "ENTRY",
    "EXIT",
    "FunctionSymbol",
    "FunctionInstance",
    "ExecutableImage",
    "ProcessImage",
    "VariableCell",
]

#: Probe-point location names (the paper instruments entries and exits).
ENTRY = "entry"
EXIT = "exit"
_LOCATIONS = (ENTRY, EXIT)


class FunctionSymbol:
    """A function in the executable's symbol table."""

    __slots__ = (
        "name",
        "module",
        "body",
        "is_generator",
        "static_instrumented",
        "size_bytes",
        "instrumentable",
    )

    def __init__(
        self,
        name: str,
        body: Optional[Callable] = None,
        module: str = "main",
        size_bytes: int = 512,
        instrumentable: bool = True,
    ) -> None:
        self.name = name
        self.module = module
        self.body = body
        self.is_generator = body is not None and inspect.isgeneratorfunction(body)
        #: Set by the compiler when -instrument (VGV static mode) is on.
        self.static_instrumented = False
        self.size_bytes = size_bytes
        self.instrumentable = instrumentable

    def __repr__(self) -> str:
        return f"<FunctionSymbol {self.module}:{self.name}>"


class ExecutableImage:
    """The static program: symbol table + compile-time instrumentation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.symbols: Dict[str, FunctionSymbol] = {}
        #: glob -> matching symbol names, in symbol-table order.
        self._matches: Dict[str, Tuple[str, ...]] = {}

    def add_function(self, symbol: FunctionSymbol) -> FunctionSymbol:
        if symbol.name in self.symbols:
            raise ValueError(f"duplicate symbol {symbol.name!r} in {self.name}")
        self.symbols[symbol.name] = symbol
        self._matches.clear()
        return symbol

    def match(self, pattern: str) -> Tuple[str, ...]:
        """Names of the symbols matching glob ``pattern``, in table order.

        Memoised per pattern: every rank's image resolves the same globs.
        """
        names = self._matches.get(pattern)
        if names is None:
            names = self._matches[pattern] = tuple(
                n for n in self.symbols if fnmatch.fnmatchcase(n, pattern)
            )
        return names

    def define(self, name: str, body: Optional[Callable] = None, **kw: Any) -> FunctionSymbol:
        """Convenience: create and add a FunctionSymbol."""
        return self.add_function(FunctionSymbol(name, body, **kw))

    def function_names(self) -> List[str]:
        return list(self.symbols)

    def instrument_statically(self, names: Optional[Iterable[str]] = None) -> int:
        """The Guide-compiler analog: compile in VT entry/exit probes.

        Returns the number of functions instrumented.  With ``names=None``
        every instrumentable function is instrumented (the paper's Full /
        Full-Off / Subset builds all statically instrument everything —
        the *configuration file* is what turns probes off).
        """
        count = 0
        targets = self.symbols.values() if names is None else (
            self.symbols[n] for n in names
        )
        for sym in targets:
            if sym.instrumentable and not sym.static_instrumented:
                sym.static_instrumented = True
                count += 1
        return count

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def __repr__(self) -> str:
        return f"<ExecutableImage {self.name} ({len(self.symbols)} functions)>"


class VariableCell:
    """One address-space variable with change notification (for spins)."""

    __slots__ = ("name", "value", "_watchers", "_env")

    def __init__(self, env: Environment, name: str, value: Any = 0) -> None:
        self._env = env
        self.name = name
        self.value = value
        self._watchers: List[Event] = []

    def write(self, value: Any) -> None:
        self.value = value
        watchers, self._watchers = self._watchers, []
        for event in watchers:
            event.succeed(value)

    def changed(self) -> Event:
        """Event triggering at the next write to this variable."""
        event = Event(self._env)
        self._watchers.append(event)
        return event


class FunctionInstance:
    """Per-process-image state of one function (hot path of the executor)."""

    __slots__ = ("symbol", "name", "entry", "exit", "fid", "call_count", "static_on")

    def __init__(self, symbol: FunctionSymbol) -> None:
        self.symbol = symbol
        self.name = symbol.name
        #: Installed base trampolines, or None while unpatched.
        self.entry: Optional[BaseTrampoline] = None
        self.exit: Optional[BaseTrampoline] = None
        #: VT function id once registered (VT_funcdef), else None.
        self.fid: Optional[int] = None
        self.call_count = 0
        #: Mirror of symbol.static_instrumented (kept in slots for speed).
        self.static_on = symbol.static_instrumented

    def trampoline_at(self, where: str, create: bool = False) -> Optional[BaseTrampoline]:
        if where not in _LOCATIONS:
            raise ValueError(f"unknown probe location {where!r}")
        tramp = self.entry if where == ENTRY else self.exit
        if tramp is None and create:
            tramp = BaseTrampoline()
            if where == ENTRY:
                self.entry = tramp
            else:
                self.exit = tramp
        return tramp

    def drop_empty_trampoline(self, where: str) -> None:
        tramp = self.entry if where == ENTRY else self.exit
        if tramp is not None and len(tramp) == 0:
            if where == ENTRY:
                self.entry = None
            else:
                self.exit = None

    def __repr__(self) -> str:
        return f"<FunctionInstance {self.name} calls={self.call_count}>"


class ProcessImage:
    """One process's live copy of an executable image."""

    def __init__(self, env: Environment, exe: ExecutableImage, name: str) -> None:
        self.env = env
        self.exe = exe
        self.name = name
        self.functions: Dict[str, FunctionInstance] = {
            n: FunctionInstance(s) for n, s in exe.symbols.items()
        }
        self._variables: Dict[str, VariableCell] = {}
        self._runtime: Dict[str, Callable] = {}
        #: The VT library state attached to this process (set by repro.vt).
        self.vt: Any = None
        #: Probes installed into this image (counts for Fig. 9 accounting).
        self.installed_probes = 0

    # -- symbols --------------------------------------------------------------

    def func(self, name: str) -> FunctionInstance:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function {name!r} in image {self.name}") from None

    def find_functions(self, pattern: str) -> List[FunctionInstance]:
        """Glob-match function names (dynprof's insert/remove arguments)."""
        functions = self.functions
        return [functions[n] for n in self.exe.match(pattern) if n in functions]

    # -- address space ----------------------------------------------------------

    def variable_cell(self, name: str) -> VariableCell:
        cell = self._variables.get(name)
        if cell is None:
            cell = VariableCell(self.env, name)
            self._variables[name] = cell
        return cell

    def read_variable(self, name: str) -> Any:
        return self.variable_cell(name).value

    def write_variable(self, name: str, value: Any) -> None:
        self.variable_cell(name).write(value)

    # -- runtime registry ----------------------------------------------------

    def register_runtime(self, name: str, fn: Callable) -> None:
        """Expose ``fn`` to snippets as callee ``name`` (library function)."""
        self._runtime[name] = fn

    def resolve_runtime(self, name: str) -> Optional[Callable]:
        return self._runtime.get(name)

    # -- patching (performed by DPCL daemons while the target is stopped) ----

    def install_probe(self, function: str, where: str, snippet: Snippet, activate: bool = True) -> ProbeHandle:
        fi = self.func(function)
        if not fi.symbol.instrumentable:
            raise ValueError(f"function {function!r} is not instrumentable")
        tramp = fi.trampoline_at(where, create=True)
        mini = tramp.insert(snippet, activate=activate)
        self.installed_probes += 1
        return ProbeHandle(self.name, function, where, mini)

    def remove_probe(self, handle: ProbeHandle) -> bool:
        fi = self.func(handle.function)
        tramp = fi.trampoline_at(handle.where)
        if tramp is None:
            return False
        removed = tramp.remove(handle.mini)
        if removed:
            self.installed_probes -= 1
            fi.drop_empty_trampoline(handle.where)
        return removed

    def set_probe_active(self, handle: ProbeHandle, active: bool) -> None:
        handle.mini.active = active

    def probes_installed_at(self, function: str, where: str) -> int:
        tramp = self.func(function).trampoline_at(where)
        return 0 if tramp is None else len(tramp)

    def __repr__(self) -> str:
        return f"<ProcessImage {self.name} probes={self.installed_probes}>"
