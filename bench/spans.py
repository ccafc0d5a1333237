"""Layer spans installed around lpk's public functions from outside.

A hook names one layer and every module attribute it is looked up
through; an engine resolves a helper through its own module's globals,
so ``pattern_signature`` has to be wrapped both in ``lpk.lp`` and in
``lpk.harness`` for every call to land in the span.  A hook whose
target no longer exists is recorded as missing and skipped, so the
untraced benchmark keeps working after a refactor renames a layer.

Spans nest: a span's self time is its wall time minus the wall time of
the spans opened inside it.  Totals are kept in memory and read once
the traced passes end.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One layer: a span name, where its function is looked up, what to count.

    ``targets`` are ``"module:attr"`` or ``"module:Class.attr"`` strings.
    ``count`` receives ``(tracer, args, kwargs, result)`` after each call.
    """

    name: str
    targets: tuple[str, ...]
    count: Callable | None = None


@dataclass
class Tracer:
    """Self time, call counts and named counters per span."""

    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counters: dict = field(default_factory=lambda: defaultdict(float))
    missing: list = field(default_factory=list)
    _children: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        def spanned(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = self._children.pop()
                self.self_s[name] += elapsed - inner
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += elapsed
            if count is not None:
                try:
                    count(self, args, kwargs, result)
                except Exception as exc:  # a changed result shape must not end the run
                    note = f"{name} counter: {type(exc).__name__}: {exc}"
                    if note not in self.missing:
                        self.missing.append(note)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def install(self, hooks) -> None:
        """Wrap every reachable target; record the unreachable ones."""
        for hook in hooks:
            for target in hook.targets:
                owner, attr = _resolve(target)
                if owner is None:
                    note = f"{hook.name} <- {target}"
                    if note not in self.missing:
                        self.missing.append(note)
                    continue
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self.wrap(hook.name, original, hook.count))
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(target: str):
    """``(owner, attr)`` for a ``"module:attr"`` target, or ``(None, None)``."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
    if not present or not callable(getattr(owner, attr)):
        return None, None
    return owner, attr
