"""In-memory spans around the solver's public functions, for the traced run.

Each target is a ``module.attr`` name under ``irs_swipt``: the name a caller
looks the function up by at call time (``bcd.sca_precoder_solve`` is the
precoder solve as ``bcd_solve`` calls it).  While installed, every call of a
target opens a span.  Spans are reduced on close to per-(span, parent)
aggregates of call count, inclusive time and self time, where self time is
the span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    """Install and remove timing wrappers around named library functions."""

    def __init__(self, targets: tuple[str, ...]):
        self.targets = targets
        # (span, parent span or None) -> [calls, inclusive s, self s]
        self.stats: dict[tuple[str, str | None], list] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                agg = stats[name, parent]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return traced

    def install(self) -> None:
        """Wrap every target that exists; targets a refactor removed are skipped."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            mod_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(f"irs_swipt.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(target, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self._stack.clear()

    def calls(self, name: str, parent: str | None = "*") -> int:
        return sum(v[0] for (n, p), v in self.stats.items()
                   if n == name and parent in ("*", p))

    def total_s(self, name: str, parent: str | None = "*") -> float:
        return sum(v[1] for (n, p), v in self.stats.items()
                   if n == name and parent in ("*", p))

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.stats.items() if n == name)
