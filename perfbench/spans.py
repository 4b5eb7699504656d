"""Span recorder for the traced runs, applied from the benchmark's own files.

The traced run wraps the program's public calls (instance methods of the
live engine, pipeline and model, and a few module-level functions) with
timing spans. Each span records its name, start, end and the id of the
span that was open when it started; ids are per process, and the parent
is tracked through a context variable, so spans nest correctly both in
plain calls and in asyncio tasks. Spans stay in memory and each process
writes its own file once, at its end: the system's main process when its
work is done, a forked pool worker when it exits.

End-to-end numbers never come from a traced process.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)

#: Extracts a number to add to a span name's tally from ``(result, args)``.
Tally = Callable[[Any, tuple], float]


class Recorder:
    """In-memory span log of one process.

    A recorder inherited by a forked worker notices the new pid on its
    first span, drops the parent's spans and writes its own log when the
    worker exits.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        # Wrappers hold indexes into the name table, so it survives a fork.
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.tallies: Dict[str, float] = {}
        self._ids = itertools.count(1)

    def _claim(self) -> None:
        if os.getpid() != self.pid:
            self._reset()
            mp_util.Finalize(self, self.dump, exitpriority=10)

    def _name(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self):
        if os.getpid() != self.pid:
            self._claim()
        span_id = next(self._ids)
        return span_id, _CURRENT.set(span_id)

    def _close(self, span_id, token, name_index, start) -> None:
        end = time.perf_counter()
        parent = token.old_value
        if parent is contextvars.Token.MISSING:
            parent = 0
        _CURRENT.reset(token)
        self.spans.append((span_id, parent, name_index, start, end))

    def _add(self, name: str, amount: float) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str,
             tally: Optional[Tally] = None) -> Callable:
        index = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, token = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, token, index, start)
            if tally is not None:
                self._add(name, tally(result, args))
            return result

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        index = self._name(name)

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id, token = self._open()
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span_id, token, index, start)

        return traced

    def wrap_iter(self, items: Iterable, name: str) -> Iterator:
        """One span per item drawn; the tally counts the items."""
        index = self._name(name)
        iterator = iter(items)
        while True:
            span_id, token = self._open()
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span_id, token, index, start)
            self._add(name, 1)
            yield item

    def patch(self, owner: Any, attr: str, name: str,
              tally: Optional[Tally] = None) -> None:
        """Replace ``owner.attr`` (object, class or module) with a traced
        wrapper of itself."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, tally))

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": os.getpid(), "names": self.names,
                 "spans": self.spans, "tallies": self.tallies},
                handle, separators=(",", ":"),
            )
        return path


class LayerTotals:
    """Per-name totals over every span file of one traced run."""

    def __init__(self) -> None:
        self.busy_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.root_s: Dict[str, float] = {}
        self.tallies: Dict[str, float] = {}

    @classmethod
    def load(cls, out_dir: Path,
             windows: Optional[List[Tuple[float, float]]] = None
             ) -> "LayerTotals":
        """Totals over all span files; with ``windows``, only spans that
        start inside one of them (span times are CLOCK_MONOTONIC, shared
        by every process on the host)."""
        totals = cls()
        for path in sorted(Path(out_dir).glob("spans-*.json")):
            with open(path, encoding="utf-8") as handle:
                totals.add_log(json.load(handle), windows)
        return totals

    def add_log(self, log: Dict[str, Any],
                windows: Optional[List[Tuple[float, float]]] = None) -> None:
        names = log["names"]
        spans = log["spans"]
        if windows is not None:
            spans = [s for s in spans
                     if any(lo <= s[3] <= hi for lo, hi in windows)]
        children: Dict[int, float] = {}
        for _, parent, _, start, end in spans:
            if parent:
                children[parent] = children.get(parent, 0.0) + (end - start)
        for span_id, parent, index, start, end in spans:
            name = names[index]
            duration = end - start
            self.busy_s[name] = self.busy_s.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + (
                duration - children.get(span_id, 0.0)
            )
            self.calls[name] = self.calls.get(name, 0) + 1
            if not parent:
                self.root_s[name] = self.root_s.get(name, 0.0) + duration
        for name, amount in log["tallies"].items():
            self.tallies[name] = self.tallies.get(name, 0) + amount

    def busy(self, name: str) -> float:
        return self.busy_s.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def tally(self, name: str) -> float:
        return self.tallies.get(name, 0)
