"""Shared plumbing for the benchmark: statistics, host stamp, host speed,
child processes.

Every system under test runs in a process of its own, started here, so
its set-up time is measured from spawn to ready and its peak memory is
its own, never the benchmark's generated data.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import os
import platform
import select
import socket
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Root of the checkout: the benchmark lives one directory below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, checkpoints and traces; named in
#: the repository's .gitignore.
WORK_ROOT = ROOT / ".perfbench"

#: How many times each run starts its system to measure set-up time; the
#: reported ``setup_s`` is the median.
SETUP_REPEATS = 7


class BenchError(RuntimeError):
    """The benchmark could not run a workload to completion."""


# -- statistics ---------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); nan for no values."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def poisson_arrivals(rate_hz: float, seconds: float, seed: int
                     ) -> List[float]:
    """Seeded Poisson arrival times in ``(0, seconds]``, from the
    program's own ``ArrivalSchedule``."""
    from repro.data.firehose import ArrivalSchedule

    times = ArrivalSchedule(rate_hz, shape="poisson", seed=seed).times()
    return list(itertools.takewhile(lambda t: t <= seconds, times))


def visible_cores() -> int:
    """Cores in this process's affinity mask (not the host's total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- host stamp ---------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the program's source tree; identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_stamp(seed: int) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a dependency
        numpy_version = None
    return {
        "seed": seed,
        "cores": visible_cores(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- host speed ---------------------------------------------------------

#: Seconds the host probe takes on the reference host, a shared 2-vCPU
#: Intel Xeon VM with Python 3.11 at its usual speed. Host-scaled times
#: are times on a host where the probe takes this long.
PROBE_REFERENCE_S = 0.001

_PROBE_WORDS = ("you", "are", "such", "an", "idiot", "lol", "#fun",
                "@user", "http://t.co/x", "great", "day", "!!")


def _probe_work() -> float:
    """A fixed piece of pure-Python work of the kind the program does:
    string handling, dict updates, float arithmetic and calls. It uses
    none of the program's code, so a change to the program leaves it
    unchanged."""
    counts: Dict[str, int] = {}
    total = 0.0
    for i in range(1500):
        word = _PROBE_WORDS[i % len(_PROBE_WORDS)]
        key = word.lower().strip("#@!")
        counts[key] = counts.get(key, 0) + 1
        total += math.sqrt(len(key) + i) * 0.5
    return total + len(counts)


def probe_seconds() -> float:
    """How long the probe takes now: best of three, so an interrupt
    inside one attempt does not count."""
    clock = time.perf_counter
    best = math.inf
    for _ in range(3):
        start = clock()
        _probe_work()
        best = min(best, clock() - start)
    return best


class HostClock:
    """``time.perf_counter`` rescaled to the reference host speed.

    On a shared VM the same code runs up to 40% slower for stretches of
    seconds to minutes, as other tenants load the physical cores; that
    moves every wall time of a run. The caller calls ``mark()`` at run
    start, often during the run and at run end, from the thread doing
    the work. Each mark times the probe. Wall time between two marks is
    scaled by ``PROBE_REFERENCE_S`` over the mean of their two probes,
    and the marks' own time is left out. A change to the program moves
    scaled times as it moves wall times; a change of host speed moves
    the program and the probe alike and cancels out.
    """

    def __init__(self) -> None:
        self.starts = array("d")  # wall time each mark began
        self.ends = array("d")    # wall time each mark ended
        self.probes = array("d")  # probe seconds at each mark
        self._bases: List[float] = []

    def mark(self) -> None:
        self.starts.append(time.perf_counter())
        self.probes.append(probe_seconds())
        self.ends.append(time.perf_counter())

    def scaled(self, stamp: float) -> float:
        """Host-scaled seconds from the first mark's end to ``stamp``,
        a ``perf_counter`` value taken between the first and last mark."""
        if len(self._bases) != len(self.ends):
            self._bases = [0.0]
            for i in range(len(self.ends) - 1):
                self._bases.append(self._bases[i] + self._segment(
                    i, self.starts[i + 1]))
        i = bisect.bisect_right(self.ends, stamp) - 1
        if i < 0:
            return 0.0
        if i == len(self.ends) - 1:
            return self._bases[i]
        return self._bases[i] + self._segment(
            i, min(stamp, self.starts[i + 1]))

    def _segment(self, i: int, stamp: float) -> float:
        speed = PROBE_REFERENCE_S / (0.5 * (self.probes[i] + self.probes[i + 1]))
        return (stamp - self.ends[i]) * speed

    def total(self) -> float:
        """Host-scaled seconds from the first mark to the last."""
        return self.scaled(self.ends[-1])


# -- memory -------------------------------------------------------------


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- child processes ----------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Child:
    """A system-under-test process driven over line-based stdin/stdout.

    The child prints ``READY`` once it can take work, reads ``GO`` (or
    end of input, which tells it to quit), and prints ``DONE`` when its
    result file is written.
    """

    def __init__(self, argv: Sequence[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, bufsize=0,
        )
        self._buffer = b""

    def expect(self, word: str, timeout_s: float) -> str:
        """Block until the child prints a line starting with ``word``;
        returns the rest of that line."""
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text.startswith(word):
                    return text[len(word):].strip()
            remaining = deadline - time.monotonic()
            ready = select.select([fd], [], [], max(0.0, remaining))[0]
            chunk = os.read(fd, 65536) if ready else b""
            if not chunk:
                raise BenchError(
                    f"child {' '.join(self.proc.args[1:3])} ended or timed "
                    f"out waiting for {word} (exit {self.proc.poll()})"
                )
            self._buffer += chunk

    def seconds_since_start(self) -> float:
        return time.perf_counter() - self.started

    def send(self, word: str) -> None:
        self.proc.stdin.write(word.encode("utf-8") + b"\n")

    def close(self) -> None:
        """Let the child exit (stdin EOF); one still working after 10 s,
        as when the benchmark itself is stopped, gets SIGTERM."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        stop_process(self.proc, timeout_s=10)
        self.proc.stdout.close()


def run_system(role: str, config_path: Path, starts: int) -> List[float]:
    """Start ``sut.py ROLE CONFIG`` ``starts`` times and time each start
    from spawn to ready; the last start is told to do the work. Returns
    the set-up times, host-scaled (see ``HostClock``) by the probe time
    the child reports with ``READY``: the child's own, since it may run
    on another core than the benchmark."""
    setups: List[float] = []
    for attempt in range(starts):
        child = Child(["perfbench/sut.py", role, str(config_path)])
        try:
            probe_s = float(child.expect("READY", timeout_s=60))
            wall_s = child.seconds_since_start()
            setups.append(wall_s * PROBE_REFERENCE_S / probe_s)
            if attempt == starts - 1:
                child.send("GO")
                child.expect("DONE", timeout_s=170)
        finally:
            child.close()
    return setups


def stop_process(proc: subprocess.Popen, timeout_s: float = 30.0,
                 terminate: bool = False) -> None:
    """Wait for ``proc`` to end. Send SIGTERM at once with ``terminate``,
    otherwise after ``timeout_s``; SIGKILL if it still runs 10 s later."""
    if terminate:
        proc.terminate()
    try:
        proc.wait(timeout=timeout_s)
        return
    except subprocess.TimeoutExpired:
        proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def read_json(path: Path) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
