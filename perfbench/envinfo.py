"""The environment block every benchmark run prints.

The benchmark sets no BLAS or OpenMP thread variable itself: it reports
the ones it inherited, so a change to the program's own thread sizing
shows in the results.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_times() -> Dict[str, int]:
    """Aggregate ``/proc/stat`` jiffies (empty where it does not exist)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return {}
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return {name: int(value) for name, value in zip(names, fields[1:])}


class StealMonitor:
    """CPU steal over time, read from ``/proc/stat`` every ``period`` seconds.

    Steal is time the hypervisor gave to other guests while this VM wanted
    to run. ``intervals()`` yields ``(start, end, share)`` with ``share``
    the stolen part of all CPU time in the interval; readings are
    ``perf_counter`` stamps, comparable with the children's.
    """

    def __init__(self, period: float = 0.5):
        self.period = period
        self.readings: List[Tuple[float, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="bench-steal-monitor")

    def _read(self) -> None:
        times = cpu_times()
        if times:
            self.readings.append(
                (time.perf_counter(), times["steal"], sum(times.values())))

    def _run(self) -> None:
        self._read()
        while not self._stop.wait(self.period):
            self._read()

    def __enter__(self) -> "StealMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5.0)
        self._read()

    def intervals(self) -> List[Tuple[float, float, float]]:
        out = []
        for (t0, s0, c0), (t1, s1, c1) in zip(self.readings, self.readings[1:]):
            out.append((t0, t1, (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0))
        return out

    def share(self) -> float:
        """Stolen share of all CPU time over the whole monitored span."""
        if len(self.readings) < 2:
            return float("nan")
        (_, s0, c0), (_, s1, c1) = self.readings[0], self.readings[-1]
        return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def blas(python: str, env: Dict[str, str]) -> str:
    """The BLAS numpy was built against, as seen by the benchmark's children."""
    code = (
        "import numpy; c = numpy.show_config(mode='dicts');"
        "b = c.get('Build Dependencies', {}).get('blas', {});"
        "print(numpy.__version__, b.get('name'), b.get('version'))"
    )
    out = subprocess.run([python, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    return out.stdout.strip() or f"unknown ({out.stderr.strip()[-200:]})"


def collect(root: Path, python: str, env: Dict[str, str]) -> Dict:
    numpy_version, _, blas_name = blas(python, env).partition(" ")
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_sha": git_sha(root),
        "src_digest": source_digest(root),
    }
