"""Shared pieces of the benchmark: operation bookkeeping, timing statistics,
output digests and the environment record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_taalkit():
    """Import taalkit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "taalkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no taalkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import taalkit

    if Path(taalkit.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported taalkit from {taalkit.__file__}, not {SRC}")
    return taalkit


class Ops:
    """Counts operations and the checks they fail.

    An operation fails on a non-zero exit, an exception or a failed output
    check; each failure keeps a one-line reason for the report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, n: int = 1, problem: str | None = None) -> None:
        self.attempted += n
        if problem is not None:
            self.failed += n
            if len(self.problems) < 20:
                self.problems.append(problem)

    def problem(self, text: str) -> None:
        """A check that belongs to no single operation, such as call coverage."""
        self.record(1, text)


class Samples:
    """Per-path samples of (items, seconds) for one measured phase."""

    def __init__(self):
        self.by_path: dict[str, list[tuple[float, float]]] = {}

    def add(self, path: str, items: float, seconds: float) -> None:
        self.by_path.setdefault(path, []).append((items, seconds))

    def rate(self, *paths: str) -> float:
        """Items per second over every sample of the given paths."""
        items = sum(i for p in paths for i, _ in self.by_path.get(p, ()))
        secs = sum(s for p in paths for _, s in self.by_path.get(p, ()))
        return items / secs if secs > 0 else float("nan")

    def count(self, path: str) -> int:
        return len(self.by_path.get(path, ()))

    def percentile_ms(self, path: str, q: float) -> float:
        """Nearest-rank percentile of the sample durations, in ms."""
        times = sorted(s for _, s in self.by_path.get(path, ()))
        if not times:
            return float("nan")
        rank = max(1, math.ceil(q / 100.0 * len(times)))
        return 1000.0 * times[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def median(values):
    vals = sorted(values)
    n = len(vals)
    mid = n // 2
    return vals[mid] if n % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": None,
        "blas": None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return env
