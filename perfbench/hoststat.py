"""Host-side measurement helpers: /proc readers, percentiles, host
fingerprint.  Linux only (the benchmark reads /proc)."""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import shutil

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_SAMPLES_BEYOND = 10


def proc_cpu_seconds(pid: int, stat_text: str | None = None) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads),
    from ``/proc/<pid>/stat`` fields 14 and 15."""
    if stat_text is None:
        with open(f"/proc/{pid}/stat") as f:
            stat_text = f.read()
    # The command name (field 2) may hold spaces and parentheses; the
    # fields after it start at the last ')'.
    rest = stat_text.rsplit(")", 1)[1].split()
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int, status_text: str | None = None) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    if status_text is None:
        with open(f"/proc/{pid}/status") as f:
            status_text = f.read()
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected VmHWM unit {unit!r}")
            return int(value) / 1024.0
    raise ValueError("no VmHWM line in the status text")


def min_samples(pct: float) -> int:
    """Smallest sample count with MIN_SAMPLES_BEYOND samples beyond the
    ``pct`` percentile (nearest-rank)."""
    n = 1
    while n - math.ceil(pct / 100.0 * n) < MIN_SAMPLES_BEYOND:
        n += 1
    return n


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile.  A tail percentile (above the median)
    with fewer than MIN_SAMPLES_BEYOND samples beyond it raises."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if pct > 50 and len(ordered) - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has only"
            f" {len(ordered) - rank} beyond it;"
            f" need {MIN_SAMPLES_BEYOND} ({min_samples(pct)} samples)"
        )
    return ordered[rank - 1]


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        return "unknown"


def fingerprint() -> dict:
    """What a reader needs to compare two results: cores, load, BLAS,
    toolchain.  The kernel backends actually running are added from the
    servers' health reports."""
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cc": shutil.which("cc") or shutil.which("gcc"),
        "cffi": importlib.util.find_spec("cffi") is not None,
    }
