"""The environment every result records: hardware, versions, commit."""

from __future__ import annotations

import glob
import os
import platform
import sys
from typing import Any


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def cpu_caches() -> dict[str, str]:
    """``{"L1d": "48K", "L2": "2048K", ...}`` for CPU 0, where sysfs has it."""
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind or "", "")
            caches[f"L{level}{suffix}"] = size
    return caches


def ram_mb() -> float | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def host_environment(root: str) -> dict[str, Any]:
    """What the parent process can record without importing NumPy."""
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "cpu_caches": cpu_caches(),
        "ram_mb": ram_mb(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def library_environment() -> dict[str, Any]:
    """NumPy and BLAS versions, as the measured (child) process sees them."""
    import numpy as np

    blas: dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, AttributeError):  # pragma: no cover - NumPy < 1.25
        pass
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
