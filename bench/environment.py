"""The environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np

# Exported thread-count getters of the OpenBLAS builds NumPy ships with.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_blas_library() -> Optional[str]:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        path = line.split()[-1]
        if "blas" in Path(path).name.lower() and ".so" in path:
            return path
    return None


def blas_record() -> dict:
    """BLAS vendor and version as NumPy was built, and its live thread count."""
    record: dict = {"name": None, "version": None, "threads": None, "library": None}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        record["name"], record["version"] = blas.get("name"), blas.get("version")
    except (TypeError, AttributeError):
        pass
    library = _loaded_blas_library()
    record["library"] = library
    if library is not None:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            return record
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                record["threads"] = int(getter())
                break
    return record


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def environment_record(root: Path, seed: int) -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "inherited_thread_env": {
            key: value for key, value in sorted(os.environ.items()) if key.endswith("_NUM_THREADS")
        },
        "mcbricks_git_commit": git_commit(root),
        "mcbricks_source_sha256": source_digest(root / "src" / "mcbricks"),
        "workload_seed": seed,
    }
