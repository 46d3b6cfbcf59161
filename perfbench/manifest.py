"""What produced a result: code identity, host, BLAS and library versions."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np

#: Thread-control symbols of the OpenBLAS builds numpy ships or links.
_OPENBLAS_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
#: Environment variables that set BLAS threading (recorded, never set).
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_digest(root: str) -> str:
    """SHA-256 over the program's Python sources (path + bytes)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_rev(root: str) -> str | None:
    """The checkout's commit, or ``None`` outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def blas_info() -> dict:
    """numpy's BLAS library and the thread count it runs with."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREADS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                break
    info["env"] = {name: os.environ[name] for name in _THREAD_ENV if name in os.environ}
    return info


def host_manifest(root: str) -> dict:
    """Host and software facts shared by every workload's manifest."""
    return {
        "git_rev": git_rev(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
