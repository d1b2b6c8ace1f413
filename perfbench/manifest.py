"""Environment manifest recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas_runtime() -> list[dict]:
    """Version, core type and thread count of every OpenBLAS mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and line.endswith(".so")})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for suffix in ("64_", ""):
            prefix = "scipy_openblas"
            try:
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_core = getattr(lib, f"{prefix}_get_corename{suffix}")
            get_core.restype = ctypes.c_char_p
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            get_threads.restype = ctypes.c_int
            info.update(
                config=get_config().decode(), core=get_core().decode(), threads=int(get_threads())
            )
            break
        out.append(info)
    return out


def library_manifest() -> dict:
    """Versions and BLAS threading of the running interpreter (imports numpy and scipy)."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS)

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version")}

    runtime = _openblas_runtime()
    threads = [lib["threads"] for lib in runtime if "threads" in lib]
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "openblas_runtime": runtime,
        "thread_env": env,
        "blas_threads": max(threads) if threads else int(env["OPENBLAS_NUM_THREADS"] or nproc()),
        "nproc": nproc(),
    }


def machine_manifest(root: Path, seed: int) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "seed": seed,
        "git_commit": git_commit(root),
    }
