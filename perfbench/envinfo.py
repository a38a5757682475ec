"""The environment a benchmark result was measured in."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        return {"blas": "unknown"}
    return {
        key: {f: deps.get(key, {}).get(f) for f in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
    }


def _cpu() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "model": model, "caches": caches}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
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


def environment(root: Path, child_env: dict[str, str]) -> dict:
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": _blas(),
        "child_thread_env": child_env,
        "cpu": _cpu(),
        "git_commit": _git_commit(root),
    }
