"""Where a measurement came from: machine, interpreter, code and seed."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from typing import Dict

import numpy as np


def source_digest(root: str = "src/repro") -> str:
    """SHA-256 over every Python file under *root*, names included.

    Identifies the measured code where no git metadata is available (a
    benchmark checkout need not be a repository).
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git work tree."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def provenance(seed: int) -> Dict[str, object]:
    """Everything a reader needs to place one measurement."""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
