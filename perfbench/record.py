"""Run records: where and on what a result was measured.

Every result is saved with the host (CPU count and model, machine), the
Python and numpy versions, the git commit, the seed and the run length.
Figures from different hosts are not evidence of a change, so
:func:`same_host` gates every comparison.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict

RESULTS_DIR = ".perfbench-results"
HOST_KEYS = ("cpu_count", "cpu_model", "machine", "python", "numpy")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    """HEAD of ``root``'s git checkout, read from the files (no git
    process); "unknown" outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def host() -> Dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def make(root: Path, workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(root),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **host(),
    }


def save(root: Path, record: Dict[str, Any]) -> Path:
    directory = root / RESULTS_DIR / record["workload"]
    directory.mkdir(parents=True, exist_ok=True)
    stamp = record["recorded_at"].replace(":", "")
    path = directory / f"seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return path


def same_host(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return all(a.get(key) == b.get(key) for key in HOST_KEYS)
