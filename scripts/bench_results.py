"""The one writer of ``results/BENCH_scaling.json``.

Every benchmark script records through :func:`record`: it reads the file,
replaces only the top-level blocks it is handed and writes the whole file
back in one layout (``indent=1``, sorted keys).  No suite can drop or
reformat another's trajectory, and a file that does not parse is an error,
not an empty start.

Usage from a script in this directory::

    from bench_results import record
    record({"fabric": {...}})
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

RESULTS = Path(__file__).resolve().parent.parent / "results" / "BENCH_scaling.json"


def record(blocks: dict[str, Any], path: Path = RESULTS) -> Path:
    """Merge ``blocks`` into the results file at ``path`` and return it."""
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(blocks)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
