"""Write rule shared by the golden fingerprint files in ``tests/data``.

Every golden records the
:data:`~repro.experiments.orchestrator.CACHE_VERSION` it was captured
under, and its test asserts that the recorded version equals the current
one.  :func:`write_golden` is the only way the regeneration entry points
write a golden: it refuses to store changed metric rows unless
``CACHE_VERSION`` was bumped past the recorded version.  A physics or
protocol change therefore cannot land with new goldens but an unbumped
version, which would let warm caches keyed on the old version replay
results of the old code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.experiments import orchestrator


class StaleCacheVersion(RuntimeError):
    """Golden metric rows changed but ``CACHE_VERSION`` was not bumped."""


def _plain(value):
    """``value`` as it reads back from JSON (tuples become lists, ...)."""
    return json.loads(json.dumps(value))


def write_golden(
    path: Path, doc: dict, rows_key: str, cache_version: Optional[int] = None
) -> None:
    """Stamp ``doc`` with ``cache_version`` and write it to ``path``.

    ``doc[rows_key]`` holds the metric rows.  If a golden already exists
    at ``path`` and its rows differ from the new ones, ``cache_version``
    (default: the current ``CACHE_VERSION``) must be greater than the
    version recorded there, else :class:`StaleCacheVersion` is raised and
    nothing is written.
    """
    version = orchestrator.CACHE_VERSION if cache_version is None else cache_version
    if path.exists():
        with open(path) as fh:
            old = json.load(fh)
        recorded = old.get("cache_version", 0)
        if old.get(rows_key) != _plain(doc[rows_key]) and version <= recorded:
            raise StaleCacheVersion(
                f"{path.name}: metric rows changed but CACHE_VERSION is still "
                f"{version} (recorded: {recorded}); bump CACHE_VERSION in "
                "repro/experiments/orchestrator.py so warm caches stop "
                "replaying results of the old code, then regenerate"
            )
    out = dict(doc, cache_version=version)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
