"""Disk cache for the expensive solver artifacts.

The cache is always on, and an optimization only.  Its root is taken from
the LPPDET_CACHE_DIR environment variable, defaulting to ~/.cache/lppdet.
Entries are keyed by a digest of their construction parameters and carry
the format version of their payload; a version mismatch or an unreadable
or truncated file causes a silent recompute and overwrite, never an error,
and so does a root that cannot be written, where the solved table serves
without being stored.  Entries are written to a temporary file in the same
directory and renamed into place, so a reader never sees a partial entry.
The Painleve II entry (format 5) is a header line and raw float64s, read
with the standard library alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
from pathlib import Path

from .errors import LppdetError
from .painleve import TABLE_TOL, X_MIN, X_RIGHT, PiiSolution, solve_hastings_mcleod

__all__ = ["CACHE_ENV_VAR", "cache_root", "cached_pii_solution"]

CACHE_ENV_VAR = "LPPDET_CACHE_DIR"


def cache_root() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "lppdet"


def _pii_cache_path() -> Path:
    # no format version in the key: an entry of another version is read,
    # refused and overwritten in place rather than left behind
    key = repr((X_MIN, X_RIGHT, TABLE_TOL))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return cache_root() / f"pii-{digest}.f64"


def cached_pii_solution() -> tuple[PiiSolution, bool]:
    """Load the distinguished ODE solution from disk, or solve and store.

    Returns (solution, cache_hit).
    """
    path = _pii_cache_path()
    try:
        return PiiSolution.load(path), True
    except (LppdetError, OSError):
        pass
    sol = solve_hastings_mcleod()
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".pii-", suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            sol.save(handle)
        os.replace(tmp, path)
        tmp = None
    except OSError:
        pass  # the cache is an optimization only: the solved table serves unstored
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    return sol, False
