"""Shared plumbing: locating the program, scratch space, statistics, records."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
REFERENCES = BENCH / "data" / "references.json"
KNOWN_DEFECTS = BENCH / "data" / "known_defects.json"


# One BLAS thread for the benchmark and every child it starts.  It is one
# client on a 2-core machine; with OpenBLAS's default of a thread per core,
# the thread pool started in every fresh interpreter made import and set-up
# times about a third longer and far more variable.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program sources, no references)."""


def program_env(cache_dir: Path) -> dict:
    """Environment for a child that must import the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["LPPDET_CACHE_DIR"] = str(cache_dir)
    return env


def import_program():
    """Import lppdet from this checkout's src/, never from elsewhere."""
    if not (SRC / "lppdet" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lppdet

    if Path(lppdet.__file__).resolve().parent != (SRC / "lppdet").resolve():
        raise SetupError(f"imported lppdet from {lppdet.__file__}, not from {SRC}")
    return lppdet


def load_references() -> dict:
    if not REFERENCES.is_file():
        raise SetupError(f"missing {REFERENCES}; run perfbench/reference.py")
    return json.loads(REFERENCES.read_text())


def load_known_defects() -> dict[str, str]:
    """Request id -> outcome of every exact request that fails at the commit
    the ledger was last measured at (written by ledger.py)."""
    if not KNOWN_DEFECTS.is_file():
        raise SetupError(f"missing {KNOWN_DEFECTS}; run perfbench/ledger.py")
    return json.loads(KNOWN_DEFECTS.read_text())["defects"]


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, the metrics with their units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or the "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def make_scratch() -> Path:
    """A private directory inside the checkout; the cache points here too."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    os.environ["LPPDET_CACHE_DIR"] = str(tmp / "cache")
    return tmp


def remove_scratch(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (statistics.quantiles, inclusive)."""
    vals = sorted(values)
    if len(vals) == 1:
        return float(vals[0])
    cuts = statistics.quantiles(vals, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_subprocess(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=170)
    return time.perf_counter() - start, proc


def setup_sample(workload: str, seed: int, tmp: Path, index: int) -> tuple[float, float]:
    """(set-up wall, import time) of one probe.py child.

    The child does a run's set-up in a fresh interpreter, so its wall time
    is one set-up sample; it also reports how long ``import lppdet.cli``
    took from its first statement.
    """
    scratch = tmp / f"probe-{index}"
    wall, proc = timed_subprocess(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(scratch)],
        env=program_env(scratch / "cache"))
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])["import_s"]


def _blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return f"unset (OpenBLAS default: one per core, {os.cpu_count()})"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # a plain export; do not report an enclosing repo
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def environment_record(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": _blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
        "lppdet_cache_dir": os.environ.get("LPPDET_CACHE_DIR"),
    }
