"""Shared fixtures and the acceptance-criteria reporter.

The expensive session state (one Painleve II solve, one recursion table)
is built once.  Acceptance tests record a verdict per criterion through
``criterion_log``; the hook below replays every recorded line in the
terminal summary so the pass/fail list survives pytest's output capture.
"""

import os
from pathlib import Path

import pytest

from lppdet.cache import CACHE_ENV_VAR
from lppdet.exact_dist import square_opuc
from lppdet.painleve import solve_hastings_mcleod

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


@pytest.fixture(scope="session")
def sol():
    return solve_hastings_mcleod()


@pytest.fixture(scope="session")
def opuc_t1():
    return square_opuc(1.0, ell=8)


@pytest.fixture
def fresh_env(tmp_path) -> dict:
    """Environment of a fresh interpreter that imports this checkout's
    package and keeps its Painleve cache under ``tmp_path``."""
    env = dict(os.environ, **{CACHE_ENV_VAR: str(tmp_path / "cache")})
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def criterion_log():
    def record(number: int, passed: bool, detail: str) -> None:
        ACCEPTANCE_RESULTS[number] = (passed, detail)
        print(f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {detail}")

    return record


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number}: {verdict} - {detail}")
