"""The workflow scripts run end to end in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, outputs",
    [
        (
            "build_reference_tables.py",
            [f"dist_{model}.{ext}"
             for model in ("square", "triangle", "external", "lattice-a", "lattice-b")
             for ext in ("csv", "json")]
            + [f"tw_{which}.csv" for which in ("gue", "goe", "gse")],
        ),
        ("convergence_study.py", ["converge.csv"]),
    ],
    ids=["build_reference_tables", "convergence_study"],
)
def test_script_writes_its_outputs(tmp_path, fresh_env, script, outputs):
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out-dir", str(out)],
        env=fresh_env, check=True, capture_output=True,
    )
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["run_manifest.json"])
