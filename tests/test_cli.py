"""Exit codes, file formats, and manifests through the in-process entry point."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from lppdet import cli, exact_dist
from lppdet.cache import CACHE_ENV_VAR
from lppdet.errors import BreakdownError
from lppdet.montecarlo import SAMPLERS
from lppdet.symbols import MODEL_RULES, ModelKind


@pytest.fixture(scope="module", autouse=True)
def shared_cache(tmp_path_factory):
    # one cache root for the whole module so the Painleve solve runs once
    d = tmp_path_factory.mktemp("pii-cache")
    old = os.environ.get(CACHE_ENV_VAR)
    os.environ[CACHE_ENV_VAR] = str(d)
    yield d
    if old is None:
        os.environ.pop(CACHE_ENV_VAR, None)
    else:
        os.environ[CACHE_ENV_VAR] = old


@pytest.fixture()
def run(tmp_path):
    out = tmp_path / "out"

    def _run(*argv):
        return cli.main(["--out-dir", str(out), *argv]), out

    return _run


def _manifest(out):
    return json.loads((out / "run_manifest.json").read_text())


def test_dist_square_writes_table_and_manifest(run):
    code, out = run("dist", "square", "--t", "1.0", "--lmax", "6")
    assert code == 0
    csv_text = (out / "dist_square.csv").read_text()
    assert csv_text.splitlines()[0] == "ell,p,log_p"
    assert "\r" not in csv_text
    assert len(csv_text.splitlines()) == 8
    man = _manifest(out)
    assert man["command"] == "dist"
    assert man["parameters"]["lmax"] == 6
    assert "code" in man["versions"]
    for entry in man["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    table = json.loads((out / "dist_square.json").read_text())
    assert table["model"]["kind"] == "PoissonSquare"


def test_dist_rows_round_trip_as_floats(run):
    code, out = run("dist", "square", "--t", "0.5", "--lmax", "3")
    assert code == 0
    lines = (out / "dist_square.csv").read_text().splitlines()[1:]
    for line in lines:
        ell, p, log_p = line.split(",")
        assert int(ell) >= 0
        assert 0.0 <= float(p) <= 1.0
        assert float(log_p) <= 0.0


def test_validation_exits_one(run):
    code, _ = run("dist", "lattice-a", "--q", "0.9", "--qp", "1.2")
    assert code == 1


def test_missing_model_params_exit_one(run):
    code, _ = run("dist", "lattice-a")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("lattice-b", "--q=-0.5", "--qp", "0.5"),
        ("lattice-b", "--q", "nan", "--qp", "0.5"),
        ("lines-d", "--t", "1", "--q", "nan"),
        ("lines-e", "--t", "1", "--q", "inf"),
    ],
)
def test_mc_refuses_negative_or_non_finite_rates(run, capsys, argv):
    """Such rates once gave chains of 0 or a numpy traceback."""
    code, _ = run("mc", *argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("lattice-c", "--q", "1.5", "--qp", "0.1"),
        ("lattice-b", "--q", "0.1", "--qp", "1.5"),
        ("lines-e", "--t", "1", "--q", "1.0"),
    ],
)
@pytest.mark.parametrize("command", [("mc", "--trials", "100"), ("dist", "--lmax", "5")])
def test_pole_parameter_past_one_exits_one_on_both_routes(run, capsys, command, argv):
    """A pole parameter >= 1 is no model: the sampler once drew counts for
    it while the exact route refused its symbol."""
    code, _ = run(command[0], *argv, *command[1:])
    assert code == 1
    assert "must lie in [0, 1)" in capsys.readouterr().err


def test_unknown_flag_exits_one(run):
    code, _ = run("dist", "square", "--definitely-not-a-flag")
    assert code == 1


def test_no_subcommand_exits_one(run):
    code, _ = run()
    assert code == 1


@pytest.mark.parametrize("exc", [BreakdownError])
def test_numerical_failure_exits_two(run, monkeypatch, exc):
    def boom(args, out_dir):
        raise exc("forced")

    monkeypatch.setitem(cli.COMMANDS, "dist", boom)
    code, _ = run("dist", "square")
    assert code == 2


def test_ill_conditioned_group_average_exits_two(run, capsys):
    code, _ = run("dist", "triangle-fs", "--t", "4", "--alpha", "1", "--lmax", "8")
    assert code == 0
    code, _ = run("dist", "triangle-fs", "--t", "4", "--alpha", "1", "--lmax", "20")
    assert code == 2
    assert re.search(r"error bound \d\.\d+e-\d+", capsys.readouterr().err)


def test_mc_cross_counts_refused_thresholds(run):
    code, out = run(
        "verify", "mc-cross", "--model", "triangle-fs", "--t", "4", "--alpha", "1",
        "--trials", "2000",
    )
    assert code == 0
    report = json.loads((out / "verify_mc-cross.json").read_text())
    compared = [c["ell"] for c in report["comparisons"]]
    assert report["refused_thresholds"]
    assert max(compared) < min(report["refused_thresholds"])
    assert max(compared) > 8


def test_mc_cross_refuses_an_ill_conditioned_lattice(run):
    """A float64 recursion puts this law above 1 near its top; the twin
    recursion breaks down, so the suite exits 2 rather than skipping those
    rows as degenerate thresholds."""
    q = ",".join(["0.8366600265340756"] * 12)
    code, _ = run(
        "verify", "mc-cross", "--model", "lattice-b", "--q", q, "--qp", q,
        "--trials", "500",
    )
    assert code == 2


def test_mc_cross_checks_the_range_of_its_rows(run, monkeypatch):
    """A certified row above 1 fails the suite (exit 3); it is not skipped
    as a degenerate threshold."""
    real = cli.exact_law

    def above_one(model, lmax):
        rows, info = real(model, lmax)
        rows[lmax] = (1.05, 0.0)
        return rows, info

    monkeypatch.setattr(cli, "exact_law", above_one)
    code, _ = run("verify", "mc-cross", "--model", "square", "--trials", "400")
    assert code == 3


def test_triangle_rows_past_the_tail_bound_are_refused_one_by_one(run, capsys, monkeypatch):
    """Triangle rows whose product truncation bound passes 1e-12 (forced
    here from row 5 on) are refused: a table exits 2 and names the bound,
    and mc-cross lists each refused threshold and compares only the rest."""
    real = exact_dist.EXACT_ROUTES[ModelKind.POISSON_TRIANGLE]

    def loose_upper_rows(model, lmax):
        rows, info = real(model, lmax)
        return {ell: (p, 3.3e-12 if ell >= 5 else b) for ell, (p, b) in rows.items()}, info

    monkeypatch.setitem(exact_dist.EXACT_ROUTES, ModelKind.POISSON_TRIANGLE, loose_upper_rows)
    code, _ = run("dist", "triangle", "--t", "3", "--alpha", "0.5", "--lmax", "15")
    assert code == 2
    assert re.search(r"error bound 3\.30e-12 exceeds 1e-12", capsys.readouterr().err)
    code, out = run(
        "--seed", "0", "verify", "mc-cross", "--model", "triangle", "--t", "3",
        "--alpha", "0.5", "--trials", "4000",
    )
    assert code == 0
    report = json.loads((out / "verify_mc-cross.json").read_text())
    assert report["refused_thresholds"][:3] == [5, 7, 9]
    assert [c["ell"] for c in report["comparisons"]] == [1, 3]


def test_external_rows_past_the_roundoff_estimate_are_refused(run, capsys):
    """At a+ a- = 9 the two terms of each external-source row cancel like
    9^ell; rows 9 and 10 carry estimates past 1e-9, so the table exits 2
    and names the bound."""
    code, _ = run(
        "dist", "external", "--t", "2", "--alpha-plus", "3", "--alpha-minus", "3",
        "--lmax", "10",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(r"P\(L <= 9\): error bound 1\.44e-09 exceeds 1e-09", err)


def test_mc_cross_lists_a_refused_triangle_row(run, monkeypatch):
    real = exact_dist.EXACT_ROUTES[ModelKind.POISSON_TRIANGLE]

    def loose_first_row(model, lmax):
        rows, info = real(model, lmax)
        rows[1] = (rows[1][0], 2e-12)
        return rows, info

    monkeypatch.setitem(exact_dist.EXACT_ROUTES, ModelKind.POISSON_TRIANGLE, loose_first_row)
    code, out = run(
        "--seed", "0", "verify", "mc-cross", "--model", "triangle", "--t", "1",
        "--alpha", "0.5", "--trials", "2000",
    )
    assert code == 0
    report = json.loads((out / "verify_mc-cross.json").read_text())
    assert report["refused_thresholds"] == [1]
    assert 3 in [c["ell"] for c in report["comparisons"]]


def test_failed_suite_exits_three(run, monkeypatch):
    monkeypatch.setitem(
        cli.VERIFY_SUITES, "dpii", lambda args: ({"planted": 1}, False, "forced")
    )
    code, out = run("verify", "dpii")
    assert code == 3
    # the report is still written before the nonzero exit
    report = json.loads((out / "verify_dpii.json").read_text())
    assert report["passed"] is False
    assert report["planted"] == 1


def test_verify_dpii_passes(run, capsys):
    code, out = run("verify", "dpii", "--t", "1.0", "--kmax", "6")
    assert code == 0
    assert "verify dpii: pass" in capsys.readouterr().out
    report = json.loads((out / "verify_dpii.json").read_text())
    assert report["passed"] is True
    assert report["max_residual"] < 1e-8


def test_tw_caches_and_reproduces(run):
    args = (
        "tw", "gue", "--x-min", "-1.0", "--x-max", "1.0", "--x-step", "0.5",
    )
    code, out = run(*args)
    assert code == 0
    first_bytes = (out / "tw_gue.csv").read_bytes()
    first_hit = _manifest(out)["cache_hit"]
    code, out = run(*args)
    assert code == 0
    assert (out / "tw_gue.csv").read_bytes() == first_bytes
    assert _manifest(out)["cache_hit"] is True
    del first_hit  # first call may hit if an earlier test warmed the cache
    header, *rows = (out / "tw_gue.csv").read_text().splitlines()
    assert header == "x,F"
    values = [float(r.split(",")[1]) for r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "argv",
    [
        ("tw", "gue", "--x-min", "nan"),
        ("tw", "gue", "--x-max", "inf"),
        ("converge", "--x-max", "inf"),
    ],
)
def test_non_finite_grid_bound_exits_one(run, capsys, argv):
    code, out = run(*argv)
    assert code == 1
    assert "error: --x-min, --x-max and --x-step must be finite" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


def test_tw_grid_stops_at_x_max(run):
    """0.6 does not divide the window [0, 1]: the grid stops at 0.6, not
    at 1.2; a step that divides it still ends exactly on x_max."""
    code, out = run(
        "tw", "gue", "--x-min", "0", "--x-max", "1", "--x-step", "0.6",
    )
    assert code == 0
    xs = [float(r.split(",")[0]) for r in (out / "tw_gue.csv").read_text().splitlines()[1:]]
    assert xs == [0.0, 0.6]
    assert cli._x_grid(cli.build_parser().parse_args(["tw", "gue"])) == [
        -5.0 + i * 0.25 for i in range(41)
    ]


def test_converge_shrinking_window_passes(run, capsys):
    code, out = run(
        "converge", "--t-list", "4,7,10",
        "--x-min", "-5.0", "--x-max", "2.0", "--x-step", "0.25",
    )
    assert code == 0
    assert "sup |scaled_cdf - F_GUE|" in capsys.readouterr().out
    sups = _manifest(out)["sup_norms"]
    ordered = [sups[k] for k in sorted(sups, key=float)]
    assert ordered[0] > ordered[1] > ordered[2]


def test_converge_non_shrinking_window_exits_three(run):
    """Narrow windows can rank the staircase approximants out of order;
    that must surface as a verification failure, not a pass."""
    code, out = run(
        "converge", "--t-list", "2,4",
        "--x-min", "-2.0", "--x-max", "1.0", "--x-step", "0.5",
    )
    assert code == 3
    assert (out / "converge.csv").exists()


def test_mc_counts_and_determinism(run):
    args = (
        "--seed", "5",
        "mc", "lattice-a", "--q", "0.3,0.2", "--qp", "0.25,0.2",
        "--trials", "3000",
    )
    code, out = run(*args)
    assert code == 0
    text = (out / "mc_lattice-a.csv").read_text()
    header, *rows = text.splitlines()
    assert header == "value,count,cdf,stderr"
    assert sum(int(r.split(",")[1]) for r in rows) == 3000
    assert float(rows[-1].split(",")[2]) == 1.0
    assert _manifest(out)["diagnostics"] == {"block_size": 2048, "blocks": 2}
    first = (out / "mc_lattice-a.csv").read_bytes()
    code, out = run(*args)
    assert code == 0
    assert (out / "mc_lattice-a.csv").read_bytes() == first
    code, out = run("--seed", "6", *args[2:])
    assert code == 0
    assert (out / "mc_lattice-a.csv").read_bytes() != first


def test_mc_cross_tests_only_thresholds_where_the_normal_law_holds(run):
    """At t = 8, seed 0, l = 21 drew 2 exceedances against 0.4 expected
    (|z| = 3.00).  Thresholds with trials * p (1 - p) < 5 go untested, and
    the largest |z| of the rest meets the Bonferroni critical value."""
    code, out = run("--seed", "0", "verify", "mc-cross", "--model", "square", "--t", "8")
    assert code == 0
    report = json.loads((out / "verify_mc-cross.json").read_text())
    assert report["untested_thresholds"] == [7, 20, 21, 22]
    assert [c["ell"] for c in report["comparisons"]] == list(range(8, 20))
    assert report["false_alarm_rate"] == 0.0027
    assert report["critical_z"] == pytest.approx(3.6892, abs=1e-4)
    assert report["max_z"] == pytest.approx(0.956, abs=1e-3)


def test_mc_cross_fails_a_sampler_biased_at_one_threshold(run, monkeypatch):
    """Moving every eighth draw of L = 14 to 15 lowers P(L <= 14) by about
    2%; the suite must catch that at its critical value."""
    real = SAMPLERS[ModelKind.POISSON_SQUARE]

    def biased(model, rng, count):
        values = real(model, rng, count)
        values[np.flatnonzero(values == 14)[::8]] += 1
        return values

    monkeypatch.setitem(SAMPLERS, ModelKind.POISSON_SQUARE, biased)
    code, out = run("--seed", "0", "verify", "mc-cross", "--model", "square", "--t", "8")
    assert code == 3
    report = json.loads((out / "verify_mc-cross.json").read_text())
    worst = max(report["comparisons"], key=lambda c: c["z"])
    assert worst["ell"] == 14
    assert worst["z"] > report["critical_z"]


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "lattice-a", "--q", "0.3,0.2", "--qp", "0.25,0.2", "--lmax", "4"),
        ("tw", "goe", "--x-min", "-1", "--x-max", "1", "--x-step", "0.5"),
        ("converge", "--t-list", "10,4,7"),
        ("verify", "mc-cross", "--model", "triangle", "--t", "2", "--alpha", "0.5",
         "--trials", "2000"),
        ("--workers", "2", "mc", "lattice-b", "--q", "0.6", "--qp", "0.5,0.4",
         "--trials", "3000"),
    ],
)
def test_manifest_parameters_are_the_parsed_flags(tmp_path, argv):
    """Every parsed flag but the output directory, the command and the
    seed is a parameter, so reruns into two directories write one manifest."""
    manifests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["--out-dir", str(out), "--seed", "3", *argv]) == 0
        manifests.append((out / "run_manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    expected = vars(cli.build_parser().parse_args(argv))
    for name in ("out_dir", "command", "seed"):
        del expected[name]
    assert json.loads(manifests[0])["parameters"] == json.loads(json.dumps(expected))


def test_mc_cross_external_builds_the_recursion_once(run, monkeypatch):
    """Every threshold of the external-sources law reads one recursion
    table, built to the largest sampled threshold."""
    calls = []
    real = exact_dist.square_opuc

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(exact_dist, "square_opuc", counting)
    code, out = run(
        "--seed", "0", "verify", "mc-cross", "--model", "external", "--t", "8",
        "--alpha-plus", "0.3", "--alpha-minus", "0.6", "--trials", "400",
    )
    assert code == 0
    assert len(calls) == 1
    report = json.loads((out / "verify_mc-cross.json").read_text())
    assert len(report["comparisons"]) > 1
    assert _manifest(out)["diagnostics"] == {"block_size": 2048, "blocks": 1}


def test_cli_import_leaves_mpmath_unloaded(tmp_path, fresh_env):
    """mpmath is a test-only oracle and scipy serves only the Painleve
    layer: neither the package or CLI import, nor a square table on the
    fixed-point route, nor the commands that never solve Painleve II
    (``dist``, ``mc``, ``verify dpii|fredholm|mc-cross``) load them."""
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "def unloaded(step):\n"
        "    for name in ('mpmath', 'scipy'):\n"
        "        assert name not in sys.modules, f'{name} loaded by {step}'\n"
        "import lppdet\n"
        "unloaded('import lppdet')\n"
        "from lppdet import cli\n"
        "unloaded('import lppdet.cli')\n"
        "from lppdet.exact_dist import build_dist_table\n"
        "from lppdet.symbols import ModelKind, ModelSpec\n"
        "build_dist_table(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=10.0), 30)\n"
        "unloaded('a t = 10 square table')\n"
        "for argv in (['dist', 'square', '--t', '3', '--lmax', '12'],\n"
        "             ['mc', 'square', '--t', '3', '--trials', '500'],\n"
        "             ['verify', 'dpii'], ['verify', 'fredholm'],\n"
        "             ['verify', 'mc-cross']):\n"
        f"    assert cli.main(['--seed', '0', '--out-dir', {out!r}, *argv]) == 0, argv\n"
        "    unloaded(' '.join(argv))\n"
    )
    subprocess.run([sys.executable, "-c", code], env=fresh_env, check=True)


def test_warm_cache_painleve_commands_leave_scipy_unloaded(tmp_path, fresh_env):
    """scipy serves the Painleve solve only: once the table is cached,
    ``tw``, ``converge`` and ``verify corner-asymptotics`` read it with
    numpy alone, and ``verify oracles`` reads the same table, loading
    scipy.special for its Bessel and Airy oracles but not the integrator.
    The cold call must load the integrator, so that the warm checks
    cannot pass for a reason that has nothing to do with the cache."""
    code = (
        "import sys\n"
        "from lppdet import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print([m for m in ('scipy', 'scipy.integrate') if m in sys.modules])\n"
    )
    def scipy_loaded(*argv):
        argv = [sys.executable, "-c", code, "--out-dir", str(tmp_path / "out"), *argv]
        done = subprocess.run(argv, env=fresh_env, check=True, capture_output=True, text=True)
        return done.stdout.splitlines()[-1]

    assert "'scipy.integrate'" in scipy_loaded("tw", "gue")
    for argv in (["tw", "goe"], ["converge", "--t-list", "4,7"],
                 ["verify", "corner-asymptotics"]):
        assert scipy_loaded(*argv) == "[]", argv
    assert scipy_loaded("verify", "oracles") == "['scipy']"


def test_every_model_kind_has_a_cli_name_route_and_sampler():
    """Adding a model is one entry in each table; a missing one fails here."""
    named = {kind for kind, _ in cli.MODELS.values()}
    for kind in ModelKind:
        assert kind in named, f"{kind} has no command-line name"
        assert kind in exact_dist.EXACT_ROUTES, f"{kind} has no exact route"
        assert kind in SAMPLERS, f"{kind} has no sampler"
        assert kind in MODEL_RULES, f"{kind} has no symbol rule"


def test_every_exported_name_resolves():
    """No ``__all__`` of the package or its modules lists a stale name."""
    import importlib
    import pkgutil

    import lppdet

    modules = [lppdet] + [
        importlib.import_module(f"lppdet.{info.name}")
        for info in pkgutil.iter_modules(lppdet.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
