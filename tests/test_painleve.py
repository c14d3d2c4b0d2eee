"""Hastings-McLeod solve, the three edge laws and their oracles."""

import importlib
import math

import numpy as np
import pytest

from lppdet import painleve
from lppdet.cache import CACHE_ENV_VAR, _pii_cache_path, cached_pii_solution
from lppdet.errors import ValidationError
from lppdet.painleve import (
    PiiSolution,
    airy_kernel_fgue,
    airy_rank_one_laws,
    corner_scaling_t,
    corner_scaling_x,
    f_goe,
    f_gse,
    f_gue,
    fit_power_law,
    solve_hastings_mcleod,
)


def test_solution_value_at_origin(sol):
    assert sol.u_at(0.0) == pytest.approx(-0.36706155154803544, abs=1e-10)
    assert sol.i_at(0.0) == pytest.approx(-0.33696069793052574, abs=1e-9)


def test_airy_matching_on_the_right(sol):
    """Past x = 6 the solution is numerically the Airy function."""
    from scipy.special import airy

    for x in (6.0, 7.0, 7.5):
        assert sol.u_at(x) == pytest.approx(-float(airy(x)[0]), rel=1e-8, abs=1e-13)


def test_right_tail_keeps_relative_digits(sol):
    """Past x = 5, u is -Ai to about Ai^2 relative, so W = log F_beta2
    must match the Airy closed form in relative terms, not just absolutely."""
    for x in (5.5, 6.5, 7.5):
        airy_w = -painleve._gue_tail_exponent(x)
        assert sol.w_at(x) == pytest.approx(airy_w, rel=1e-9, abs=0.0), x


def test_law_values_at_origin(sol):
    assert f_gue(sol, 0.0) == pytest.approx(0.9693728283551878, abs=1e-10)
    assert f_goe(sol, 0.0) == pytest.approx(0.8319080662029305, abs=1e-9)
    assert f_gse(sol, 0.0) == pytest.approx(0.9985741973581277, abs=1e-9)
    assert f_gue(sol, -2.0) == pytest.approx(0.4132241425051988, abs=1e-9)


def test_laws_are_cdfs(sol):
    xs = np.arange(-8.0, 7.0, 0.25)
    for law in (f_gue, f_goe, f_gse):
        values = [law(sol, float(x)) for x in xs]
        # the slowest right tail here is beta = 1 at ~3e-7
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] < 1e-6 and values[-1] > 1.0 - 1e-5


def test_law_means(sol):
    """First moments by parts against their frozen values; the beta = 2
    one matches the classical constant to ten digits."""
    xs = np.arange(-9.0, 8.0 + 1e-9, 0.005)
    means = {}
    for name, law in (("gue", f_gue), ("goe", f_goe), ("gse", f_gse)):
        F = np.array([law(sol, float(x)) for x in xs])
        means[name] = float(
            xs[-1] * F[-1] - xs[0] * F[0] - np.trapezoid(F, xs)
        )
    assert means["gue"] == pytest.approx(-1.7710868074, abs=5e-7)
    assert means["goe"] == pytest.approx(-1.2065335774, abs=5e-6)
    assert means["gse"] == pytest.approx(-3.2624279027, abs=5e-6)


# between grid nodes of both tables below, where a table is read by
# interpolation rather than at a node
OFF_NODE_XS = (-6.789, -1.2345, 0.0137, 1.5003)


def test_airy_kernel_oracle_cross_check(sol):
    for x in (-1.0, 0.0, 1.5, *OFF_NODE_XS):
        assert airy_kernel_fgue(x) == pytest.approx(f_gue(sol, x), abs=1e-10)


@pytest.mark.parametrize(
    "ode_tol, grid_step, tol",
    [
        pytest.param(1e-11, 0.02, 1e-9, id="fast-1e-09"),
        pytest.param(painleve.TABLE_TOL, painleve.TABLE_STEP, 1e-12, id="standard-1e-12"),
    ],
)
def test_interpolation_matches_a_four_times_finer_grid(ode_tol, grid_step, tol):
    """The integrator's steps do not depend on the output grid, so the
    finer table differs from the coarse one only by interpolation: on a
    coarse grid and on the cached table's."""
    coarse = solve_hastings_mcleod(ode_tol, grid_step)
    fine = solve_hastings_mcleod(ode_tol, grid_step / 4)
    for x in OFF_NODE_XS:
        for read in ("u_at", "v_at", "i_at", "w_at"):
            assert getattr(coarse, read)(x) == pytest.approx(
                getattr(fine, read)(x), abs=tol
            ), (read, x)


def test_rank_one_oracle_covers_all_three_laws(sol):
    f1, f2, f4 = airy_rank_one_laws(0.5)
    assert f2 == pytest.approx(f_gue(sol, 0.5), abs=1e-8)
    assert f1 == pytest.approx(f_goe(sol, 0.5), abs=1e-8)
    assert f4 == pytest.approx(f_gse(sol, 0.5), abs=1e-8)


def test_deferred_scipy_names_bind_once(sol, monkeypatch):
    """Each scipy function of the Painleve layer is imported on its first
    call and then bound into the module, and a call through the stand-in
    gives the same float as one through the bound function."""
    names = (
        ("scipy.special", "airy"),
        ("scipy.integrate", "quad"),
        ("scipy.integrate", "solve_ivp"),
    )
    x = sol.x_right + 1.0
    calls = {
        "u_at": lambda: sol.u_at(x),
        "v_at": lambda: sol.v_at(x),
        "i_at": lambda: sol.i_at(x),
        "w_at": lambda: sol.w_at(x),
        "gue_tail_exponent": lambda: painleve._gue_tail_exponent(x),
        "airy_kernel_fgue": lambda: airy_kernel_fgue(0.5),
        "solve": lambda: solve_hastings_mcleod(1e-9, 0.05).u_at(-1.0),
    }
    for label, call in calls.items():
        for module, name in names:
            monkeypatch.setattr(painleve, name, painleve._deferred(module, name))
        first = call()
        second = call()
        assert first == second, label
    for module, name in names:
        assert getattr(painleve, name) is getattr(importlib.import_module(module), name)


def test_corner_scaling_round_trip():
    for k in (10, 45, 135):
        for x in (-1.0, 0.0, 2.0):
            t = corner_scaling_t(x, k)
            assert corner_scaling_x(t, k) == pytest.approx(x, abs=1e-10)


def test_fit_power_law_recovers_exponent():
    ks = np.array([40.0, 60.0, 90.0, 135.0])
    devs = 3.0 * ks ** (-2.0 / 3.0)
    slope, const = fit_power_law(ks, devs)
    assert slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert const == pytest.approx(3.0, rel=1e-12)


def test_save_load_round_trip(tmp_path, sol):
    path = tmp_path / "sol.npz"
    sol.save_npz(path)
    again = PiiSolution.load_npz(path)
    assert again.u_at(-3.0) == pytest.approx(sol.u_at(-3.0), abs=1e-14)
    assert again.w_at(1.0) == pytest.approx(sol.w_at(1.0), abs=1e-14)


def test_load_rejects_other_format_version(tmp_path, sol):
    path = tmp_path / "sol.npz"
    sol.save_npz(path)
    data = dict(np.load(path))
    data["format_version"] = np.array([PiiSolution.FORMAT_VERSION + 1])
    np.savez(path, **data)
    with pytest.raises(ValidationError):
        PiiSolution.load_npz(path)


def test_cache_file_name_is_stable():
    """The one table (1e-13, 0.005) keeps the file name it has always had,
    so caches warmed by earlier versions keep hitting."""
    assert _pii_cache_path().name == "pii-1e5757d6196b6442.npz"


def test_cache_miss_then_hit(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    first, hit_first = cached_pii_solution()
    assert not hit_first
    second, hit_second = cached_pii_solution()
    assert hit_second
    assert second.u_at(0.0) == first.u_at(0.0)
    assert list(tmp_path.glob("pii-*.npz"))


def test_cache_recovers_from_a_partial_write(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    cached_pii_solution()
    victim = next(tmp_path.glob("pii-*.npz"))
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    sol, hit = cached_pii_solution()
    assert not hit
    assert sol.u_at(0.0) == pytest.approx(-0.36706155154803544, abs=1e-7)
    # the rewrite went through a temporary file that is gone now
    assert [p.name for p in tmp_path.iterdir()] == [victim.name]
    assert cached_pii_solution()[1]


def test_cache_recovers_from_corruption(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    cached_pii_solution()
    victim = next(tmp_path.glob("pii-*.npz"))
    victim.write_bytes(b"not an archive")
    sol2, hit = cached_pii_solution()
    assert not hit
    assert sol2.u_at(0.0) == pytest.approx(-0.36706155154803544, abs=1e-7)


def test_cache_replaces_an_entry_of_the_previous_format(tmp_path, monkeypatch):
    """A format 1 entry (u, v and I only) under the same key is refused,
    solved again and overwritten in place."""
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    cached_pii_solution()
    victim = next(tmp_path.glob("pii-*.npz"))
    with np.load(victim) as entry:
        data = {name: entry[name] for name in ("grid", "u", "v", "I", "x_right", "tol")}
    np.savez(victim, format_version=np.array([1]), **data)
    sol, hit = cached_pii_solution()
    assert not hit
    assert sol.w_at(0.0) == pytest.approx(math.log(0.9693728283551878), abs=1e-7)
    assert [p.name for p in tmp_path.iterdir()] == [victim.name]
    with np.load(victim) as entry:
        assert int(entry["format_version"][0]) == PiiSolution.FORMAT_VERSION
    assert cached_pii_solution()[1]
