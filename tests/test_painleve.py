"""Hastings-McLeod solve, the three edge laws and their oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from highprec_oracle import hastings_mcleod_mpf

from lppdet import painleve
from lppdet.cache import CACHE_ENV_VAR, _pii_cache_path, cached_pii_solution
from lppdet.errors import BreakdownError, ValidationError
from lppdet.painleve import (
    PiiSolution,
    airy_kernel_fgue,
    corner_scaling_t,
    corner_scaling_x,
    f_goe,
    f_gse,
    f_gue,
    fit_power_law,
)


def test_solution_value_at_origin(sol):
    # u(0) of the 40-digit reference (``hastings_mcleod_mpf``), rounded
    assert sol.u_at(0.0) == pytest.approx(-0.3670615515480784, abs=1e-15)
    assert sol.i_at(0.0) == pytest.approx(-0.33696069793052574, abs=1e-9)


# the reference's x, half and quarter steps, in bands running right to left
REFERENCE_BANDS = (
    (np.arange(0.0, 8.01, 0.5), 1e-14),
    (np.arange(-4.0, -0.01, 0.5), 1e-12),
    (np.arange(-8.0, -4.01, 0.25), 1e-7),
)
# inside Taylor steps, away from their ends
OFF_NODE_XS = (-6.789, -1.2345, 0.0137, 1.5003)
# right of 8, where W is below 1e-15 and only its relative digits tell
RIGHT_W_XS = (8.5, 9.0, 9.5)


@pytest.fixture(scope="module")
def reference():
    xs = [float(x) for band, _ in REFERENCE_BANDS for x in band]
    return hastings_mcleod_mpf(xs + list(OFF_NODE_XS + RIGHT_W_XS))


@pytest.mark.parametrize("band, tol", REFERENCE_BANDS, ids=("0..8", "-4..0", "-8..-4"))
def test_table_matches_a_40_digit_reference(sol, reference, band, tol):
    """u and W = log F_beta2 against mpmath Taylor series from x = 12.
    Left of 0 the solution's instability amplifies the table's float64
    roundoff like exp(0.94 |x|^{3/2}), hence the wider bands."""
    for x in map(float, band):
        u, w = reference[x]
        assert sol.u_at(x) == pytest.approx(u, abs=tol), x
        assert sol.w_at(x) == pytest.approx(w, abs=tol), x


def test_left_tail_follows_deift_its_krasovsky(sol):
    """log F_beta2(s) = -|s|^3/12 - (1/8) log|s| + (1/24) log 2 + zeta'(-1)
    + 3/(2^6 |s|^3) + O(|s|^-6) (Deift, Its and Krasovsky, Comm. Math.
    Phys. 2008); on the reference the remainder times |s|^6 reads
    0.26-0.35 on this window."""
    zeta_prime = float(mp.zeta(-1, derivative=1))
    for s in np.arange(-8.0, -3.99, 0.25):
        a = abs(float(s))
        expansion = (-a ** 3 / 12.0 - math.log(a) / 8.0 + math.log(2.0) / 24.0
                     + zeta_prime + 3.0 / (64.0 * a ** 3))
        assert abs(sol.w_at(float(s)) - expansion) <= 0.4 / a ** 6, s


def test_airy_functions_against_mpmath():
    """Ai, Ai' and int_x^inf Ai within 4 ulps relative on [-12, 20], and
    exact zeros past the point where all three underflow.  The reference
    integral is 1/3 - int_0^x Ai, which cancels 28 digits at x = 20."""
    eps = np.finfo(float).eps
    with mp.workdps(80):
        for x in np.linspace(-12.0, 20.0, 129):
            got = painleve._airy(float(x))
            X = mp.mpf(float(x))
            want = (mp.airyai(X), mp.airyai(X, derivative=1),
                    mp.mpf(1) / 3 - mp.airyai(X, derivative=-1))
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * eps * abs(w), (float(x), g, w)
        X = mp.mpf(painleve._AIRY_UNDERFLOW)
        tail = mp.quad(mp.airyai, [X, mp.inf])
        for w in (mp.airyai(X), mp.airyai(X, derivative=1), tail):
            assert abs(w) < mp.mpf(2) ** -1075
    assert painleve._airy(painleve._AIRY_UNDERFLOW) == (0.0, 0.0, 0.0)


def test_airy_functions_far_right_against_mpmath():
    """The same 4 ulps out to x = 100, where the series sums at 625
    digits; past about 104 Ai drops into the float64 subnormals.  The
    reference integral is Gauss-Legendre quadrature on 40 decay lengths
    1/sqrt(x) of Ai, beyond which the tail is below 1e-17 relative."""
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for x in (30.0, 50.0, 80.0, 100.0):
            got = painleve._airy(x)
            X = mp.mpf(x)
            cells = [X + k / mp.sqrt(X) for k in range(41)]
            want = (mp.airyai(X), mp.airyai(X, derivative=1),
                    mp.quad(mp.airyai, cells, method="gauss-legendre"))
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * eps * abs(w), (x, g, w)


def test_laws_past_the_cut_are_what_the_tails_give(sol):
    """Past ``_LAWS_AT_ONE`` the laws return 1.0 without the Airy series;
    the tails give exactly that there, and F_beta1 is still below 1.0
    just left of the cut."""
    for x in (painleve._LAWS_AT_ONE, 20.0, 50.0, 100.0):
        w, i = sol.w_at(x), sol.i_at(x)
        assert math.exp(w) == f_gue(sol, x) == 1.0, x
        assert math.exp(0.5 * i + 0.5 * w) == f_goe(sol, x) == 1.0, x
        assert math.cosh(0.5 * i) * math.exp(0.5 * w) == f_gse(sol, x) == 1.0, x
    assert f_goe(sol, 13.6) < 1.0


def test_airy_matching_on_the_right(sol):
    """Past x = 6 the solution is numerically the Airy function."""
    from scipy.special import airy

    for x in (6.0, 7.0, 7.5):
        assert sol.u_at(x) == pytest.approx(-float(airy(x)[0]), rel=1e-8, abs=1e-13)


def test_table_meets_the_airy_tails_at_its_right_end(sol):
    """The table ends at the Airy data the solve starts from, and the
    readers hand over to the Airy tails just past it."""
    right = painleve.X_RIGHT
    past = math.nextafter(right, math.inf)
    for read in (sol.u_at, sol.v_at, sol.i_at, sol.w_at):
        assert read(right) == pytest.approx(read(past), rel=1e-13, abs=0.0), read
    assert sol.w_at(right) == -painleve._gue_tail_exponent(right)


def test_gue_tail_exponent_against_mpmath():
    """The closed form cancels like x^{3/2} right of 0; formed from the
    decimal sums it is within 4 ulps relative all the same."""
    eps = np.finfo(float).eps
    with mp.workdps(60):
        for x in (8.5, 10.0, 12.0, 20.0, 50.0):
            X = mp.mpf(x)
            ai, aip = mp.airyai(X), mp.airyai(X, derivative=1)
            want = 2 * X * (X * ai * ai - aip * aip) / 3 - ai * aip / 3
            got = painleve._gue_tail_exponent(x)
            assert abs(got - want) <= 4 * eps * abs(want), (x, got, want)


def test_v_past_the_table_against_mpmath(sol):
    """Past X_RIGHT, v = x Ai^2 - Ai'^2 cancels like x^{3/2} as well; read
    from the decimal sums it is within 4 ulps relative."""
    eps = np.finfo(float).eps
    with mp.workdps(60):
        for x in (10.5, 12.0, 20.0, 50.0):
            X = mp.mpf(x)
            ai, aip = mp.airyai(X), mp.airyai(X, derivative=1)
            want = X * ai * ai - aip * aip
            got = sol.v_at(x)
            assert abs(got - want) <= 4 * eps * abs(want), (x, got, want)


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


def test_airy_kernel_oracle_cross_check(sol):
    for x in (-1.0, 0.0, 1.5, *OFF_NODE_XS):
        assert airy_kernel_fgue(x) == pytest.approx(f_gue(sol, x), abs=1e-10)


def test_reads_inside_a_step_match_the_reference(sol, reference):
    """u and W inside a step meet the band of their x, as at the steps'
    ends; W right of 8 keeps its relative digits."""
    for x in OFF_NODE_XS:
        # the first band, running right to left, that reaches x
        tol = next(tol for band, tol in REFERENCE_BANDS if band[0] <= x)
        u, w = reference[x]
        assert sol.u_at(x) == pytest.approx(u, abs=tol), x
        assert sol.w_at(x) == pytest.approx(w, abs=tol), x
    for x in RIGHT_W_XS:
        assert sol.w_at(x) == pytest.approx(reference[x][1], rel=1e-14, abs=0.0), x


# Gauss-Legendre nodes and right end of the truncated domain of the
# rank-one oracle; the tails past the cut contribute below 1e-20.
_RANK_ONE_NODES, _RANK_ONE_CUT = 120, 18.0


def airy_rank_one_laws(s: float) -> tuple[float, float, float]:
    """Oracle for all three edge laws via the kernel Ai(x + y + s) on (0, inf).

    With B the integral operator with that kernel, det(1 - B^2) is the
    Airy-kernel determinant, and the two factors give the other laws:

        beta=2: det(1 - B) det(1 + B)
        beta=1: det(1 - B)
        beta=4: (det(1 - B) + det(1 + B)) / 2

    Returns (f1, f2, f4).  Completely independent of the ODE path.
    """
    from scipy.special import airy

    nodes, weights = np.polynomial.legendre.leggauss(_RANK_ONE_NODES)
    xs = 0.5 * _RANK_ONE_CUT * (nodes + 1.0)
    ws = 0.5 * _RANK_ONE_CUT * weights
    sw = np.sqrt(ws)
    bmat = airy(xs[:, None] + xs[None, :] + s)[0] * sw[:, None] * sw[None, :]
    eye = np.eye(_RANK_ONE_NODES)
    sign_m, log_m = np.linalg.slogdet(eye - bmat)
    sign_p, log_p = np.linalg.slogdet(eye + bmat)
    if sign_m <= 0 or sign_p <= 0:
        raise BreakdownError("Airy convolution determinant lost positivity")
    det_m = math.exp(log_m)
    det_p = math.exp(log_p)
    return det_m, det_m * det_p, 0.5 * (det_m + det_p)


def test_rank_one_oracle_covers_all_three_laws(sol):
    f1, f2, f4 = airy_rank_one_laws(0.5)
    assert f2 == pytest.approx(f_gue(sol, 0.5), abs=1e-8)
    assert f1 == pytest.approx(f_goe(sol, 0.5), abs=1e-8)
    assert f4 == pytest.approx(f_gse(sol, 0.5), abs=1e-8)


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


def _hex(sol):
    """Every coefficient of the table as its exact float64 hex string."""
    return [[[c.hex() for c in poly] for poly in step] for step in sol.coeffs]


def test_save_load_round_trip(tmp_path, sol):
    """A stored table reads back bit for bit as the solve made it."""
    path = tmp_path / "sol.f64"
    with open(path, "wb") as handle:
        sol.save(handle)
    again = PiiSolution.load(path)
    assert _hex(again) == _hex(sol)
    assert again.tol == sol.tol
    assert again.u_at(-3.0) == sol.u_at(-3.0)
    assert again.w_at(1.0) == sol.w_at(1.0)


def test_load_rejects_other_format_version(tmp_path, sol):
    path = tmp_path / "sol.f64"
    with open(path, "wb") as handle:
        sol.save(handle)
    header, _, payload = path.read_bytes().partition(b"\n")
    version, tol, order = header.split()
    assert int(version) == PiiSolution.FORMAT_VERSION
    path.write_bytes(b" ".join([str(int(version) + 1).encode(), tol, order]) + b"\n" + payload)
    with pytest.raises(ValidationError, match="format version"):
        PiiSolution.load(path)


def test_cache_file_name_is_stable():
    """The one table's key (X_MIN, X_RIGHT, TABLE_TOL) names its file;
    a new name leaves every warmed cache cold, so it changes on purpose."""
    assert _pii_cache_path().name == "pii-81679bfdfe006ee3.f64"


def test_cache_miss_then_hit(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    first, hit_first = cached_pii_solution()
    assert not hit_first
    second, hit_second = cached_pii_solution()
    assert hit_second
    assert _hex(second) == _hex(first)
    assert list(tmp_path.glob("pii-*.f64"))


def test_cache_recovers_from_a_partial_write(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    cached_pii_solution()
    victim = next(tmp_path.glob("pii-*.f64"))
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
    victim = next(tmp_path.glob("pii-*.f64"))
    victim.write_bytes(b"not a table")
    sol2, hit = cached_pii_solution()
    assert not hit
    assert sol2.u_at(0.0) == pytest.approx(-0.36706155154803544, abs=1e-7)
    assert cached_pii_solution()[1]


def test_cache_refuses_coefficients_of_the_wrong_shape(tmp_path, monkeypatch):
    """A current-version entry with too few steps is solved again rather
    than read past its end."""
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    first, _ = cached_pii_solution()
    victim = next(tmp_path.glob("pii-*.f64"))
    with open(victim, "wb") as handle:
        PiiSolution(coeffs=first.coeffs[:10], tol=first.tol).save(handle)
    with pytest.raises(ValidationError, match="shape"):
        PiiSolution.load(victim)
    sol, hit = cached_pii_solution()
    assert not hit
    assert sol.u_at(0.0) == pytest.approx(-0.36706155154803544, abs=1e-7)
    assert cached_pii_solution()[1]


def test_cache_replaces_an_entry_of_the_previous_format(tmp_path, monkeypatch):
    """A format 4 entry (a numpy archive of the same coefficients) under
    the same key is refused, solved again and overwritten in place."""
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    first, _ = cached_pii_solution()
    victim = next(tmp_path.glob("pii-*.f64"))
    with open(victim, "wb") as handle:
        np.savez(handle, format_version=np.array([4]), tol=np.array([first.tol]),
                 coeffs=np.array(first.coeffs))
    sol, hit = cached_pii_solution()
    assert not hit
    assert sol.w_at(0.0) == pytest.approx(math.log(0.9693728283551878), abs=1e-7)
    assert [p.name for p in tmp_path.iterdir()] == [victim.name]
    version = victim.read_bytes().partition(b"\n")[0].split()[0]
    assert int(version) == PiiSolution.FORMAT_VERSION
    assert cached_pii_solution()[1]
