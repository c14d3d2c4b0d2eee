#!/usr/bin/env python3
"""Generate the benchmark's reference values into data/references.json.

    python3 perfbench/reference.py [--jobs N]

Computes the laws data/references.json does not hold yet (all of them
when the file is absent) and rewrites the file.

Every law is recomputed here without calling the program's routes:

* Toeplitz models (square, lattice-a/b/c, lines-d/e): leading minors of
  the dense Toeplitz matrix (phi_{j-k}) by Gaussian elimination in
  fixed-point integer arithmetic.  The working precision follows the
  symbol's dynamic range on the circle (e^{4t} for the square symbol) plus
  guard digits.  The minors are divided by the normalization Z from the
  strong Szego limit in closed form.
* Square n x n lattice-a at equal parameters: the Meixner ensemble,
  Johansson's n x n Gram determinant, which replaces an lmax-size
  elimination and cross-checks the Toeplitz route where both run.
* External sources: minors of e^{t(z + 1/z)} (1 + a+ z)(1 + a-/z), combined
  as F(l) = [D_l - a+ a- D_{l-1}] e^{-(t^2 + (a+ + a-) t)}, which has no
  singularity at a+ a- = 1.
* Group averages (triangle at odd thresholds, triangle-fs, the two
  symmetrized lattices): the Weyl integration formula per component of
  O(l), reduced by the Heine identity to a Hankel determinant of
  one-dimensional moments.  The moments use the trapezoid rule in the
  angle at 96 nodes, twice the program's 48, doubled again until two
  node counts agree.  The reference is absent above l = 8.
* Small-t square laws are also checked against the exact Plancherel sum.
* Tracy-Widom laws: Fredholm determinants det(1 -/+ B_x) of the kernel
  Ai(u + v + x) on (0, inf), using Gauss-Legendre on (0, 16].  Then
  F1 = det(1 - B), F2 = det(1 - B) det(1 + B) and F4 = the mean of the
  two determinants.

Each law is computed twice, the second time with more digits or nodes,
until the two agree; their largest difference is stored as ``delta`` and
must stay below 1e-13.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402

OUT = HERE / "data" / "references.json"
GROUP_MAX = 8
CERT_TOL = 1e-13
GROUP_NODES = 96


# ---------------------------------------------------------------- symbols


def symbol_parts(req: dict) -> dict:
    """Factorized symbol exp(tp z + tm/z) prod(1+az) prod(1+b/z) / prod(1-cz) / prod(1-d/z)."""
    k, p = req["kind"], req["params"]
    s = {"tp": 0.0, "tm": 0.0, "a": [], "b": [], "c": [], "d": []}
    if k == "square":
        s["tp"] = s["tm"] = p["t"]
    elif k == "lattice-a":
        s["a"], s["b"] = p["q"], p["qp"]
    elif k == "lattice-b":
        s["a"], s["d"] = p["q"], p["qp"]
    elif k == "lattice-c":
        s["c"], s["d"] = p["q"], p["qp"]
    elif k == "lines-d":
        s["tp"], s["b"] = p["t"], p["q"]
    elif k == "lines-e":
        s["tp"], s["d"] = p["t"], p["q"]
    else:
        raise ValueError(k)
    return s


def log_z(s: dict):
    """Strong Szego limit of the minors, in closed form."""
    tp, tm = mp.mpf(s["tp"]), mp.mpf(s["tm"])
    out = tp * tm + tp * (mp.fsum(s["b"]) + mp.fsum(s["d"]))
    out += tm * (mp.fsum(s["a"]) + mp.fsum(s["c"]))
    for a in s["a"]:
        out -= mp.fsum(mp.log(1 - mp.mpf(a) * b) for b in s["b"])
        out += mp.fsum(mp.log(1 + mp.mpf(a) * d) for d in s["d"])
    for c in s["c"]:
        out += mp.fsum(mp.log(1 + mp.mpf(c) * b) for b in s["b"])
        out -= mp.fsum(mp.log(1 - mp.mpf(c) * d) for d in s["d"])
    return out


def log10_range(s: dict) -> float:
    th = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    z = np.exp(1j * th)
    lg = (s["tp"] + s["tm"]) * np.cos(th)
    for a in s["a"]:
        lg += np.log(np.abs(1 + a * z))
    for b in s["b"]:
        lg += np.log(np.abs(1 + b / z))
    for c in s["c"]:
        lg -= np.log(np.abs(1 - c * z))
    for d in s["d"]:
        lg -= np.log(np.abs(1 - d / z))
    return float((lg.max() - lg.min()) / math.log(10.0))


def _series(exp_t, zeros, poles, n_terms):
    """Power-series coefficients of exp(exp_t w) prod(1+zw) / prod(1-pw)."""
    coef = [mp.mpf(0)] * n_terms
    if exp_t:
        term = mp.mpf(1)
        et = mp.mpf(exp_t)
        for k in range(n_terms):
            coef[k] = term
            term = term * et / (k + 1)
    else:
        coef[0] = mp.mpf(1)
    for z in zeros:
        z = mp.mpf(z)
        for k in range(n_terms - 1, 0, -1):
            coef[k] += z * coef[k - 1]
    for p in poles:
        p = mp.mpf(p)
        for k in range(1, n_terms):
            coef[k] += p * coef[k - 1]
    return coef


def _n_terms(exp_t, poles, digits, lmax):
    """Terms needed before the series tail drops below 10^-digits."""
    n = lmax + 4
    if exp_t:
        k = max(int(math.e * exp_t) + 1, 1)
        while k * math.log10(max(exp_t, 1e-300)) - math.lgamma(k + 1) / math.log(10.0) > -digits - 5:
            k += 1
        n = max(n, k + lmax + 4)
    if poles:
        c = max(poles)
        m = len(poles)
        k = 10
        while k * math.log10(c) + m * math.log10(k + m) > -digits - 5:
            k += 10
        n = max(n, k + lmax + 4)
    return n


def fourier(s: dict, lmax: int, digits: int) -> dict[int, object]:
    """phi_n for |n| <= lmax from the two one-sided series."""
    n_plus = _n_terms(s["tp"], s["c"], digits, lmax)
    n_minus = _n_terms(s["tm"], s["d"], digits, lmax)
    n = max(n_plus, n_minus)
    alpha = _series(s["tp"], s["a"], s["c"], n)
    beta = _series(s["tm"], s["b"], s["d"], n)
    out = {}
    for j in range(-lmax, lmax + 1):
        lo = max(0, -j)
        out[j] = mp.fsum(alpha[j + k] * beta[k] for k in range(lo, n - max(j, 0)))
    return out


# -------------------------------------------------------- leading minors


def leading_minors(coeffs: dict[int, object], lmax: int, bits: int) -> list:
    """D_0..D_lmax of the Toeplitz matrix (phi_{j-k}) as mpf values.

    Gaussian elimination without pivoting on integers scaled by 2^bits;
    the pivots are the ratios D_{k+1}/D_k.
    """
    scale = max(abs(v) for v in coeffs.values())
    one = 1 << bits
    ints = {j: int(mp.nint(v / scale * one)) for j, v in coeffs.items()}
    n = lmax
    minors = [mp.mpf(1)]
    if n == 0:
        return minors
    a = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            a[i, j] = ints[j - i]
    det = mp.mpf(1)
    for k in range(n):
        piv = a[k, k]
        if piv == 0:
            raise ArithmeticError(f"zero pivot at k = {k}")
        det *= mp.mpf(piv) / one * scale
        minors.append(det)
        if k + 1 < n:
            col = (a[k + 1:, k] << bits) // piv
            a[k + 1:, k + 1:] -= np.outer(col, a[k, k + 1:]) >> bits
    return minors


def toeplitz_law(req: dict, guard: int) -> dict[int, object]:
    s = symbol_parts(req)
    lmax = req["lmax"]
    digits = int(log10_range(s)) + guard
    with mp.workdps(digits + 20):
        coeffs = fourier(s, lmax, digits + 20)
        minors = leading_minors(coeffs, lmax, int(digits * 3.33) + 64)
        lz = log_z(s)
        return {ell: float(minors[ell] * mp.exp(-lz)) for ell in range(lmax + 1)}


def external_law(req: dict, guard: int) -> dict[int, object]:
    """F(l) = [D_l - a+ a- D_{l-1}] e^{-(t^2 + (a+ + a-) t)} for the symbol
    e^{t(z + 1/z)} (1 + a+ z)(1 + a-/z).

    With the corner cell added the law is a Toeplitz ratio with Z carrying
    1/(1 - a+ a-); the corner contributes an independent geometric summand,
    and removing it gives this combination, entire in both rates.
    """
    p, lmax = req["params"], req["lmax"]
    t, ap, am = p["t"], p["alpha_plus"], p["alpha_minus"]
    s = {"tp": t, "tm": t, "a": [ap], "b": [am], "c": [], "d": []}
    digits = int(log10_range(s)) + guard
    with mp.workdps(digits + 20):
        coeffs = fourier(s, lmax, digits + 20)
        minors = leading_minors(coeffs, lmax, int(digits * 3.33) + 64)
        c = mp.mpf(ap) * mp.mpf(am)
        lz = mp.mpf(t) ** 2 + (mp.mpf(ap) + mp.mpf(am)) * t
        return {ell: float((minors[ell] - c * minors[ell - 1]) * mp.exp(-lz))
                for ell in range(1, lmax + 1)}


def meixner_law(req: dict, guard: int) -> dict[int, object]:
    """Square lattice-a at equal parameters via Johansson's Meixner ensemble.

    P(L <= l) = det[sum_{x <= l+n-1} x^(i+j) q^x] / det[sum_x x^(i+j) q^x],
    i, j < n, for an n x n array with cell parameter q.
    """
    n, lmax = len(req["params"]["q"]), req["lmax"]
    q = mp.mpf(req["params"]["q"][0]) * mp.mpf(req["params"]["qp"][0])
    digits = int(2 * n * math.log10(lmax + n + 10) * 2 + 40) + guard
    with mp.workdps(digits):
        tail = lmax + n
        while tail * mp.log10(q) + (2 * n) * mp.log10(tail) > -digits - 10:
            tail += 100

        def add(mom, x):
            w, xp = q ** x, mp.mpf(1)
            for k in range(2 * n - 1):
                mom[k] += xp * w
                xp *= x

        def det_of(mom):
            return mp.det(mp.matrix([[mom[i + j] for j in range(n)] for i in range(n)]))

        full = [mp.mpf(0)] * (2 * n - 1)
        for x in range(tail):
            add(full, x)
        norm = det_of(full)
        mom = [mp.mpf(0)] * (2 * n - 1)
        for x in range(n - 1):
            add(mom, x)
        out = {}
        for ell in range(lmax + 1):
            add(mom, ell + n - 1)  # the largest shifted part h_1 = l + n - 1
            out[ell] = float(det_of(mom) / norm)
        return out


# --------------------------------------------------------- group averages


def group_psi(req: dict):
    k, p = req["kind"], req["params"]
    alpha = mp.mpf(p.get("alpha", 0.0))
    if k in ("triangle", "triangle-fs"):
        t = mp.mpf(p["t"])
        return (lambda z: (1 + alpha * z) * mp.exp(t * z)), alpha * t + t * t / 2
    qs = [mp.mpf(q) for q in p["q"]]
    pairs = -mp.fsum(mp.log(1 - qs[i] * qs[j])
                     for i in range(len(qs)) for j in range(i + 1, len(qs)))
    if k == "lattice-a-sym":
        def psi(z):
            out = 1 + alpha * z
            for q in qs:
                out *= 1 + q * z
            return out
        return psi, pairs - mp.fsum(mp.log(1 - alpha * q) for q in qs)
    if k == "lattice-c-sym":
        def psi(z):
            out = 1 + alpha * z
            for q in qs:
                out /= 1 - q * z
            return out
        return psi, pairs + mp.fsum(mp.log(1 + alpha * q) - mp.log(1 - q * q) for q in qs)
    raise ValueError(k)


def _component(psi, ell: int, minus: bool, nodes: int):
    """Mean of det psi(U) over one component of O(ell)."""
    if ell % 2 == 0:
        fixed = [1, -1] if minus else []
        weight = (lambda th: mp.sin(th) ** 2) if minus else (lambda th: mp.mpf(1))
    else:
        fixed = [-1] if minus else [1]
        weight = ((lambda th: mp.cos(th / 2) ** 2) if minus
                  else (lambda th: mp.sin(th / 2) ** 2))
    m = (ell - len(fixed)) // 2
    value = mp.mpf(1)
    for lam in fixed:
        value *= mp.re(psi(mp.mpf(lam)))
    if m == 0:
        return value
    num = [mp.mpf(0)] * (2 * m - 1)
    den = [mp.mpf(0)] * (2 * m - 1)
    for k in range(nodes):
        th = 2 * mp.pi * k / nodes
        c = mp.cos(th)
        w = weight(th)
        g = abs(psi(mp.expj(th))) ** 2
        cp = mp.mpf(1)
        for j in range(2 * m - 1):
            num[j] += cp * w * g
            den[j] += cp * w
            cp *= c
    hankel = lambda mom: mp.det(mp.matrix([[mom[i + j] for j in range(m)] for i in range(m)]))
    return value * hankel(num) / hankel(den)


def group_law(req: dict, nodes: int) -> dict[int, object]:
    with mp.workdps(50):
        psi, lz = group_psi(req)
        out = {}
        lo = 1 if req["kind"] == "triangle" else 0
        step = 2 if req["kind"] == "triangle" else 1
        for ell in range(lo, req["lmax"] + 1, step):
            if ell > GROUP_MAX:
                out[ell] = None
            elif ell == 0:
                out[ell] = float(mp.exp(-lz))
            else:
                avg = (_component(psi, ell, False, nodes) + _component(psi, ell, True, nodes)) / 2
                out[ell] = float(avg * mp.exp(-lz))
        return out


def plancherel_square(t: float, lmax: int) -> dict[int, float]:
    """Poissonized sum of exact permutation laws (sizes <= 40)."""
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    from lppdet.montecarlo import plancherel_lis_cdf

    out = {}
    for ell in range(lmax + 1):
        acc = mp.mpf(0)
        for n in range(41):
            w = mp.exp(-t * t) * mp.mpf(t * t) ** n / mp.factorial(n)
            f = plancherel_lis_cdf(n, ell)
            acc += w * mp.mpf(f.numerator) / f.denominator
        out[ell] = float(acc)
    return out


# ----------------------------------------------------------------- main


def _is_meixner(req):
    p = req["params"]
    return (req["kind"] == "lattice-a" and len(p["q"]) == len(p["qp"])
            and len(set(p["q"] + p["qp"])) == 1)


def _delta(a: dict, b: dict) -> float:
    return max((abs(a[k] - b[k]) for k in a if a[k] is not None), default=0.0)


def compute_law(req: dict) -> tuple[str, dict, float]:
    start = time.perf_counter()
    kind = req["kind"]
    if kind in ("triangle", "triangle-fs", "lattice-a-sym", "lattice-c-sym"):
        nodes = GROUP_NODES
        first = group_law(req, nodes)
        while True:
            second = group_law(req, 2 * nodes)
            if _delta(first, second) < CERT_TOL or nodes > 16 * GROUP_NODES:
                break
            first, nodes = second, 2 * nodes
        method = f"weyl-heine trapezoid {nodes} vs {2 * nodes} nodes"
    else:
        if kind == "external":
            method, fn = "toeplitz minors with corner removed, fixed point", external_law
        elif _is_meixner(req):
            method, fn = "meixner ensemble gram determinant", meixner_law
        else:
            method, fn = "toeplitz leading minors, fixed point", toeplitz_law
        guard = 30
        while True:
            first = fn(req, guard)
            second = fn(req, guard + 30)
            if _delta(first, second) < CERT_TOL or guard > 200:
                break
            guard *= 2
    delta = _delta(first, second)
    cross = {}
    if kind == "square" and req["params"]["t"] <= 2.0:
        plan = plancherel_square(req["params"]["t"], req["lmax"])
        cross["plancherel"] = _delta(second, plan)
    if _is_meixner(req) and req["lmax"] <= 120:
        cross["toeplitz"] = _delta(second, toeplitz_law(req, 40))
    law = {
        "method": method,
        "delta": delta,
        "cross": cross,
        "p": {str(ell): v for ell, v in sorted(second.items())},
    }
    return req["id"], law, time.perf_counter() - start


def airy_b_dets(x: float, nodes: int, cut: float = 16.0) -> tuple[float, float]:
    """det(1 - B_x), det(1 + B_x) for B_x(u, v) = Ai(u + v + x) on (0, inf)."""
    from scipy.special import airy

    g, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * cut * (g + 1.0)
    w = 0.5 * cut * w
    sw = np.sqrt(w)
    kern = sw[:, None] * airy(u[:, None] + u[None, :] + x)[0] * sw[None, :]
    eye = np.eye(nodes)
    return float(np.linalg.det(eye - kern)), float(np.linalg.det(eye + kern))


def tw_tables() -> dict:
    xs = catalogue.grid(*catalogue.TW_GRID)
    out = {"gue": {}, "goe": {}, "gse": {}, "delta": 0.0,
           "method": "det(1 -/+ Ai(u+v+x)) on (0,16], Gauss-Legendre 80 vs 160 nodes"}
    for x in xs:
        vals = []
        for nodes in (80, 160):
            m, p = airy_b_dets(x, nodes)
            vals.append((m * p, m, 0.5 * (m + p)))
        out["delta"] = max(out["delta"], max(abs(a - b) for a, b in zip(*vals)))
        out["gue"][repr(x)], out["goe"][repr(x)], out["gse"][repr(x)] = vals[1]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    existing = json.loads(OUT.read_text()) if OUT.exists() else {"laws": {}}
    laws = existing["laws"]
    todo = [r for r in catalogue.all_exact_requests() if r["id"] not in laws]
    # longest first, so the pool does not end on one slow law
    todo.sort(key=lambda r: -r["lmax"])
    print(f"{len(todo)} laws to compute", flush=True)
    with ProcessPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for law_id, law, seconds in pool.map(compute_law, todo):
            laws[law_id] = law
            print(f"{seconds:7.2f}s delta={law['delta']:.1e} {law['cross']} {law_id}", flush=True)
            if law["delta"] >= CERT_TOL:
                print(f"  not certified: delta {law['delta']:.2e}", flush=True)
    wanted = {r["id"] for r in catalogue.all_exact_requests()}
    payload = {
        "tolerance_p": 1e-9,
        "group_max_ell": GROUP_MAX,
        "certification_tol": CERT_TOL,
        "laws": {k: laws[k] for k in sorted(laws) if k in wanted},
        "tw": existing.get("tw") or tw_tables(),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    bad = [k for k, v in payload["laws"].items() if v["delta"] >= CERT_TOL]
    print(f"wrote {len(payload['laws'])} laws to {OUT}; {len(bad)} uncertified", flush=True)
    return 1 if bad or len(payload["laws"]) != len(wanted) else 0


if __name__ == "__main__":
    sys.exit(main())
