"""The finite request catalogue behind every workload, and seeded draws from it.

Every request a workload can issue is listed here, so the reference
generator (``reference.py``) can tabulate an independent answer for each
one ahead of time.  A workload's seed only chooses among catalogue points
and orders them; it never invents parameters the references do not cover.

A request is a dict with the CLI model name (``kind``), the model flags
(``params``: t, alpha, alpha_plus, alpha_minus, q, qp) and ``lmax``.
Lattice strata use equal parameters on every row and column, so the cell
parameter q_i * q'_j of an n x n lattice at "q" is q and ``--q``/``--qp``
both carry sqrt(q).
"""

from __future__ import annotations

import math
import random

PARAM_KEYS = ("t", "alpha", "alpha_plus", "alpha_minus", "q", "qp")


def request(kind: str, lmax: int, **params) -> dict:
    params = {k: v for k, v in params.items() if v is not None}
    for key in ("q", "qp"):
        if key in params:
            params[key] = [float(x) for x in params[key]]
    return {"id": request_id(kind, lmax, params), "kind": kind,
            "lmax": int(lmax), "params": params}


def request_id(kind: str, lmax: int, params: dict) -> str:
    parts = [kind]
    for key in PARAM_KEYS:
        if key in params:
            value = params[key]
            if isinstance(value, list) and len(value) > 1 and len(set(value)) == 1:
                text = f"{value[0]!r}x{len(value)}"
            elif isinstance(value, list):
                text = ",".join(repr(x) for x in value)
            else:
                text = repr(value)
            parts.append(f"{key}={text}")
    parts.append(f"lmax={lmax}")
    return " ".join(parts)


def square_lmax(t: float) -> int:
    """Bulk plus right tail of the square law: about 2t + 6 t^(1/3)."""
    return int(2.0 * t + 6.0 * t ** (1.0 / 3.0)) + 1


def lattice_lmax(kind: str, n: int, q: float) -> int:
    """Bulk plus right tail of an n x n lattice law at cell parameter q.

    Weak/weak geometric chains grow like n((1 + sqrt q)^2 / (1 - q) - 1)
    (Johansson's shape function); the margin covers the fluctuations,
    which are wide at q near 1.  Bernoulli chains with a strict column
    step take at most one cell per column, and strict/strict chains at
    most one per row and column, so n bounds both.
    """
    if kind in ("lattice-b", "lattice-c"):
        return n
    mean = n * ((1.0 + math.sqrt(q)) ** 2 / (1.0 - q) - 1.0)
    return int(1.25 * mean + 6.0 * mean ** (1.0 / 3.0) + 8)


def lines_lmax(kind: str, t: float, n: int, rate: float) -> int:
    if kind == "lines-e":
        return n  # at most one point per line
    mean = t * rate * n
    return int(mean + 8.0 * math.sqrt(mean + 1.0) + 8)


def _sq(q: float, n: int) -> list[float]:
    return [math.sqrt(q)] * n


def _square(t: float, lmax: int | None = None) -> dict:
    return request("square", square_lmax(t) if lmax is None else lmax, t=float(t))


def _lattice(kind: str, n: int, q: float) -> dict:
    return request(kind, lattice_lmax(kind, n, q), q=_sq(q, n), qp=_sq(q, n))


def _lines(kind: str, t: float, n: int, rate: float) -> dict:
    return request(kind, lines_lmax(kind, t, n, rate), t=float(t), q=[rate] * n)


def _triangle(t: float, alpha: float, lmax: int | None = None) -> dict:
    if lmax is None:
        lmax = square_lmax(t)
        lmax -= 1 - lmax % 2  # odd thresholds only
    return request("triangle", lmax, t=float(t), alpha=float(alpha))


def _external(t: float, a_plus: float, a_minus: float) -> dict:
    return request("external", square_lmax(t) + 2, t=float(t),
                   alpha_plus=float(a_plus), alpha_minus=float(a_minus))


def _sym(kind: str, qs, alpha: float, lmax: int) -> dict:
    return request(kind, lmax, q=list(qs), alpha=float(alpha))


def _triangle_fs(t: float, alpha: float, lmax: int) -> dict:
    return request("triangle-fs", lmax, t=float(t), alpha=float(alpha))


# The failing requests the benchmark was written around (see NOTES.md).  The
# timed workloads leave out every request data/known_defects.json lists;
# ledger requests are checked after the timed loop instead.
LEDGER = [
    _square(5.0, 21),
    _square(6.0, 22),
    _square(80.0),
    _square(90.0),
    _square(95.0, 230),
    _triangle(2.0, 0.5, 11),
    _lattice("lattice-a", 6, 0.9),
    _lattice("lattice-a", 8, 0.7),
    _lattice("lattice-a", 10, 0.7),
    _lattice("lattice-a", 10, 0.9),
    _lattice("lattice-a", 12, 0.5),
    _lattice("lattice-a", 12, 0.9),
    _sym("lattice-a-sym", [0.5], 0.5, 12),
]

_SYM_QS = ([0.5], [0.3, 0.6], [0.4, 0.5, 0.6])


def _by_lmax(reqs: list[dict]) -> list[dict]:
    # neighbours along a stratum should cost about the same, so that the
    # stratified draws below keep each run's mix of cheap and dear requests
    return sorted(reqs, key=lambda r: r["lmax"])


# name -> (draws per cycle, requests ordered along the stratum's axis).
# The timed loop draws only the requests that pass (known defects are
# dropped, which empties square-past); these weights are for that mix.
# Cheap float64, lattice and lines requests are most of the operations, and
# the mpmath squares and lmax-8 group averages most of the time.  The
# median falls inside the cheap band (about 1.5 ms) and the 90th percentile
# inside the 0.3-0.8 s band of group averages and mid-range mpmath
# squares, where costs are dense, so neither sits in a gap between strata.
EXACT_STRATA: dict[str, tuple[int, list[dict]]] = {
    "square-f64": (16, [_square(0.25 * k) for k in range(1, 25)]),
    "square-mp": (2, [_square(float(t)) for t in list(range(7, 90, 2)) + [90]]),
    "square-past": (1, [_square(float(t)) for t in (95, 100, 105, 110, 115, 120)]),
    "lattice": (6, _by_lmax([_lattice(kind, n, q)
                              for kind in ("lattice-a", "lattice-b", "lattice-c")
                              for n in (2, 4, 6, 8, 10, 12)
                              for q in (0.3, 0.5, 0.7, 0.9)])),
    "lines": (3, _by_lmax([_lines(kind, t, n, r)
                           for kind in ("lines-d", "lines-e")
                           for t in (1.0, 3.0, 6.0, 10.0)
                           for n in (2, 5)
                           for r in (0.3, 0.7)])),
    "triangle-external": (3, _by_lmax([_triangle(t, a) for t in (0.5, 1.0, 2.0, 3.0)
                                       for a in (0.0, 0.5, 1.5)]
                                      + [_external(t, ap, am) for t in (1.0, 2.0, 4.0)
                                         for ap, am in ((0.3, 0.6), (0.8, 0.5),
                                                        (2.0, 0.50002), (0.5, 1.99996))])),
    "symmetrized": (8, _by_lmax([_sym(kind, qs, a, lmax)
                                 for kind in ("lattice-a-sym", "lattice-c-sym")
                                 for qs in _SYM_QS for a in (0.3, 0.8)
                                 for lmax in (6, 8, 12)]
                                + [_triangle_fs(t, a, lmax) for t in (0.5, 1.0, 2.0)
                                   for a in (0.0, 1.0) for lmax in (6, 8, 12)])),
}


def _mc(kind: str, trials: int, lmax: int, **params) -> dict:
    req = request(kind, lmax, **params)
    req["trials"] = int(trials)
    req["id"] += f" trials={trials}"
    return req


# Every sampled kind at a small and a large size.  Trial counts make every
# simulation take about 0.05 s, so the median and the 90th percentile sit in
# one dense band instead of between two configurations.  lmax is the range
# the z-check reference covers.
MC_CONFIGS = [
    _mc("square", 6144, square_lmax(5.0) + 4, t=5.0),
    _mc("square", 256, square_lmax(30.0) + 4, t=30.0),
    _mc("triangle", 4096, square_lmax(3.0) + 5, t=3.0, alpha=0.5),
    _mc("triangle", 1536, square_lmax(12.0) + 5, t=12.0, alpha=1.0),
    _mc("external", 3584, square_lmax(3.0) + 4, t=3.0, alpha_plus=0.3, alpha_minus=0.6),
    _mc("external", 512, square_lmax(12.0) + 4, t=12.0, alpha_plus=0.8, alpha_minus=0.5),
    _mc("triangle-fs", 4608, 8, t=2.0, alpha=0.5),
    _mc("triangle-fs", 4096, 8, t=4.0, alpha=1.0),
    _mc("lines-d", 3072, lines_lmax("lines-d", 5.0, 3, 0.5), t=5.0, q=[0.5] * 3),
    _mc("lines-d", 512, lines_lmax("lines-d", 30.0, 8, 0.7), t=30.0, q=[0.7] * 8),
    _mc("lines-e", 2560, 3, t=5.0, q=[0.5] * 3),
    _mc("lines-e", 512, 8, t=30.0, q=[0.7] * 8),
    _mc("lattice-a", 61440, lattice_lmax("lattice-a", 4, 0.5), q=_sq(0.5, 4), qp=_sq(0.5, 4)),
    _mc("lattice-a", 3584, lattice_lmax("lattice-a", 20, 0.9), q=_sq(0.9, 20), qp=_sq(0.9, 20)),
    _mc("lattice-b", 163840, 4, q=_sq(0.5, 4), qp=_sq(0.5, 4)),
    _mc("lattice-b", 4608, 20, q=_sq(0.9, 20), qp=_sq(0.9, 20)),
    _mc("lattice-c", 73728, 4, q=_sq(0.5, 4), qp=_sq(0.5, 4)),
    _mc("lattice-c", 2560, 20, q=_sq(0.9, 20), qp=_sq(0.9, 20)),
    _mc("lattice-a-sym", 245760, 8, q=[0.4, 0.5], alpha=0.5),
    _mc("lattice-a-sym", 53248, 8, q=[0.3] * 6, alpha=0.6),
    _mc("lattice-c-sym", 229376, 8, q=[0.4, 0.5], alpha=0.5),
    _mc("lattice-c-sym", 20480, 8, q=[0.6] * 8, alpha=0.8),
]


def cli_argv(req: dict) -> list[str]:
    """Model flags of a request as CLI arguments."""
    p = req["params"]
    argv = [req["kind"]]
    for key, flag in (("t", "--t"), ("alpha", "--alpha"),
                      ("alpha_plus", "--alpha-plus"), ("alpha_minus", "--alpha-minus")):
        if key in p:
            argv += [flag, repr(p[key])]
    for key, flag in (("q", "--q"), ("qp", "--qp")):
        if key in p:
            argv += [flag, ",".join(repr(x) for x in p[key])]
    return argv


# The reference-table and check scripts' requests, reproduced as CLI
# sessions need them, plus the converge intensities.
SCRIPT_DIST = [
    request("square", 12, t=1.0),
    request("triangle", 11, t=1.0, alpha=0.5),
    request("external", 12, t=1.0, alpha_plus=0.3, alpha_minus=0.6),
    request("lattice-a", 8, q=[0.3, 0.2], qp=[0.25, 0.2]),
    request("lattice-b", 6, q=[0.6], qp=[0.5, 0.4, 0.3]),
]
CONVERGE_T = (4.0, 7.0, 10.0)
CONVERGE_X = (-5.0, 2.0, 0.25)
MC_CROSS_T = 8.0
MC_CROSS_TRIALS = 20000
CLI_MC = _mc("square", 20000, square_lmax(10.0) + 4, t=10.0)
# A session's check of failing requests through the CLI, after its timed
# loop: the silently truncated group-average table every time, and one
# request drawn from those that fail fast.
CLI_TRUNCATED = LEDGER[-1]
CLI_FAILING_FAST = [r for r in LEDGER[:-1] if r["kind"] != "square" or r["params"]["t"] <= 6]
TW_GRID = (-5.0, 5.0, 0.25)


def grid(lo: float, hi: float, step: float) -> list[float]:
    """The CLI's x grid: lo + i * step, computed the way the CLI does."""
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]


def converge_requests() -> list[dict]:
    x_min, x_max, _ = CONVERGE_X
    out = []
    for t in CONVERGE_T:
        top = math.floor(2.0 * t + x_max * t ** (1.0 / 3.0))
        out.append(request("square", top + 1, t=t))
    return out


def exact_requests() -> list[dict]:
    """Every exact-sweep request: the strata and the ledger, each id once."""
    seen: dict[str, dict] = {}
    for r in [r for _, reqs in EXACT_STRATA.values() for r in reqs] + LEDGER:
        seen.setdefault(r["id"], r)
    return list(seen.values())


def all_exact_requests() -> list[dict]:
    """Every request whose exact law the references must tabulate."""
    seen: dict[str, dict] = {}
    for r in exact_requests():
        seen.setdefault(r["id"], r)
    for r in SCRIPT_DIST + converge_requests():
        seen.setdefault(r["id"], r)
    for r in MC_CONFIGS + [CLI_MC]:
        base = request(r["kind"], r["lmax"], **r["params"])
        seen.setdefault(base["id"], base)
    # verify mc-cross square at t=1 (script default) and t=8
    for t in (1.0, MC_CROSS_T):
        base = request("square", square_lmax(t) + 4, t=t)
        seen.setdefault(base["id"], base)
    return list(seen.values())


def law_id(req: dict) -> str:
    """Id of the exact law a request needs (drops trials)."""
    return request(req["kind"], req["lmax"], **req["params"])["id"]


def _van_der_corput(i: int) -> float:
    x, scale = 0.0, 0.5
    while i:
        if i & 1:
            x += scale
        i >>= 1
        scale *= 0.5
    return x


BIN_SIZE = 8


class StratifiedStream:
    """Endless seeded stream over weighted strata.

    Strata take turns by smooth weighted round-robin, so any prefix of the
    stream holds each stratum in proportion to its weight.  A stratum of
    weight w splits its ordered request list into max(w, len // BIN_SIZE)
    equal bins and visits them in turn.  Within a bin the i-th draw takes the request at position
    (v_i + u) mod 1 along the bin, where v_i is the base-2 van der Corput
    sequence and u a seeded offset: every prefix covers the bin evenly
    (the first 2^k draws hit each of 2^k equal stretches once), while the
    seed moves which points are hit.
    """

    def __init__(self, strata: dict[str, tuple[int, list[dict]]], seed: int):
        rng = random.Random(seed)
        self._strata = strata
        self._credit = {name: 0 for name in strata}
        self._total = sum(w for w, _ in strata.values())
        self._bins = {}
        for name, (weight, reqs) in strata.items():
            n_bins = max(weight, len(reqs) // BIN_SIZE)
            bins = [reqs[i * len(reqs) // n_bins:(i + 1) * len(reqs) // n_bins]
                    for i in range(n_bins)]
            self._bins[name] = [[b, rng.random(), 0] for b in bins if b]
        self._count = {name: 0 for name in strata}
        self.cycle = self._total  # draws after which every stratum had its weight

    def __iter__(self):
        return self

    def __next__(self) -> tuple[str, dict]:
        for name, (weight, _) in self._strata.items():
            self._credit[name] += weight
        name = max(self._credit, key=self._credit.get)
        self._credit[name] -= self._total
        i = self._count[name]
        self._count[name] += 1
        bins = self._bins[name]
        entry = bins[i % len(bins)]
        reqs, offset, n = entry
        entry[2] += 1
        x = (_van_der_corput(n) + offset) % 1.0
        return name, reqs[int(x * len(reqs))]
