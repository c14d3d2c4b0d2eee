"""Spans around every public function of the program, installed from outside.

``Tracer.install`` replaces each public function of every ``lppdet``
module in every module namespace that holds it, so calls through module
globals are caught too; nothing under ``src/`` changes.  Each call records
a span (name, start, end, parent, operation id) in memory, plus the counts
the per-layer metrics need.  ``layer_metrics`` turns spans into self times
(a span minus its children) and the named per-layer metrics.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

import common

CLI_COMMANDS = ("dist", "tw", "verify", "converge", "mc")

# named function spans -> metric prefix
NAMED = {
    "symbols.fourier_coeffs": "symbols.fourier",
    "opuc.levinson": "opuc.levinson",
    "opuc.square_opuc_highprec": "opuc.highprec",
    "exact_dist.weyl_ogroup_expectation_spec": "exact_dist.ogroup",
    "fredholm.fredholm_log_det": "fredholm.log_det",
    "painleve.solve_hastings_mcleod": "painleve.solve",
    "painleve.f_gue": "painleve.law",
    "painleve.f_goe": "painleve.law",
    "painleve.f_gse": "painleve.law",
    "cache.cached_pii_solution": "cache.pii",
}


_SIGNATURES: dict = {}


def _arg(fn, args, kwargs, name):
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, op id, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self._dps: list[int] = []
        self._patched: list | None = None

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every public lppdet function in every namespace holding it."""
        import mpmath

        if self._patched is None:
            self._patched = []
            wrappers = {}
            modules = [m for n, m in sys.modules.items()
                       if (n == "lppdet" or n.startswith("lppdet.")) and m is not None]
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if (inspect.isfunction(obj) and not name.startswith("_")
                            and getattr(obj, "__module__", "").startswith("lppdet.")):
                        if obj not in wrappers:
                            wrappers[obj] = self._wrap(obj)
                        self._patched.append((mod, name, obj, wrappers[obj]))
            # the high-precision recursion picks its own working precision
            real_workdps = mpmath.workdps

            def workdps(n, *a, **k):
                self._dps.append(int(n))
                return real_workdps(n, *a, **k)

            self._patched.append((mpmath, "workdps", real_workdps, workdps))
        for mod, name, _, wrapper in self._patched:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patched or ():
            setattr(mod, name, original)

    def _wrap(self, fn):
        layer = fn.__module__.split(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        counter = _COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), None, stack[-1] if stack else -1, self.op, None]
            spans.append(rec)
            stack.append(idx)
            dps_mark = len(self._dps)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(self, fn, args, kwargs, result, dps_mark)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper


def dump_spans(spans: list[list], path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def _fourier(tr, fn, a, k, res, _):
    return {"nodes": res.quadrature_nodes}


def _levinson(tr, fn, a, k, res, _):
    return {"work": _arg(fn, a, k, "cutoff") ** 2}


def _highprec(tr, fn, a, k, res, mark):
    cutoff = _arg(fn, a, k, "cutoff")
    dps = _arg(fn, a, k, "dps") or max(tr._dps[mark:], default=0)
    return {"work": cutoff * cutoff * dps, "key": [_arg(fn, a, k, "t"), cutoff]}


def _ogroup(tr, fn, a, k, res, _):
    ell, nodes = _arg(fn, a, k, "ell"), _arg(fn, a, k, "n_nodes")
    pairs = [ell // 2, (ell - 2) // 2] if ell % 2 == 0 else [(ell - 1) // 2] * 2
    return {"grid_points": sum(nodes ** m for m in pairs if m > 0)}


def _fredholm(tr, fn, a, k, res, _):
    return {"nodes": _arg(fn, a, k, "spec").nodes}


def _cache(tr, fn, a, k, res, _):
    return {"hits": int(bool(res[1]))}


def _simulation(tr, fn, a, k, res, _):
    from lppdet import montecarlo

    config = _arg(fn, a, k, "config")
    return {
        "draws": config.trials,
        "blocks": math.ceil(config.trials / montecarlo._BLOCK_SIZE),
        "batched": config.model.kind in montecarlo._BATCH_KINDS,
    }


def _cli_main(tr, fn, a, k, res, _):
    argv = list(_arg(fn, a, k, "argv") or [])
    command = next((x for x in argv if x in CLI_COMMANDS), "?")
    return {"command": command}


_COUNTERS = {
    "symbols.fourier_coeffs": _fourier,
    "opuc.levinson": _levinson,
    "opuc.square_opuc_highprec": _highprec,
    "exact_dist.weyl_ogroup_expectation_spec": _ogroup,
    "fredholm.fredholm_log_det": _fredholm,
    "cache.cached_pii_solution": _cache,
    "montecarlo.run_simulation": _simulation,
    "cli.main": _cli_main,
}


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def layer_metrics(spans: list[list], cli_calls: list[dict] | None = None) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from spans.

    ``cli_calls`` holds, per CLI subprocess, its wall time, the duration of
    main() inside it and the tracer's own install and dump time.  A layer
    the spans never reach reports 0.
    """
    out = dict.fromkeys(common.metric_units("per_layer"), 0.0)
    selfs = self_times(spans)
    highprec_keys = set()
    per_draw = [0.0, 0.0]  # draws, seconds
    batched = [0.0, 0.0]
    main_s = defaultdict(list)
    for rec, own in zip(spans, selfs):
        name, counts = rec[0], rec[5] or {}
        out[f"layer.{name.split('.', 1)[0]}.self_s"] += own
        prefix = NAMED.get(name)
        if prefix:
            out[f"{prefix}.calls"] += 1
            out[f"{prefix}.self_s"] += own
            for key in ("nodes", "work", "grid_points", "hits"):
                if key in counts:
                    out[f"{prefix}.{key}"] += counts[key]
            if "key" in counts:
                highprec_keys.add(tuple(counts["key"]))
        if name == "montecarlo.run_simulation":
            out["montecarlo.draws"] += counts["draws"]
            out["montecarlo.blocks"] += counts["blocks"]
            acc = batched if counts["batched"] else per_draw
            acc[0] += counts["draws"]
            acc[1] += rec[2] - rec[1]
        if name == "cli.main":
            main_s[counts["command"]].append(rec[2] - rec[1])
    out["montecarlo.self_s"] = out["layer.montecarlo.self_s"]
    if out["opuc.highprec.calls"]:
        out["opuc.highprec.distinct_frac"] = len(highprec_keys) / out["opuc.highprec.calls"]
    for acc, key in ((per_draw, "per_draw"), (batched, "batched")):
        if acc[1] > 0:
            out[f"montecarlo.{key}.draws_per_s"] = acc[0] / acc[1]
    for command in CLI_COMMANDS:
        if main_s[command]:
            out[f"cli.main_s.{command}"] = statistics.median(main_s[command])
    if cli_calls:
        out["cli.startup_s"] = statistics.median(c["wall"] - c["main_s"] - c["tracer_s"]
                                                 for c in cli_calls)
    out["trace.spans"] = float(len(spans))
    return out
