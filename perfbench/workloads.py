"""The three closed-loop workloads.

Each workload is one client that sends its next request only after the
previous one returns.  ``plan`` yields the seeded request stream of the
timed loop, made only of requests that pass at the commit the known-defect
list was measured at; ``ledger_plan`` lists failing requests to check
once after the loop.  ``execute`` runs one request and returns its raw
result, and ``check`` classifies that result against the references.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import catalogue
import checks
from common import BENCH, program_env

KINDS = {
    "square": "POISSON_SQUARE",
    "triangle": "POISSON_TRIANGLE",
    "external": "POISSON_EXTERNAL",
    "lattice-a": "LATTICE_A",
    "lattice-b": "LATTICE_B",
    "lattice-c": "LATTICE_C",
    "lines-d": "POISSON_LINES_D",
    "lines-e": "POISSON_LINES_E",
    "triangle-fs": "TRIANGLE_POISSON_FS",
    "lattice-a-sym": "LATTICE_A_SYM",
    "lattice-c-sym": "LATTICE_C_SYM",
}


def model_spec(req: dict):
    """The program's ModelSpec for a request, built without the CLI layer."""
    from lppdet.symbols import ModelKind, ModelSpec

    p = req["params"]
    fields = {k: p[k] for k in ("t", "alpha", "alpha_plus", "alpha_minus") if k in p}
    if req["kind"] in ("lines-d", "lines-e"):
        fields["col_params"] = tuple(p["q"])
    else:
        if "q" in p:
            fields["row_params"] = tuple(p["q"])
        if "qp" in p:
            fields["col_params"] = tuple(p["qp"])
    return ModelSpec(kind=getattr(ModelKind, KINDS[req["kind"]]), **fields)


class Workload:
    name = ""
    in_process = True

    def __init__(self, refs: dict, defects: dict[str, str], seed: int, tmp: Path):
        self.refs = refs
        self.defects = defects
        self.seed = seed
        self.tmp = tmp

    def passing(self, stratum: str) -> list[dict]:
        """The stratum's requests that are not known defects."""
        return [r for r in catalogue.EXACT_STRATA[stratum][1] if r["id"] not in self.defects]

    def law(self, req: dict) -> dict:
        return self.refs["laws"][catalogue.law_id(req)]

    def warm_up(self) -> None:
        """Pay one-time lazy imports and set-up outside the timed loop."""

    def traced_twin(self, op: dict) -> dict:
        return dict(op)

    def ledger_plan(self) -> list[dict]:
        """Known-defect requests to run once after the timed loop."""
        return []

    def pooled_failures(self, records: list[dict]) -> list[str]:
        """Checks over a whole run that no single operation can fail."""
        return []


# ------------------------------------------------------------ exact-sweep


def _slow(req: dict) -> bool:
    if req["kind"] == "square":
        return req["params"]["t"] > 6.0
    return req["kind"] in ("lattice-a-sym", "lattice-c-sym", "triangle-fs") and req["lmax"] > 8


class ExactSweep(Workload):
    """Stratified, seeded build_dist_table requests over all model kinds."""

    name = "exact-sweep"
    SLOW_LEDGER_PICKS = 2

    def plan(self):
        strata = {name: (weight, self.passing(name))
                  for name, (weight, _) in catalogue.EXACT_STRATA.items()}
        strata = {name: entry for name, entry in strata.items() if entry[1]}
        stream = catalogue.StratifiedStream(strata, self.seed)
        # the loop stops only between whole cycles, so every run holds each
        # stratum in exact proportion to its weight
        for i, (stratum, req) in enumerate(stream):
            yield {"stratum": stratum, "req": req, "model": model_spec(req),
                   "boundary": i % stream.cycle == 0}

    def ledger_plan(self) -> list[dict]:
        """Every cheap known defect, and two slow ones drawn by the seed.

        mpmath squares and lmax-12 group averages take 0.5-2 s each, so all
        36 of them would add about 40 s to a run; the rest take about 1.5 s
        together.
        """
        reqs = [r for r in catalogue.exact_requests() if r["id"] in self.defects]
        slow = [r for r in reqs if _slow(r)]
        picked = ([r for r in reqs if not _slow(r)]
                  + random.Random(self.seed).sample(slow, self.SLOW_LEDGER_PICKS))
        return [{"stratum": "ledger", "req": r, "model": model_spec(r)} for r in picked]

    def warm_up(self) -> None:
        from lppdet.exact_dist import build_dist_table

        for req in (catalogue._square(7.0), catalogue._lattice("lattice-a", 2, 0.3),
                    catalogue._sym("lattice-a-sym", [0.5], 0.5, 2)):
            build_dist_table(model_spec(req), min(req["lmax"], 4))

    def execute(self, op):
        from lppdet.exact_dist import build_dist_table

        table = build_dist_table(op["model"], op["req"]["lmax"])
        return {ell: p for ell, (_, p) in table.entries.items()}

    def check(self, op, result) -> tuple[str, float | None]:
        return checks.check_table(op["req"], result, self.law(op["req"]), self.refs["tolerance_p"])


# --------------------------------------------------------------- mc-sweep


class McSweep(Workload):
    """Every sampled kind at a small and a large size, one worker."""

    name = "mc-sweep"

    def plan(self):
        """Rounds of every configuration in a seeded order.

        The loop stops only at the start of a round, so each configuration
        runs equally often and the percentiles do not depend on which
        configurations a partial round reached.
        """
        rng = random.Random(self.seed)
        while True:
            configs = list(catalogue.MC_CONFIGS)
            rng.shuffle(configs)
            for i, req in enumerate(configs):
                yield {"stratum": req["kind"], "req": req, "model": model_spec(req),
                       "seed": rng.getrandbits(63), "boundary": i == 0}

    def warm_up(self) -> None:
        from lppdet.montecarlo import SimConfig, run_simulation

        per_draw, batched = catalogue.MC_CONFIGS[0], catalogue.MC_CONFIGS[12]
        for req in (per_draw, batched):
            run_simulation(SimConfig(model=model_spec(req), trials=64, seed=0))

    def execute(self, op):
        from lppdet.montecarlo import SimConfig, run_simulation

        emp = run_simulation(SimConfig(model=op["model"], trials=op["req"]["trials"],
                                       seed=op["seed"], workers=1))
        return emp.counts

    def check(self, op, result) -> tuple[str, float | None]:
        outcome, _ = checks.z_check(result, op["req"]["trials"], self.law(op["req"]))
        return outcome, None

    @staticmethod
    def draws(op) -> int:
        return op["req"]["trials"]

    def pooled_failures(self, records: list[dict]) -> list[str]:
        """z-check each configuration's draws pooled over the run.

        One simulation is sized to take about 0.05 s, too few draws to see a
        bias of a few percent in one value; a run repeats each configuration
        about 20 times with independent seeds, and the pooled counts do.
        """
        pooled: dict[str, tuple[dict, Counter, int]] = {}
        for op in records:
            if op["result"] is None:
                continue
            req, counts, trials = pooled.setdefault(op["req"]["id"], (op["req"], Counter(), 0))
            counts.update(op["result"])
            pooled[req["id"]] = (req, counts, trials + req["trials"])
        out = []
        for req_id, (req, counts, trials) in sorted(pooled.items()):
            outcome, z = checks.z_check(counts, trials, self.law(req))
            if outcome != "ok":
                out.append(f"pooled {outcome} (|z| = {z:.1f} over {trials} draws): {req_id}")
        return out


# ------------------------------------------------------------ cli-session


class CliSession(Workload):
    """One lppdet subprocess at a time, replaying the project scripts' sessions."""

    name = "cli-session"
    in_process = False
    VERIFY_SEED = "0"  # scripts/run_checks.py's default

    def _op(self, argv: list[str], command: str, what, cache: Path, name: str) -> dict:
        out = self.tmp / name
        return {"stratum": command, "argv": ["--out-dir", str(out), *argv],
                "out": out, "command": command, "what": what, "cache": cache,
                "req": what if isinstance(what, dict) else None}

    def plan(self):
        rng = random.Random(self.seed)
        # from the failing strata, at points that pass: an mpmath square
        # at t <= 40 (0.1-0.5 s) and a group average at lmax 8 (about 0.5 s)
        square_mp = [r for r in self.passing("square-mp") if r["params"]["t"] <= 40]
        groups_8 = [r for r in self.passing("symmetrized") if r["lmax"] == 8]
        n = 0
        while True:
            tables = [(["dist", *catalogue.cli_argv(r), "--lmax", str(r["lmax"])], "dist", r)
                      for r in catalogue.SCRIPT_DIST]
            limits = [(["tw", w], "tw", w) for w in ("gue", "goe", "gse")]
            checks_a = [(["--seed", self.VERIFY_SEED, "verify", suite], "verify", suite)
                        for suite in ("fredholm", "dpii", "oracles")]
            checks_b = [(["--seed", self.VERIFY_SEED, "verify", "mc-cross", "--model", "square",
                          "--t", repr(catalogue.MC_CROSS_T)], "verify", "mc-cross-t8"),
                        (["--seed", self.VERIFY_SEED, "verify", "corner-asymptotics"], "verify",
                         "corner-asymptotics"),
                        (["--seed", self.VERIFY_SEED, "verify", "mc-cross", "--trials",
                          str(catalogue.MC_CROSS_TRIALS)], "verify", "mc-cross")]
            t_list = ",".join(repr(t) for t in catalogue.CONVERGE_T)
            lo, hi, step = catalogue.CONVERGE_X
            converge = [(["converge", "--t-list", t_list, "--x-min", repr(lo),
                          "--x-max", repr(hi), "--x-step", repr(step)], "converge", None)]
            mc = catalogue.CLI_MC
            simulate = [(["--seed", str(rng.getrandbits(31)), "--workers", "2", "mc",
                          *catalogue.cli_argv(mc),
                          "--trials", str(mc["trials"])], "mc", mc)]
            costly = [(["dist", *catalogue.cli_argv(r), "--lmax", str(r["lmax"])], "dist", r)
                      for r in (rng.choice(square_mp), rng.choice(groups_8))]
            # take the groups in turn, so that any prefix of a session (a
            # traced run covers about half of one) reaches every command kind
            groups = [tables, limits, checks_a, checks_b, converge, simulate, costly]
            session = [g[i] for i in range(max(map(len, groups))) for g in groups if i < len(g)]
            cache = self.tmp / f"cache-{n}"  # every session starts cold
            for argv, command, what in session:
                yield self._op(argv, command, what, cache, f"op-{n}")
                n += 1

    def ledger_plan(self) -> list[dict]:
        """The truncated group-average table and one fast-failing request, as CLI calls."""
        reqs = (catalogue.CLI_TRUNCATED, random.Random(self.seed).choice(catalogue.CLI_FAILING_FAST))
        return [self._op(["dist", *catalogue.cli_argv(r), "--lmax", str(r["lmax"])], "dist", r,
                         self.tmp / "cache-ledger", f"ledger-{i}")
                for i, r in enumerate(reqs)]

    def execute(self, op):
        if op.get("traced"):
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(op["out"]), *op["argv"]]
        else:
            argv = [sys.executable, "-m", "lppdet.cli", *op["argv"]]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=program_env(op["cache"]), capture_output=True,
                              text=True, timeout=170)
        wall = time.perf_counter() - start
        return {"code": proc.returncode, "stderr": proc.stderr[-400:], "wall": wall}

    def traced_twin(self, op: dict) -> dict:
        """Same command with its own outputs and its own cold cache."""
        out = op["out"].with_name(op["out"].name + "-traced")
        return {**op, "traced": True, "out": out,
                "cache": op["cache"].with_name(op["cache"].name + "-traced"),
                "argv": ["--out-dir", str(out), *op["argv"][2:]]}

    # ---- checking the files a command wrote

    def check(self, op, result) -> tuple[str, float | None]:
        outcome = checks.exit_outcome(result["code"])
        mc_cross = op["command"] == "verify" and op["what"].startswith("mc-cross")
        # verify writes its report before it exits 3, so mc-cross is judged then too
        if outcome != "ok" and not (outcome == "exit3" and mc_cross):
            return outcome, None
        try:
            checked, err = getattr(self, "_check_" + op["command"])(op)
        except (OSError, ValueError, KeyError) as exc:
            op["check_error"] = f"{type(exc).__name__}: {exc}"
            return "error", None
        if outcome == "exit3" and checked == "ok":
            # The program's own test rejects at |z| > 3 at every threshold,
            # however few draws land there; a correct sampler fails it in a
            # few calls in a hundred.  The z-check above passed, so the exit
            # counts as a failure but not as a wrong answer.
            op["chance"] = True
            return outcome, err
        return checked, err

    def _tol(self):
        return self.refs["tolerance_p"]

    def _check_dist(self, op):
        req = op["req"]
        with open(op["out"] / f"dist_{req['kind']}.csv", newline="") as fh:
            rows = {int(r["ell"]): float(r["p"]) for r in csv.DictReader(fh)}
        return checks.check_table(req, rows, self.law(req), self._tol())

    def _check_tw(self, op):
        which = op["what"]
        ref = self.refs["tw"][which]
        with open(op["out"] / f"tw_{which}.csv", newline="") as fh:
            rows = [(float(r["x"]), float(r["F"])) for r in csv.DictReader(fh)]
        if len(rows) != len(ref):
            return "truncated", None
        err = max(abs(f - ref[repr(x)]) for x, f in rows)
        return ("off-reference" if err > self._tol() else "ok"), err

    def _check_verify(self, op):
        suite = op["what"]
        name = "mc-cross" if suite.startswith("mc-cross") else suite
        report = json.loads((op["out"] / f"verify_{name}.json").read_text())
        if name != "mc-cross":
            return ("ok" if report.get("passed") is True else "exit3"), None
        t = catalogue.MC_CROSS_T if suite == "mc-cross-t8" else 1.0
        law = self.law(catalogue.request("square", catalogue.square_lmax(t) + 4, t=t))
        err = max(abs(c["exact"] - law["p"][str(c["ell"])]) for c in report["comparisons"])
        if err > self._tol():
            return "off-reference", err
        counts, prev = {}, 0
        for c in sorted(report["comparisons"], key=lambda c: c["ell"]):
            hits = round(c["empirical"] * report["trials"])
            counts[c["ell"]], prev = hits - prev, hits
        compared = {"p": {str(c["ell"]): law["p"][str(c["ell"])] for c in report["comparisons"]}}
        outcome, _ = checks.z_check(counts, report["trials"], compared)
        return outcome, err

    def _check_converge(self, op):
        err = 0.0
        n_rows = 0
        laws = {r["params"]["t"]: self.law(r) for r in catalogue.converge_requests()}
        with open(op["out"] / "converge.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                t, x = float(r["t"]), float(r["x"])
                ell = math.floor(2.0 * t + x * t ** (1.0 / 3.0))
                want = 0.0 if ell < 0 else laws[t]["p"][str(ell)]
                err = max(err, abs(float(r["scaled_cdf"]) - want),
                          abs(float(r["f_gue"]) - self.refs["tw"]["gue"][repr(x)]))
                n_rows += 1
        if n_rows != len(catalogue.CONVERGE_T) * len(catalogue.grid(*catalogue.CONVERGE_X)):
            return "truncated", err
        return ("off-reference" if err > self._tol() else "ok"), err

    def _check_mc(self, op):
        req = op["req"]
        with open(op["out"] / f"mc_{req['kind']}.csv", newline="") as fh:
            counts = {int(r["value"]): int(r["count"]) for r in csv.DictReader(fh)}
        if sum(counts.values()) != req["trials"]:
            return "truncated", None
        outcome, _ = checks.z_check(counts, req["trials"], self.law(req))
        return outcome, None

    @staticmethod
    def draws(op) -> int:
        if op["command"] == "mc":
            return op["req"]["trials"]
        if op["what"] in ("mc-cross", "mc-cross-t8"):
            return catalogue.MC_CROSS_TRIALS
        return 0

    def cli_spans(self, ops) -> tuple[list[list], list[dict]]:
        """Merge the traced children's spans, re-indexing parents."""
        spans, calls = [], []
        for i, op in enumerate(ops):
            path = op["out"].with_suffix(".spans.gz")
            if not path.exists():
                continue
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                base = len(spans)
                for line in fh:
                    rec = json.loads(line)
                    rec[3] = rec[3] + base if rec[3] >= 0 else -1
                    rec[4] = i
                    spans.append(rec)
            times = json.loads(op["out"].with_suffix(".json").read_text())
            calls.append({"wall": op["result"]["wall"], **times})
        return spans, calls


WORKLOADS = {w.name: w for w in (ExactSweep, McSweep, CliSession)}
