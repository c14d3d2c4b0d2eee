"""Command-line front end: tables, limit laws, verification, simulation.

Every subcommand writes its artifacts under ``--out-dir`` together with a
``run_manifest.json`` recording the command, every other parsed flag but
``--out-dir`` and ``--seed`` as its parameters, the code version, the
seed and a sha256 for each output file; the outputs depend on the
arguments alone, and nothing is written outside ``--out-dir``.  Exit
codes:

* 0  success
* 1  invalid input (bad flag, malformed parameter, out-of-range request)
* 2  numerical failure (recursion breakdown, an error bound past its target,
     a table that leaves [0, 1] or falls)
* 3  a verification suite ran to completion and found a violation

The module itself loads only the standard library, the model table and
the Painleve layer, none of which needs numpy; each command imports the
routes it runs when it starts, so ``tw`` loads no numpy at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import BreakdownError, ValidationError, VerificationError
from .painleve import (
    airy_kernel_fgue,
    corner_asymptotics_study,
    f_goe,
    f_gse,
    f_gue,
    fit_power_law,
    solve_hastings_mcleod,
)
from .symbols import (
    ModelKind,
    ModelSpec,
    SymbolSpec,
    fourier_coeffs,
    param_flags,
    strong_szego_log_z,
)

class _Parser(argparse.ArgumentParser):
    """argparse normally exits with status 2 on bad flags; route those
    through the package's own validation error so the documented exit
    code contract (2 means numerical failure) stays intact."""

    def error(self, message):
        raise ValidationError(message)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise ValidationError(f"empty parameter list: {text!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="lppdet", description=__doc__.splitlines()[0])
    models = sorted(kind.value for kind in ModelKind)
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--workers", type=int, default=1, help="simulation processes, at most one per block"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--t", type=float, default=1.0, help="Poisson intensity scale")
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--alpha-plus", type=float, default=0.0)
        p.add_argument("--alpha-minus", type=float, default=0.0)
        p.add_argument("--q", type=_float_list, default=None, help="row parameters, comma separated")
        p.add_argument("--qp", type=_float_list, default=None, help="column parameters, comma separated")

    p_dist = sub.add_parser("dist", help="exact distribution table for one model")
    p_dist.add_argument("model", choices=models)
    add_model_flags(p_dist)
    p_dist.add_argument("--lmax", type=int, default=10, help="largest threshold tabulated")

    p_tw = sub.add_parser("tw", help="tabulate a Tracy-Widom limit law")
    p_tw.add_argument("which", choices=["gue", "goe", "gse"])
    p_tw.add_argument("--x-min", type=float, default=-5.0)
    p_tw.add_argument("--x-max", type=float, default=5.0)
    p_tw.add_argument("--x-step", type=float, default=0.25)

    p_verify = sub.add_parser("verify", help="run an internal consistency suite")
    p_verify.add_argument(
        "suite",
        choices=["dpii", "fredholm", "corner-asymptotics", "mc-cross", "oracles"],
    )
    p_verify.add_argument("--model", choices=models, default="square")
    add_model_flags(p_verify)
    p_verify.add_argument("--trials", type=int, default=20000)

    p_conv = sub.add_parser("converge", help="finite-size CDF against the GUE limit")
    p_conv.add_argument("--t-list", type=_float_list, default=(4.0, 7.0, 10.0))
    p_conv.add_argument("--x-min", type=float, default=-5.0)
    p_conv.add_argument("--x-max", type=float, default=2.0)
    p_conv.add_argument("--x-step", type=float, default=0.25)

    p_mc = sub.add_parser("mc", help="Monte Carlo empirical CDF for one model")
    p_mc.add_argument("model", choices=models)
    add_model_flags(p_mc)
    p_mc.add_argument("--trials", type=int, default=20000)

    return parser


def model_from_args(args) -> ModelSpec:
    """The model named by ``args.model``, from the flags of the fields its
    kind reads (``symbols.param_flags``); an unset list reaches it empty."""
    kind = ModelKind(args.model)
    values = {name: getattr(args, flag) for name, flag in param_flags(kind).items()}
    return ModelSpec(kind=kind, **{k: () if v is None else v for k, v in values.items()})


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_csv(path: Path, header, rows) -> None:
    # repr of a builtin float round-trips float64 exactly, so reruns
    # are byte-identical; cast first so numpy scalars cannot leak
    # their wrapped repr into the file
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# flags a manifest does not list as parameters: the output directory, so
# that a rerun into another directory writes the same bytes, and the two
# recorded at its top level
_NOT_PARAMETERS = ("out_dir", "command", "seed")


def _write_manifest(out_dir: Path, args, outputs, extra: dict | None = None) -> Path:
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "seed": args.seed,
        "versions": {"code": __version__},
        "outputs": [{"path": p.name, "sha256": _sha256(p)} for p in outputs],
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "run_manifest.json"
    _write_json(path, manifest)
    return path


def cmd_dist(args, out_dir: Path) -> None:
    if args.lmax < 0:
        raise ValidationError("--lmax must be nonnegative")
    from .exact_dist import build_dist_table

    model = model_from_args(args)
    table = build_dist_table(model, args.lmax)
    csv_path = out_dir / f"dist_{args.model}.csv"
    _write_csv(csv_path, ("ell", "p", "log_p"), table.csv_rows())
    json_path = out_dir / f"dist_{args.model}.json"
    json_path.write_text(table.to_json() + "\n", encoding="utf-8")
    _write_manifest(out_dir, args, [csv_path, json_path])


def _x_grid(args) -> list[float]:
    """x_min + i * x_step for every i that stays at or below x_max; the
    1e-9 lets a whole number of steps reach x_max despite rounding."""
    if not all(math.isfinite(v) for v in (args.x_min, args.x_max, args.x_step)):
        raise ValidationError("--x-min, --x-max and --x-step must be finite")
    if args.x_step <= 0:
        raise ValidationError("--x-step must be positive")
    if args.x_max < args.x_min:
        raise ValidationError("--x-max must be at least --x-min")
    count = math.floor((args.x_max - args.x_min) / args.x_step + 1e-9) + 1
    return [args.x_min + i * args.x_step for i in range(count)]


def cmd_tw(args, out_dir: Path) -> None:
    xs = _x_grid(args)
    sol = solve_hastings_mcleod()
    law = {"gue": f_gue, "goe": f_goe, "gse": f_gse}[args.which]
    rows = [(float(x), float(law(sol, float(x)))) for x in xs]
    csv_path = out_dir / f"tw_{args.which}.csv"
    _write_csv(csv_path, ("x", "F"), rows)
    _write_manifest(out_dir, args, [csv_path])


# the largest index the dpii and fredholm suites check
_VERIFY_KMAX = 8


def _suite_dpii(args) -> tuple[dict, bool, str]:
    from .exact_dist import square_opuc
    from .opuc import dpii_residual

    data = square_opuc(args.t, ell=_VERIFY_KMAX + 1)
    residuals = {str(k): dpii_residual(data, args.t, k) for k in range(2, _VERIFY_KMAX + 1)}
    worst = max(residuals.values())
    report = {
        "t": args.t, "kmax": _VERIFY_KMAX, "residuals": residuals, "max_residual": worst
    }
    return report, worst < 1e-8, f"max discrete Painleve II residual {worst:.3e}"


def _suite_fredholm(args) -> tuple[dict, bool, str]:
    from .exact_dist import square_opuc
    from .fredholm import identity_checks

    report = identity_checks(args.t, _VERIFY_KMAX, square_opuc(args.t, ell=_VERIFY_KMAX))
    worst = report["max_residual"]
    return report, worst < 1e-6, f"max Fredholm identity residual {worst:.3e}"


def _suite_corner(args) -> tuple[dict, bool, str]:
    sol = solve_hastings_mcleod()
    ks = (40, 60, 90, 135)
    dev_v, dev_u = corner_asymptotics_study(ks, 0.0, sol)
    slope_v, _ = fit_power_law(ks, dev_v)
    slope_u, _ = fit_power_law(ks, dev_u)
    report = {
        "k_values": list(ks),
        "dev_norm_ratio": dev_v,
        "dev_poly_at_zero": dev_u,
        "slope_norm_ratio": slope_v,
        "slope_poly_at_zero": slope_u,
    }
    # both deviations must decay at least like k^(-2/3); -0.6 leaves
    # room for fit noise over a four-point window
    ok = slope_v <= -0.6 and slope_u <= -0.6
    return report, ok, f"corner deviation slopes {slope_v:.3f}, {slope_u:.3f}"


def _sampling(config) -> dict:
    """How a simulation's draws were split; deterministic, so manifests
    stay byte-identical across reruns."""
    return {"block_size": config.block_size, "blocks": config.blocks}


# mc-cross z-tests a threshold only where trials * p (1 - p) >= 5, so that
# the normal approximation holds, and fails when the largest |z| passes
# the two-sided Bonferroni critical value that keeps the chance of a
# false alarm over all thresholds tested at 0.0027 (one 3-sigma test's)
_MC_MIN_VARIANCE = 5.0
_MC_FALSE_ALARM = 0.0027


def _suite_mc_cross(args) -> tuple[dict, bool, str]:
    from statistics import NormalDist

    from .exact_dist import certified_law, exact_law
    from .montecarlo import SimConfig, run_simulation

    model = model_from_args(args)
    config = SimConfig(model=model, trials=args.trials, seed=args.seed, workers=args.workers)
    emp = run_simulation(config)
    rows, _ = exact_law(model, max(emp.counts))
    # the rows build_dist_table would check, so that none out of [0, 1]
    # passes below as a degenerate threshold
    law, refused = certified_law(model.kind, rows, skip_refused=True)
    refused = [ell for ell in refused if ell in emp.counts]
    comparisons = []
    untested = []
    # thresholds without a row (even triangle ones) have no exact value
    for ell in sorted(set(emp.counts) & set(law)):
        exact = law[ell]
        variance = exact * (1.0 - exact)
        if emp.trials * variance < _MC_MIN_VARIANCE:
            untested.append(ell)
            continue
        est = emp.cdf_at(ell)
        z = abs(est - exact) / math.sqrt(variance / emp.trials)
        comparisons.append({"ell": ell, "exact": exact, "empirical": est, "z": z})
    if not comparisons:
        raise ValidationError(
            "no comparable thresholds: all exact probabilities too close to "
            "0 or 1 for the trials, unavailable or refused by their error "
            "bounds for this model at these parameters"
        )
    worst = max(c["z"] for c in comparisons)
    critical = NormalDist().inv_cdf(1.0 - _MC_FALSE_ALARM / (2 * len(comparisons)))
    report = {
        "model": model.to_json(),
        "trials": args.trials,
        "seed": args.seed,
        "comparisons": comparisons,
        "untested_thresholds": untested,
        "refused_thresholds": refused,
        "max_z": worst,
        "false_alarm_rate": _MC_FALSE_ALARM,
        "critical_z": critical,
        "diagnostics": _sampling(config),
    }
    summary = (
        f"max |z| over {len(comparisons)} thresholds: {worst:.2f}, "
        f"critical {critical:.2f}"
    )
    if refused:
        summary += f"; {len(refused)} refused by their error bounds"
    return report, worst <= critical, summary


def _suite_oracles(args) -> tuple[dict, bool, str]:
    from .exact_dist import build_dist_table, square_opuc
    from .fredholm import IntegrableKernelSpec, fredholm_log_det
    from .montecarlo import (
        brute_force_lis_distribution,
        plancherel_lis_cdf,
        poissonized_square_cdf,
    )
    from .opuc import toeplitz_log_det, toeplitz_log_det_dense

    checks = {}

    square = SymbolSpec(exp_plus_t=1.0, exp_minus_t=1.0)
    log_z = strong_szego_log_z(square)
    table = build_dist_table(ModelSpec(kind=ModelKind.POISSON_SQUARE, t=1.0), 5)
    data = square_opuc(1.0)
    # P(L <= 1) = e^{-t^2} I_0(2t) at t = 1, with I_0(2) = sum_k 1/(k!)^2
    # from its series, independent of the recursion's Miller moments
    bessel_i0 = math.fsum(1 / math.factorial(k) ** 2 for k in range(30))
    checks["square_closed_form_l1"] = abs(table.probability(1) - math.exp(-1.0) * bessel_i0)
    coeffs = fourier_coeffs(square, 12)
    checks["toeplitz_vs_dense_lu"] = max(
        abs(toeplitz_log_det(data, n) - toeplitz_log_det_dense(coeffs, n))
        for n in range(1, 7)
    )
    checks["poissonized_plancherel"] = max(
        abs(poissonized_square_cdf(1.0, ell)[0] - table.probability(ell))
        for ell in range(0, 6)
    )
    triangle, triangle_fs = (
        build_dist_table(ModelSpec(kind=kind, t=1.0, alpha=0.5), 3).probability(3)
        for kind in (ModelKind.POISSON_TRIANGLE, ModelKind.TRIANGLE_POISSON_FS)
    )
    checks["triangle_vs_orthogonal_group"] = abs(triangle - triangle_fs)
    # log det(1 - K_0) = log D_0 - log Z = -log Z
    spec = IntegrableKernelSpec(t=1.0, k=0, nodes=64)
    checks["fredholm_det_t1_k0"] = abs(fredholm_log_det(spec) + log_z)
    dist = brute_force_lis_distribution(6)
    total = sum(dist.values())
    checks["plancherel_vs_brute_force"] = max(
        abs(sum(v for k, v in dist.items() if k <= ell) / total
            - float(plancherel_lis_cdf(6, ell)))
        for ell in range(0, 7)
    )
    sol = solve_hastings_mcleod()
    checks["airy_kernel_vs_painleve"] = abs(airy_kernel_fgue(0.0) - f_gue(sol, 0.0))

    worst = max(checks.values())
    report = {"checks": checks, "max_discrepancy": worst}
    return report, worst < 1e-8, f"max oracle discrepancy {worst:.3e}"


VERIFY_SUITES = {
    "dpii": _suite_dpii,
    "fredholm": _suite_fredholm,
    "corner-asymptotics": _suite_corner,
    "mc-cross": _suite_mc_cross,
    "oracles": _suite_oracles,
}


def cmd_verify(args, out_dir: Path) -> None:
    report, ok, summary = VERIFY_SUITES[args.suite](args)
    report["suite"] = args.suite
    report["passed"] = ok
    json_path = out_dir / f"verify_{args.suite}.json"
    _write_json(json_path, report)
    extra = {"diagnostics": report["diagnostics"]} if args.suite == "mc-cross" else None
    _write_manifest(out_dir, args, [json_path], extra)
    print(f"verify {args.suite}: {'pass' if ok else 'FAIL'} ({summary})")
    if not ok:
        raise VerificationError(f"suite {args.suite} failed: {summary}")


def cmd_converge(args, out_dir: Path) -> None:
    from .exact_dist import scaled_cdf, square_opuc

    xs = _x_grid(args)
    t_values = sorted(set(args.t_list))
    if len(t_values) < 2:
        raise ValidationError("--t-list needs at least two distinct intensities")
    sol = solve_hastings_mcleod()
    rows = []
    sups = {}
    for t in t_values:
        data = square_opuc(t)
        sup = 0.0
        for x in xs:
            finite = scaled_cdf(t, float(x), data)
            limit = f_gue(sol, float(x))
            diff = finite - limit
            sup = max(sup, abs(diff))
            rows.append((float(t), float(x), float(finite), float(limit), float(diff)))
        sups[t] = sup
    csv_path = out_dir / "converge.csv"
    _write_csv(csv_path, ("t", "x", "scaled_cdf", "f_gue", "diff"), rows)
    extra = {"sup_norms": {repr(t): sups[t] for t in t_values}}
    _write_manifest(out_dir, args, [csv_path], extra)
    for t in t_values:
        print(f"t = {t:g}: sup |scaled_cdf - F_GUE| = {sups[t]:.6f}")
    decreasing = all(
        sups[t_values[i + 1]] < sups[t_values[i]] for i in range(len(t_values) - 1)
    )
    if not decreasing:
        raise VerificationError(
            "sup-norm distance to the GUE law did not decrease along "
            + ", ".join(f"{t:g}" for t in t_values)
        )


def cmd_mc(args, out_dir: Path) -> None:
    from .montecarlo import SimConfig, run_simulation

    model = model_from_args(args)
    config = SimConfig(model=model, trials=args.trials, seed=args.seed, workers=args.workers)
    emp = run_simulation(config)
    csv_path = out_dir / f"mc_{args.model}.csv"
    _write_csv(csv_path, ("value", "count", "cdf", "stderr"), emp.csv_rows())
    _write_manifest(out_dir, args, [csv_path], {"diagnostics": _sampling(config)})


COMMANDS = {
    "dist": cmd_dist,
    "tw": cmd_tw,
    "verify": cmd_verify,
    "converge": cmd_converge,
    "mc": cmd_mc,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](args, out_dir)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BreakdownError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
