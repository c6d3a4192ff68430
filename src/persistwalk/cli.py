"""Command line entry point.

One executable, ``persistwalk``, with a subcommand per task: closed-form
evaluation (``phi``), stable-law sampling (``stable-sample``), survival
curve estimation (``estimate-atilde``, ``estimate-a``), asymmetry
estimation (``estimate-b``), the power-skew diagnostic (``diagnose-skew``),
exact enumeration (``oracle-dp``), slope fitting over saved curves
(``fit``), and canned experiment reruns (``reproduce``).

Every run prints a one-line summary; CSV/SVG artifacts carry the package
version and the full run configuration as header comments.  The default
seed comes from ``PERSIST_WALK_SEED`` when set.  Exit status is 0 on
success, 1 on any toolkit error (reported with the subcommand as context),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, engine, montecarlo, oracle, reproduce, stable, svg, walk
from .errors import PersistWalkError
from .exponent import estimate_b, model
from .increments import parse_dist_spec, parse_rational
from .rng import RandomStream

_SEED_ENV = "PERSIST_WALK_SEED"


def _env_seed() -> int:
    return int(os.environ.get(_SEED_ENV, "0"))


def _g(v: float) -> str:
    return format(float(v), ".12g")


def _add_common(sp, *, trials_default=100_000):
    sp.add_argument("--dist", required=True,
                    help="preset name, inline JSON, or config file path")
    sp.add_argument("--x", default="0", help="barrier slope as a rational p/q")
    sp.add_argument("--trials", type=int, default=trials_default)
    sp.add_argument("--seed", type=int, default=_env_seed(),
                    help=f"run seed (default ${_SEED_ENV} or 0)")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--engine", default="auto",
                    choices=engine.ENGINE_KINDS,
                    help="simulation engine: auto runs exact stretches, on the "
                    "passage law for the simple walk and on the duration "
                    "tables (table, on any walk) for any other walk; stepped "
                    "is the step-by-step reference for the barrier events "
                    "only (estimate-atilde, estimate-a)")


def _add_curve_out(sp):
    sp.add_argument("--grid-ratio", type=float, default=2 ** 0.25,
                    help="geometric spacing of the horizon grid")
    sp.add_argument("--out", help="write the survival curve CSV here")
    sp.add_argument("--svg", help="write a log-log chart here")


def _emit_curve(args, curve, label: str) -> None:
    p = curve.p_hat[-1]
    lo, hi = curve.ci
    line = (f"{label} at {int(curve.horizons[-1])}: {p:.6g} "
            f"[{lo[-1]:.6g}, {hi[-1]:.6g}] "
            f"(trials={curve.trials}, engine={curve.engine}")
    if curve.capped:
        line += f", capped={curve.capped}"
    if curve.tail_draws:
        line += f", tail_draws={curve.tail_draws}"
    print(line + ")")
    if args.out:
        montecarlo.write_survival_csv(curve, args.out)
        print(f"wrote {args.out}")
    if args.svg:
        svg.survival_chart(curve, args.svg, title=label)
        print(f"wrote {args.svg}")


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_phi(args) -> int:
    m = model(float(parse_rational(args.x)), args.b)
    print(f"phi={_g(m.phi)} kappa={_g(m.kappa)} psi_bar={_g(m.psi_bar)}")
    return 0


def _cmd_stable_sample(args) -> int:
    params = stable.StableParams(kappa=args.kappa, scale=args.scale)
    stream = RandomStream(args.seed)
    z = stable.sample_block(params, stream, args.n)
    if args.out:
        cfg = {"command": "stable-sample", "kappa": args.kappa,
               "scale": args.scale, "n": args.n, "seed": args.seed}
        with open(args.out, "w") as fh:
            for line in montecarlo.provenance(cfg):
                fh.write(f"# {line}\n")
            for v in z:
                fh.write(f"{float(v)!r}\n")
        print(f"wrote {args.out}")
    if args.summary:
        qs = np.quantile(z, [0.05, 0.25, 0.5, 0.75, 0.95])
        neg = float((z < 0).mean())
        print("quantiles(5/25/50/75/95%): "
              + " ".join(f"{q:.6g}" for q in qs))
        print(f"negative_fraction={neg:.6g} "
              f"(closed form {stable.negativity_probability(args.kappa):.6g})")
    elif not args.out:
        for v in z:
            print(repr(float(v)))
    return 0


def _cmd_estimate_atilde(args) -> int:
    dist = parse_dist_spec(args.dist)
    x = parse_rational(args.x)
    curve = montecarlo.survival_atilde(
        dist, x, args.t_max, args.trials, args.seed,
        grid_ratio=args.grid_ratio, mode=args.mode,
        engine_kind=args.engine, workers=args.workers)
    if args.dump_path:
        path = walk.simulate_path(dist, args.t_max, RandomStream(args.seed))
        with open(args.dump_path, "w") as fh:
            walk.write_path_csv(path, fh,
                                header_lines=montecarlo.provenance(curve.config))
        print(f"wrote {args.dump_path}")
    _emit_curve(args, curve, f"P(sign-sum stays above {x}*s)")
    return 0


def _cmd_estimate_a(args) -> int:
    dist = parse_dist_spec(args.dist)
    x = parse_rational(args.x)
    curve = montecarlo.survival_a(
        dist, x, args.k_max, args.trials, args.seed,
        grid_ratio=args.grid_ratio, mode=args.mode,
        engine_kind=args.engine, step_cap=args.step_cap,
        on_cap=args.on_cap, workers=args.workers)
    _emit_curve(args, curve, f"P(excursion event, slope {x})")
    return 0


def _cmd_estimate_b(args) -> int:
    dist = parse_dist_spec(args.dist)
    # every option the user gave goes through, so that estimate_b refuses
    # one of the other method; it fills in the ones not given
    est = estimate_b(dist, args.method, args.seed, n_excursions=args.excursions,
                     step_cap=args.step_cap,
                     x=None if args.x is None else parse_rational(args.x),
                     n_pairs=args.n_pairs, trials=args.trials, workers=args.workers)
    print(f"b_hat={est.b_hat:.6g} stderr={est.stderr:.6g} "
          f"method={est.method}")
    # the approximations: censored stretches (tail), undecided trials and
    # capped draws at n and 4n (q; on the tables these are √-tail draws)
    for key in ("censored_pos", "censored_neg", "q_hat", "drift", "undecided",
                "capped_draws", "engine"):
        if key in est.diagnostics:
            print(f"  {key}={est.diagnostics[key]}")
    return 0


def _cmd_diagnose_skew(args) -> int:
    dist = parse_dist_spec(args.dist)
    x = parse_rational(args.x)
    n_grid = tuple(int(tok) for tok in args.n_grid.split(",") if tok)
    diag = montecarlo.skew_diagnostic(
        dist, x, n_grid, args.trials, args.seed,
        engine_kind=args.engine, workers=args.workers,
        printed_sign=args.printed_sign)
    for i, n in enumerate(diag.n_grid):
        print(f"n={n}: D={diag.d[i]:.4f} +- {diag.d_err[i]:.4f} "
              f"(lhs={diag.lhs[i]:.4f}, rhs={diag.rhs[i]:.4f})")
    trend = "decreasing" if np.all(np.diff(diag.d) < 0) else "not monotone"
    print(f"D_{diag.n_grid[-1]}={diag.d[-1]:.4f} ({trend}"
          + (", degenerate" if diag.degenerate else "") + ")")
    if args.out:
        cfg = montecarlo._curve_config("diagnose-skew", dist, x, trials=diag.trials,
                                       seed=args.seed, printed_sign=args.printed_sign)
        curve = montecarlo.SurvivalCurve(
            kind="time", horizons=np.asarray(diag.n_grid, dtype=np.int64),
            survivors=diag.alive_counts, trials=diag.trials, config=cfg)
        extra = [f"skew: n={n} lhs={diag.lhs[i]:.10g} rhs={diag.rhs[i]:.10g} "
                 f"d={diag.d[i]:.10g} d_err={diag.d_err[i]:.10g}"
                 for i, n in enumerate(diag.n_grid)]
        montecarlo.write_survival_csv(curve, args.out, extra_comments=extra)
        print(f"wrote {args.out}")
    return 0


def _cmd_oracle_dp(args) -> int:
    dist = parse_dist_spec(args.dist)
    x = parse_rational(args.x)
    if args.k is None:
        if args.t_cap is not None:
            raise ValueError("--t-cap truncates the bracket of --k; the exact "
                             "value at --t takes none")
        value = oracle.exact_atilde(dist, x, args.t, mode=args.mode or "strict",
                                    cap=args.cap)
        print(f"{value} = {float(value):.10g}")
    else:
        t_cap = args.t if args.t_cap is None else args.t_cap
        lo, hi = oracle.exact_a(dist, x, args.k, t_cap, mode=args.mode or "weak",
                                cap=args.cap)
        print(f"lower {lo} = {float(lo):.10g}")
        print(f"upper {hi} = {float(hi):.10g}")
    return 0


def _cmd_fit(args) -> int:
    curve = montecarlo.read_survival_csv(args.infile)
    fit_range = None
    if args.lo is not None or args.hi is not None:
        lo = args.lo if args.lo is not None else int(curve.horizons[0])
        hi = args.hi if args.hi is not None else int(curve.horizons[-1])
        fit_range = (lo, hi)
    fit = montecarlo.fit_exponent(curve, fit_range,
                                  min_survivors=args.min_survivors)
    print(f"slope={fit.slope:.6g} stderr={fit.stderr:.6g} "
          f"r2={fit.r_squared:.6g} n_points={fit.n_points} "
          f"range=[{fit.fit_range[0]}, {fit.fit_range[1]}]")
    if args.append:
        montecarlo.append_fit_csv(args.infile, fit)
        print(f"appended fit to {args.infile}")
    if args.svg:
        svg.survival_chart(curve, args.svg, fit=fit)
        print(f"wrote {args.svg}")
    return 0


def _cmd_reproduce(args) -> int:
    if args.list:
        for name in reproduce.available():
            print(name)
        return 0
    names = args.experiments or list(reproduce.available())
    failed = 0
    for name in names:
        report = reproduce.run(name)
        print(report.summary())
        failed += not report.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persistwalk",
        description="persistence of the sign-sum of zero-mean integer walks")
    parser.add_argument("--version", action="version",
                        version=f"persistwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phi", help="closed-form exponent phi(x, b)")
    sp.add_argument("--x", default="0")
    sp.add_argument("--b", type=float, default=1.0)
    sp.set_defaults(func=_cmd_phi)

    sp = sub.add_parser("stable-sample",
                        help="draw from the alpha=1/2 stable family")
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--seed", type=int, default=_env_seed())
    sp.add_argument("--summary", action="store_true",
                    help="print quantiles and sign fraction instead of draws")
    sp.add_argument("--out", help="write draws to a file (one per line)")
    sp.set_defaults(func=_cmd_stable_sample)

    sp = sub.add_parser("estimate-atilde",
                        help="survival of the time event G_s > x*s, s <= t")
    _add_common(sp)
    sp.add_argument("--t-max", type=int, required=True, dest="t_max")
    sp.add_argument("--mode", default="strict", choices=("strict", "weak"))
    sp.add_argument("--dump-path",
                    help="also write one sample path as CSV (trial stream 0)")
    _add_curve_out(sp)
    sp.set_defaults(func=_cmd_estimate_atilde)

    sp = sub.add_parser("estimate-a",
                        help="survival of the excursion event through t_2k")
    _add_common(sp)
    sp.add_argument("--k-max", type=int, required=True, dest="k_max")
    sp.add_argument("--mode", default="weak", choices=("strict", "weak"))
    sp.add_argument("--step-cap", type=int, default=10 ** 9, dest="step_cap",
                    help="censoring step cap of a stretch, ≥ 1 (default 10^9)")
    sp.add_argument("--on-cap", default="count", choices=("count", "raise"),
                    dest="on_cap",
                    help="capped stretches: count as survivors or raise")
    _add_curve_out(sp)
    sp.set_defaults(func=_cmd_estimate_a)

    sp = sub.add_parser("estimate-b", help="estimate the relative asymmetry b")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--method", required=True, choices=("tail", "q"))
    sp.add_argument("--seed", type=int, default=_env_seed())
    sp.add_argument("--excursions", type=int,
                    help="duration pairs, ≥ 1 (tail method; default 50000)")
    sp.add_argument("--step-cap", type=int, dest="step_cap",
                    help="censoring step cap, ≥ 1 (tail method; default 2^22)")
    sp.add_argument("--x", help="barrier slope (q method; default 0)")
    sp.add_argument("--n-pairs", type=int, dest="n_pairs",
                    help="excursion pairs per trial, ≥ 1 (q method; default 250)")
    sp.add_argument("--trials", type=int, help="trials (q method; default 50000)")
    sp.add_argument("--workers", type=int, help="worker processes (q method; default 1)")
    sp.set_defaults(func=_cmd_estimate_b)

    sp = sub.add_parser("diagnose-skew",
                        help="power-skew defect D_n of the xi sequence")
    _add_common(sp)
    sp.add_argument("--n-grid", default="10,100,1000", dest="n_grid")
    sp.add_argument("--printed-sign", action="store_true", dest="printed_sign",
                    help="use the difference form of the defect")
    sp.add_argument("--out", help="write alive-count curve CSV here")
    sp.set_defaults(func=_cmd_diagnose_skew)

    sp = sub.add_parser("oracle-dp",
                        help="exact event probabilities by rational DP")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--x", default="0")
    sp.add_argument("--t", type=int, default=4,
                    help="time horizon (exact value)")
    sp.add_argument("--k", type=int, help="excursion horizon (exact bracket)")
    sp.add_argument("--t-cap", type=int, dest="t_cap",
                    help="time truncation for the bracket (needs --k; default --t)")
    sp.add_argument("--mode", choices=("strict", "weak"))
    sp.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    sp.set_defaults(func=_cmd_oracle_dp)

    sp = sub.add_parser("fit", help="log-log slope of a saved survival curve")
    sp.add_argument("--in", required=True, dest="infile")
    sp.add_argument("--lo", type=int)
    sp.add_argument("--hi", type=int)
    sp.add_argument("--min-survivors", type=int, default=30,
                    dest="min_survivors")
    sp.add_argument("--append", action="store_true",
                    help="append the fit as comment rows to the input CSV")
    sp.add_argument("--svg", help="write a chart with the fitted line here")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("reproduce", help="re-run canned experiments")
    sp.add_argument("experiments", nargs="*",
                    help="experiment ids (default: all)")
    sp.add_argument("--list", action="store_true",
                    help="list available experiment ids")
    sp.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a token such as "-1/2" for an option, not for the value
    # of --x; glued to it, a negative slope reaches the OutOfDomain refusal
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] == "--x" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"--x={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PersistWalkError, ValueError, OSError) as exc:
        print(f"persistwalk {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
