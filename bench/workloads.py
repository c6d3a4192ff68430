"""The benchmark's three workloads: set-up, job, correctness checks and digest.

Each job calls the package's public functions at a fixed size, so its
Monte Carlo error is fixed; the seed picks the inputs.  A job returns the
outputs its checks read, the text of every CSV body it wrote and the exact
counts it produced; :func:`digest` hashes the last two, so two commits run
at one seed can be shown byte-identical.

Checks compare against the closed form (``exponent.phi``) and the exact
rational DP (``oracle.exact_atilde``) at the tolerances of the canned
``reproduce`` experiments, widened by a multiple of the estimate's own
standard error where a job runs fewer trials than the experiment.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

from persistwalk import durations, engine, exponent, montecarlo, oracle
from persistwalk.increments import preset

SIMPLE = preset("simple")
UNIT_UP = preset("unit-up", negatives=[-2])   # {+1: 2/3, -2: 1/3}

# b of UNIT_UP by the q estimator at 60 000 trials, n = 250/1000, seed 9001
B_REF, B_REF_ERR = 0.9927, 0.0099

# Full sizes are the benchmark's; "tiny" keeps every code path for tests.
SIZES = {
    "full": {
        "srw-survival": dict(t_max=100_000, trials=80_000, t_fit=(1000, 100_000),
                             oracle_t=(16, 64, 128)),
        "srw-xi-pool": dict(n_grid=(10, 100, 1000), trials=4_000, workers=2),
        "general-time": dict(t_max=30_000, trials=4_000, t_fit=(1000, 30_000),
                             oracle_t=(45, 91, 181), n_pairs=250, q_trials=2_000),
    },
    "tiny": {
        "srw-survival": dict(t_max=2_000, trials=2_000, t_fit=(20, 2_000),
                             oracle_t=(16,)),
        "srw-xi-pool": dict(n_grid=(4, 16, 64), trials=1_000, workers=2),
        "general-time": dict(t_max=500, trials=500, t_fit=(10, 500),
                             oracle_t=(16,), n_pairs=20, q_trials=300),
    },
}

# The simple-walk engine draws a passage of up to 2^40 + 1 steps exactly and
# caps a longer one.  A capped draw still ends its stretch past any t_max
# below that, which settles the trial exactly as the true draw would, so on
# a time curve that short a cap changes no answer.
PASSAGE_CAP = 2 ** (durations.DEFAULT_PASSAGE_CAP_EXP + 1) + 1


def setup(name: str) -> None:
    """The set-up a fresh process pays before its first job."""
    if name.startswith("srw"):
        durations._q_table()
    else:
        durations.excursion_tables(UNIT_UP)


def _csv(curve, path) -> str:
    montecarlo.write_survival_csv(curve, path)
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def _oracle_cells(dist, curve, ts) -> list:
    """(t, p_hat, exact p) at the curve's horizons in ``ts``."""
    cells = []
    for t in ts:
        i = int(np.flatnonzero(curve.horizons == t)[0])
        cells.append((t, float(curve.p_hat[i]), float(oracle.exact_atilde(dist, 0, t))))
    return cells


def run_job(name: str, seed: int, outdir: str, size: str = "full",
            workers: int | None = None) -> dict:
    """Run workload ``name`` once; ``workers`` overrides the pool size."""
    s = SIZES[size][name]
    os.makedirs(outdir, exist_ok=True)
    if name == "srw-survival":
        ct = montecarlo.survival_atilde(SIMPLE, 0, s["t_max"], s["trials"], seed)
        ft = montecarlo.fit_exponent(ct, s["t_fit"])
        return {"bodies": [_csv(ct, os.path.join(outdir, "atilde.csv"))],
                "counts": {"capped": int(ct.capped)},
                "fits": {"atilde": (ft.slope, ft.stderr)},
                "oracle": _oracle_cells(SIMPLE, ct, s["oracle_t"]),
                "oracle_trials": s["trials"],
                "attempted": s["trials"],
                "inexact": int(ct.capped) if s["t_max"] >= PASSAGE_CAP else 0}
    if name == "srw-xi-pool":
        w = s["workers"] if workers is None else workers
        # skew_diagnostic drops the engine's cap bookkeeping, so the job
        # keeps the run_xi_trials result it computes the diagnostic from
        runs = []
        run_xi_trials = engine.run_xi_trials

        def keep(*args, **kwargs):
            runs.append(run_xi_trials(*args, **kwargs))
            return runs[-1]

        engine.run_xi_trials = keep
        try:
            sk = montecarlo.skew_diagnostic(SIMPLE, 0, s["n_grid"], s["trials"],
                                            seed, workers=w)
        finally:
            engine.run_xi_trials = run_xi_trials
        xi = runs[0]
        return {"bodies": [],
                "counts": {"alive": sk.alive_counts.tolist(),
                           "neg": sk.neg_counts.tolist(),
                           "decided": xi.decided, "undecided": xi.undecided,
                           "capped_draws": xi.capped_draws},
                "skew": (sk.d.tolist(), sk.d_err.tolist()),
                "trials": s["trials"],
                "attempted": s["trials"], "inexact": xi.undecided}
    if name == "general-time":
        ct = montecarlo.survival_atilde(UNIT_UP, 0, s["t_max"], s["trials"], seed)
        ft = montecarlo.fit_exponent(ct, s["t_fit"])
        bq = exponent.estimate_b(UNIT_UP, "q", seed + 1, x=Fraction(0),
                                 n_pairs=s["n_pairs"], trials=s["q_trials"])
        return {"bodies": [_csv(ct, os.path.join(outdir, "atilde.csv"))],
                "counts": {"b_q": repr(bq.b_hat), "q": bq.diagnostics["q_hat"],
                           "tail_draws": list(bq.diagnostics["capped_draws"])},
                "fits": {"atilde": (ft.slope, ft.stderr)},
                "b": (bq.b_hat, bq.stderr),
                "oracle": _oracle_cells(UNIT_UP, ct, s["oracle_t"]),
                "oracle_trials": s["trials"],
                "attempted": s["trials"] + 2 * s["q_trials"], "inexact": 0}
    raise KeyError(name)


def digest(out: dict) -> str:
    """SHA-256 of the job's CSV bodies and exact counts."""
    blob = json.dumps({"bodies": out["bodies"], "counts": out["counts"]},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _slope_check(label, fit, target, tol) -> tuple:
    slope, err = fit
    gap = abs(slope - target)
    limit = tol + 3.0 * err
    return (label, gap <= limit, f"slope {slope:.4f} vs {target:.4f}, "
            f"gap {gap:.4f} <= {limit:.4f}")


def _oracle_checks(out) -> list:
    n = out["oracle_trials"]
    checks = []
    for t, p_hat, p in out["oracle"]:
        sigma = math.sqrt(p * (1.0 - p) / n)
        checks.append((f"oracle t={t}", abs(p_hat - p) <= 5.0 * sigma,
                       f"p_hat {p_hat:.5f} vs exact {p:.5f} (5 sigma = {5 * sigma:.5f})"))
    return checks


def _b_check(label, b) -> tuple:
    b_hat, err = b
    limit = 4.0 * math.hypot(err, B_REF_ERR)
    return (label, abs(b_hat - B_REF) <= limit,
            f"b {b_hat:.4f} vs {B_REF} (limit {limit:.4f})")


def checks(name: str, out: dict) -> list:
    """(check, passed, detail) for one job's outputs.

    srw-survival and general-time use the tolerances of reproduce's C4 and C6
    slope experiments plus three fit stderrs; every oracle cell must lie
    within 5 binomial sigma of the exact value; b estimates must lie within
    4 joint stderrs of ``B_REF``.
    """
    if name == "srw-survival":
        return [_slope_check("atilde slope", out["fits"]["atilde"],
                             -exponent.phi(0.0, 1.0) / 2, 0.05),
                *_oracle_checks(out)]
    if name == "srw-xi-pool":
        d, err = out["skew"]
        res = []
        for i in range(len(d) - 1):
            slack = 2.0 * math.hypot(err[i], err[i + 1])
            res.append((f"D decreasing {i}", d[i + 1] < d[i] + slack,
                        f"D {d[i]:.4f} -> {d[i + 1]:.4f} (slack {slack:.4f})"))
        res.append(("D last", d[-1] < 0.1 + 3.0 * err[-1],
                    f"D {d[-1]:.4f} < {0.1 + 3.0 * err[-1]:.4f}"))
        n = out["trials"]
        q_hat = out["counts"]["neg"][-1] / n
        limit = 5.0 * 0.5 / math.sqrt(n)
        res.append(("P(W_n < 0) = phi(0, 1)", abs(q_hat - 0.5) <= limit,
                    f"q_hat {q_hat:.4f} vs 0.5 (limit {limit:.4f})"))
        return res
    if name == "general-time":
        b_hat = out["b"][0]
        return [_slope_check("atilde slope", out["fits"]["atilde"],
                             -exponent.phi(0.0, b_hat) / 2, 0.07),
                _b_check("b_q", out["b"]), *_oracle_checks(out)]
    raise KeyError(name)
