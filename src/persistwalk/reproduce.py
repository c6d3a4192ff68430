"""Canned experiments behind the ``reproduce`` subcommand.

Each experiment re-runs one headline check of the toolkit at pinned seeds
and scales, and reports pass/fail against a fixed tolerance.  They are the
same checks the acceptance test suite performs, packaged so a single
command can re-derive any of them from scratch.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from . import durations, montecarlo, oracle, stable
from .errors import UnknownExperiment
from .exponent import estimate_b, phi, phi_arctan
from .increments import preset
from .rng import RandomStream

EXPERIMENTS: dict = {}


def _experiment(name):
    def register(fn):
        EXPERIMENTS[name] = fn
        return fn
    return register


@dataclass
class ExperimentReport:
    experiment: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"{self.experiment}: {verdict} ({self.elapsed:.1f}s) {keys}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, (list, tuple)) and v and isinstance(v[0], float):
        return "[" + ", ".join(f"{x:.4g}" for x in v) + "]"
    return str(v)


def available() -> tuple[str, ...]:
    return tuple(EXPERIMENTS)


def run(experiment: str) -> ExperimentReport:
    """Run one experiment by name; unknown names raise immediately."""
    try:
        fn = EXPERIMENTS[experiment]
    except KeyError:
        raise UnknownExperiment(
            f"{experiment!r} is not a known experiment; choose from "
            + ", ".join(EXPERIMENTS)) from None
    t0 = time.time()
    passed, details = fn()
    return ExperimentReport(experiment=experiment, passed=bool(passed),
                            elapsed=time.time() - t0, details=details)


# ---------------------------------------------------------------------------
# the experiments
# ---------------------------------------------------------------------------

@_experiment("closed-form-identity")
def _closed_form_identity():
    xs = np.linspace(0.0, 0.99, 100)
    bs = np.linspace(0.1, 10.0, 100)
    worst = max(abs(phi(x, b) - phi_arctan(x, b)) for x in xs for b in bs)
    sym = abs(phi(0.0, 1.0) - 0.5)
    third = abs(phi(0.5, 1.0) - 2.0 / 3.0)
    ok = worst <= 1e-12 and sym <= 4 * math.ulp(0.5) and \
        third <= 4 * math.ulp(2.0 / 3.0)
    return ok, {"max_form_gap": worst, "phi(0,1)-1/2": sym,
                "phi(1/2,1)-2/3": third}


@_experiment("stable-sampler")
def _stable_sampler():
    n = 1_000_000
    seed, stream_id = 2026, 5
    worst_dev = 0.0
    ok = True
    for kap in (-1.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0):
        z = stable.sample_standard_block(kap, RandomStream(seed, stream_id), n)
        p_emp = float((z < 0).mean())
        p_th = stable.negativity_probability(kap)
        if 0.0 < p_th < 1.0:
            dev = abs(p_emp - p_th) / math.sqrt(p_th * (1 - p_th) / n)
            worst_dev = max(worst_dev, dev)
            ok = ok and dev <= 3.0
        else:  # one-sided laws: allow a couple of boundary strays
            ok = ok and abs(p_emp - p_th) <= 2.0 / n
    z = np.sort(stable.sample_standard_block(1.0, RandomStream(seed, stream_id), n))
    cdf = stable.levy_cdf(z)
    ks = float(np.max(np.maximum(np.arange(1, n + 1) / n - cdf,
                                 cdf - np.arange(0, n) / n)))
    ok = ok and ks < 0.005
    return ok, {"worst_sign_dev_sigma": worst_dev, "ks_onesided": ks}


@_experiment("oracle-agreement")
def _oracle_agreement():
    srw = preset("simple")
    small = [oracle.exact_atilde(srw, 0, t) for t in (1, 2, 3, 4)]
    want = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(3, 8)]
    exact_ok = small == want
    grid, trials, seed = (4, 16, 64, 256), 1_000_000, 4242
    within = 0
    worst = 0.0
    for x in (Fraction(0), Fraction(1, 2)):
        curve = montecarlo.survival_atilde(srw, x, grid[-1], trials, seed,
                                           grid=grid)
        for i, t in enumerate(grid):
            p = float(oracle.exact_atilde(srw, x, t))
            sig = math.sqrt(p * (1 - p) / trials)
            dev = abs(curve.p_hat[i] - p) / sig
            worst = max(worst, dev)
            within += dev <= 3.0
    ok = exact_ok and within >= 7
    return ok, {"exact_small_t": exact_ok, "cells_within_3sigma": within,
                "worst_dev_sigma": worst}


def _atilde_slope(x):
    srw = preset("simple")
    curve = montecarlo.survival_atilde(srw, x, 100_000, 1_000_000, 11)
    fit = montecarlo.fit_exponent(curve, (1000, 100_000))
    target = phi(x, 1.0) / 2.0
    gap = abs(fit.slope + target)
    return gap <= 0.05, {"slope": fit.slope, "target": -target,
                         "gap": gap, "stderr": fit.stderr}


def _a_slope(x):
    srw = preset("simple")
    curve = montecarlo.survival_a(srw, x, 1000, 300_000, 99)
    fit = montecarlo.fit_exponent(curve, (100, 1000))
    target = phi(x, 1.0)
    gap = abs(fit.slope + target)
    m = (curve.horizons >= 100) & (curve.horizons <= 1000) & \
        (curve.survivors >= 30)
    ref = montecarlo.gamma_ratio(curve.horizons[m].astype(float), target)
    spread = float(np.ptp(np.log(curve.p_hat[m]) - np.log(ref)))
    ok = gap <= 0.07 and spread < 0.3
    return ok, {"slope": fit.slope, "target": -target, "gap": gap,
                "shape_spread": spread, "capped": int(curve.capped)}


EXPERIMENTS.update({
    "srw-atilde-slope-x0": partial(_atilde_slope, Fraction(0)),
    "srw-atilde-slope-x025": partial(_atilde_slope, Fraction(1, 4)),
    "srw-atilde-slope-x05": partial(_atilde_slope, Fraction(1, 2)),
    "srw-a-slope-x0": partial(_a_slope, Fraction(0)),
    "srw-a-slope-x05": partial(_a_slope, Fraction(1, 2)),
})


@_experiment("asym-walk-consistency")
def _asym_consistency():
    walk = preset("unit-up", negatives=[-2])
    b_tail = estimate_b(walk, "tail", 501, n_excursions=60_000,
                        step_cap=2 ** 21)
    b_q = estimate_b(walk, "q", 502, x=Fraction(0), n_pairs=250,
                     trials=60_000)
    gap = abs(b_tail.b_hat - b_q.b_hat)
    limit = 3.0 * math.hypot(b_tail.stderr, b_q.stderr)
    curve = montecarlo.survival_atilde(walk, 0, 30_000, 200_000, 7001)
    fit = montecarlo.fit_exponent(curve, (1000, 30_000))
    target = phi(0.0, b_tail.b_hat) / 2.0
    slope_gap = abs(fit.slope + target)
    ok = gap <= limit and slope_gap <= 0.07
    return ok, {"b_tail": b_tail.b_hat, "b_q": b_q.b_hat,
                "estimator_gap": gap, "gap_limit": limit,
                "slope": fit.slope, "slope_target": -target,
                "slope_gap": slope_gap}


@_experiment("halfexcursion-tail")
def _halfexcursion_tail():
    stream = RandomStream(777, 9)
    u = stream.uniforms(2_000_000)
    tau, _ = durations.srw_tau_from_uniform_pairs(u[0::2], u[1::2])
    grid = montecarlo.geometric_grid(10_000, 2 ** 0.5, h_min=100)
    surv = np.array([(tau > g).sum() for g in grid], dtype=np.int64)
    curve = montecarlo.SurvivalCurve(kind="time", horizons=grid,
                                     survivors=surv, trials=len(tau))
    fit = montecarlo.fit_exponent(curve, (100, 10_000))
    gap = abs(fit.slope + 0.5)
    # normalized constant: sqrt(n)·P(tau > n) -> 2·sqrt(2/pi) ~= 1.5958,
    # two unit passages per sign flip (each contributes sqrt(2/(pi n)))
    band = curve.p_hat * np.sqrt(grid)
    ok = gap <= 0.03 and 1.0 <= band.min() and band.max() <= 1.8
    return ok, {"slope": fit.slope, "gap": gap,
                "sqrt_n_band": (float(band.min()), float(band.max()))}


@_experiment("skew-diagnostic")
def _skew():
    srw = preset("simple")
    diag = montecarlo.skew_diagnostic(srw, 0, (10, 100, 1000), 100_000, 31337)
    decreasing = bool(np.all(np.diff(diag.d) < 0))
    ok = decreasing and diag.d[-1] < 0.1
    return ok, {"d": [float(v) for v in diag.d], "decreasing": decreasing}


@_experiment("determinism")
def _determinism():
    def body(path):
        with open(path) as fh:
            return "".join(ln for ln in fh if not ln.startswith("#"))

    ok = True
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, dist, kwargs in (
                ("srw", preset("simple"), {}),
                ("asym", preset("unit-up", negatives=[-2]), {})):
            bodies = set()
            for workers in (1, 4, 16):
                curve = montecarlo.survival_atilde(
                    dist, 0, 2000, 20_000, 12321, workers=workers, **kwargs)
                out = os.path.join(tmp, f"{name}-{workers}.csv")
                montecarlo.write_survival_csv(curve, out)
                bodies.add(body(out))
            digests[name] = len(bodies)
            ok = ok and len(bodies) == 1
    return ok, {"distinct_bodies": digests}
