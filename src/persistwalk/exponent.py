"""Closed-form persistence exponent φ(x, b) and asymmetry estimation.

For a barrier slope x ∈ [0, 1) and relative asymmetry b > 0::

    ψ̄(b)    = (b² - 1) / (b² + 1)
    κ(x, b) = (√(1-x)·b - √(1+x)) / (√(1-x)·b + √(1+x))
    φ(x, b) = (1/π)·arccos((ψ̄ - x) / (1 - ψ̄x))
            = 1/2 - (2/π)·arctan κ(x, b)

The two φ expressions are algebraically identical; both are implemented and
the agreement (to 1e-12 over a wide (x, b) grid) is part of the acceptance
suite.  φ is strictly increasing in x, strictly decreasing in b, and maps
onto (0, 1].  :func:`invert_phi` solves φ(x, b) = φ* for b in closed form.

Two empirical estimators of a walk's b are provided — they share no
machinery and are cross-reported so a defect in either shows up as
disagreement:

* :func:`estimate_b_tail` fits the half-excursion duration-tail constants
  C± in P(τ± > n) ≈ C±·n^(-1/2) and returns b̂ = C⁺/C⁻;
* :func:`estimate_b_q` estimates q = P(W_n < 0) from excursion pairs and
  inverts the closed form, b̂ = invert_phi(q̂, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .errors import InsufficientTail, OutOfDomain, Unattainable
from .increments import IncrementDistribution
# trial_keys is never called here: the benchmark's tracer wraps it by this name
from .rng import RandomStream, trial_keys, uniform_at
from .walk import _real, _slope


def _b(b) -> float:
    """b as a float, refused with :class:`OutOfDomain` unless b > 0 and b²
    is finite (below 2^512): ψ̄ is formed from b²."""
    return _real("b", b, OutOfDomain, 0, 2.0 ** 512)


def psi_bar_of(b: float) -> float:
    """ψ̄ = (b² - 1)/(b² + 1) ∈ (-1, 1)."""
    b = _b(b)
    return (b * b - 1.0) / (b * b + 1.0)


def kappa_of(x: float, b: float) -> float:
    """κ(x, b) = (√(1-x)·b - √(1+x)) / (√(1-x)·b + √(1+x)) ∈ (-1, 1)."""
    x, b = float(_slope(x)), _b(b)
    u = math.sqrt(1.0 - x) * b
    v = math.sqrt(1.0 + x)
    return (u - v) / (u + v)


def phi(x: float, b: float) -> float:
    """Persistence exponent via the arccos form (primary definition)."""
    x = float(_slope(x))
    psi = psi_bar_of(b)
    w = (psi - x) / (1.0 - psi * x)
    return math.acos(max(-1.0, min(1.0, w))) / math.pi


def phi_arctan(x: float, b: float) -> float:
    """The same exponent via 1/2 - (2/π)·arctan κ(x, b) (consistency route)."""
    return 0.5 - 2.0 * math.atan(kappa_of(x, b)) / math.pi


def invert_phi(phi_target: float, x: float) -> float:
    """The b > 0 with phi(x, b) = phi_target, or :class:`Unattainable`."""
    phi_target = _real("phi", phi_target, Unattainable, 0, 1)
    x = float(_slope(x))
    w = math.cos(math.pi * phi_target)
    psi = (w + x) / (1.0 + w * x)
    if not -1.0 < psi < 1.0:
        raise Unattainable(f"phi={phi_target} unattainable at x={x} (psi_bar={psi})")
    return math.sqrt((1.0 + psi) / (1.0 - psi))


@dataclass(frozen=True)
class AsymmetryModel:
    """The (x, b) → (κ, ψ̄, φ) bundle for reporting."""

    x: float
    b: float
    kappa: float
    psi_bar: float
    phi: float


def model(x: float, b: float) -> AsymmetryModel:
    return AsymmetryModel(x=float(_slope(x)), b=_b(b), kappa=kappa_of(x, b),
                          psi_bar=psi_bar_of(b), phi=phi(x, b))


# ---------------------------------------------------------------------------
# empirical estimation of b
# ---------------------------------------------------------------------------

@dataclass
class AsymmetryEstimate:
    """b̂ with its method tag, bootstrap/propagated stderr and diagnostics."""

    b_hat: float
    method: str  # 'tail-ratio' | 'q-inversion'
    stderr: float
    diagnostics: dict = field(default_factory=dict)


_TAIL_WINDOW = (0.90, 0.999)  # fit window of the tail estimator, as quantiles
_TAIL_GRID_POINTS = 12         # log-spaced grid points over the window
_TAIL_BOOTSTRAP = 200          # pair-bootstrap resamples for the stderr
_MIN_TAIL = 100                # stretches of each sign the window must hold


def _fixed_slope_constant(durations: np.ndarray, grid: np.ndarray,
                          n_excursions: int) -> float:
    """LS fit of C in P(τ > n) = C·n^(-1/2) over the grid (log scale), or
    :class:`InsufficientTail` where no duration passes a grid point."""
    n = len(durations)
    exceed = np.array([(durations > g).sum() for g in grid], dtype=np.float64)
    if not exceed.all():
        raise InsufficientTail(
            f"no stretch of a sample or bootstrap resample passes the fit grid "
            f"point {grid[exceed.argmin()]} at n_excursions={n_excursions}; "
            "increase n_excursions")
    p = exceed / n
    return float(np.exp(np.mean(np.log(p) + 0.5 * np.log(grid))))


def _tail_grid(durations: np.ndarray, cap: int) -> np.ndarray:
    lo = float(np.quantile(durations, _TAIL_WINDOW[0]))
    hi = float(np.quantile(durations, _TAIL_WINDOW[1]))
    hi = min(hi, cap / 2.0)  # keep the window inside the uncensored range
    if hi <= lo + 1:
        raise InsufficientTail(
            f"degenerate tail window [{lo:.0f}, {hi:.0f}] — need longer runs "
            "or a larger step cap")
    points = np.exp(np.linspace(np.log(lo), np.log(hi), _TAIL_GRID_POINTS))
    grid = np.unique(np.round(points).astype(np.int64))
    if len(grid) < 8:
        raise InsufficientTail(f"only {len(grid)} distinct grid points in "
                               f"[{lo:.0f}, {hi:.0f}]")
    return grid


def estimate_b_tail(dist: IncrementDistribution, n_excursions: int, seed: int, *,
                    step_cap: int = 2 ** 22) -> AsymmetryEstimate:
    """Tail-ratio estimator of b from paired half-excursion durations.

    Simulates ``n_excursions`` complete excursions, fits the n^(-1/2) tail
    constants of the positive and negative stretch durations over the
    (90th, 99.9th)-percentile window (≥ 8 of 12 log-spaced grid points) and
    returns b̂ = C⁺/C⁻.  The stderr is a pair-resampling bootstrap (200
    resamples), which keeps the within-excursion correlation of (τ⁺, τ⁻).

    Durations exceeding ``step_cap`` are right-censored: they still count as
    "> n" for every grid point (the window is clipped below the cap, so the
    fit itself never sees a censored value as finite).  Raises
    :class:`InsufficientTail` when fewer than 100 stretches of either sign
    exceed the lower window edge, or when the sample or a bootstrap resample
    has no stretch past a grid point (its constant would be 0).  The top grid
    point sits at the 99.9th percentile, so on the simple walk the estimator
    is refused at 2 000 excursions for seeds 1–8, and at 5 000 for seeds 1,
    2, 4, 6 and 8.
    """
    tau_pos, tau_neg, info = engine.collect_duration_pairs(
        dist, n_excursions, seed, step_cap=step_cap)

    grids = {}
    consts = {}
    for label, tau in (("pos", tau_pos), ("neg", tau_neg)):
        grid = _tail_grid(tau, step_cap)
        n_beyond = int((tau > grid[0]).sum())
        if n_beyond < _MIN_TAIL:
            raise InsufficientTail(
                f"{n_beyond} {label} stretches beyond the fit window "
                f"(need {_MIN_TAIL}); increase n_excursions")
        grids[label] = grid
        consts[label] = _fixed_slope_constant(tau, grid, n_excursions)

    b_hat = consts["pos"] / consts["neg"]

    # pair bootstrap over excursions, windows held fixed
    boot_stream = RandomStream(seed, stream_id=2 ** 62 + 1)
    n = len(tau_pos)
    bvals = np.empty(_TAIL_BOOTSTRAP, dtype=np.float64)
    keys = np.full(n, np.uint64(boot_stream.key), dtype=np.uint64)
    for bi in range(_TAIL_BOOTSTRAP):
        counters = np.arange(bi * n, (bi + 1) * n, dtype=np.uint64)
        idx = (uniform_at(keys, counters) * n).astype(np.int64)
        cp = _fixed_slope_constant(tau_pos[idx], grids["pos"], n_excursions)
        cm = _fixed_slope_constant(tau_neg[idx], grids["neg"], n_excursions)
        bvals[bi] = cp / cm
    stderr = float(np.std(bvals, ddof=1))

    diag = {
        "c_plus": consts["pos"],
        "c_minus": consts["neg"],
        "window_pos": (int(grids["pos"][0]), int(grids["pos"][-1])),
        "window_neg": (int(grids["neg"][0]), int(grids["neg"][-1])),
        "n_excursions": n,
        "bootstrap": _TAIL_BOOTSTRAP,
    }
    diag.update(info)
    return AsymmetryEstimate(b_hat=b_hat, method="tail-ratio", stderr=stderr,
                             diagnostics=diag)


@dataclass
class QEstimate:
    """q̂ = fraction of decided trials with W_n < 0, plus cap bookkeeping."""

    q_hat: float
    stderr: float
    n_pairs: int
    trials: int
    decided: int
    negative: int
    undecided: int
    capped_draws: int
    engine: str


def estimate_q(dist: IncrementDistribution, x, n: int, trials: int, seed: int, *,
               workers: int = 1) -> QEstimate:
    """Estimate q(n) = P(W_n < 0), W_n = Σ_{i≤n} [(1-x)τ⁺_i - (1+x)τ⁻_i].

    Each trial simulates n complete excursions (an initial negative stretch,
    possible when the first step is negative, is discarded before pairing).
    The exponent theory says q(n) → φ(x, b) as n → ∞, so q̂ at finite n
    carries an O(n^(-1/2))-flavored bias; callers wanting a drift diagnostic
    run two horizons (see :func:`estimate_b_q`).

    Durations come from the exact passage-time law for the simple walk and
    from the excursion-level duration tables (exact to the table horizon,
    √-law beyond) for any other walk; on both, W is accumulated in integers
    and a table duration is clamped at the passage cap.  A draw hitting the
    cap makes a trial *undecided* unless the sign of W is already forced,
    and undecided trials are retried at geometrically growing caps, then
    excluded (and reported) if still open.
    """
    res = engine.run_xi_trials(dist, x, n, trials, seed,
                               record_ns=(n,), workers=workers)
    decided = res.decided
    negative = res.negative_final
    q_hat = negative / decided if decided else float("nan")
    stderr = math.sqrt(q_hat * (1 - q_hat) / decided) if decided else float("nan")
    return QEstimate(q_hat=q_hat, stderr=stderr, n_pairs=n, trials=trials,
                     decided=decided, negative=negative,
                     undecided=trials - decided, capped_draws=res.capped_draws,
                     engine=res.engine)


def estimate_b_q(dist: IncrementDistribution, x, n: int, trials: int, seed: int, *,
                 workers: int = 1) -> AsymmetryEstimate:
    """q-inversion estimator: b̂ = invert_phi(q̂, x) with q̂ taken at 4n.

    Runs q̂ at horizons n and 4n (independent trial banks); the larger
    horizon provides the estimate and the difference is reported (and folded
    into the stderr) as the finite-n drift allowance.
    """
    q_short = estimate_q(dist, x, n, trials, seed, workers=workers)
    q_long = estimate_q(dist, x, 4 * n, trials, seed + 1, workers=workers)
    q_hat = q_long.q_hat
    drift = q_long.q_hat - q_short.q_hat
    b_hat = invert_phi(q_hat, x)
    # delta method: |db/dq| at q_hat, against MC error and drift jointly
    eps = 1e-6
    dbdq = (invert_phi(q_hat + eps, x) - invert_phi(q_hat - eps, x)) / (2 * eps)
    stderr = abs(dbdq) * math.hypot(q_long.stderr, drift)
    diag = {
        "q_hat": q_hat,
        "q_stderr": q_long.stderr,
        "q_hat_short": q_short.q_hat,
        "n_short": n,
        "n_long": 4 * n,
        "drift": drift,
        "undecided": (q_short.undecided, q_long.undecided),
        "capped_draws": (q_short.capped_draws, q_long.capped_draws),
        "engine": q_long.engine,
    }
    return AsymmetryEstimate(b_hat=b_hat, method="q-inversion", stderr=stderr,
                             diagnostics=diag)


def estimate_b(dist: IncrementDistribution, method: str, seed: int, *,
               n_excursions: int | None = None, x=None, n_pairs: int | None = None,
               trials: int | None = None, workers: int | None = None,
               step_cap: int | None = None) -> AsymmetryEstimate:
    """Run :func:`estimate_b_tail` for method ``"tail"`` (``n_excursions``,
    50 000 if not given, and ``step_cap``, 2^22) or :func:`estimate_b_q` for
    ``"q"`` (``x``, 0; ``n_pairs``, 250; ``trials``, 50 000; ``workers``, 1).
    An option of the other method is refused with ``ValueError``, never
    ignored."""
    options = {"tail": {"n_excursions": n_excursions, "step_cap": step_cap},
               "q": {"x": x, "n_pairs": n_pairs, "trials": trials, "workers": workers}}
    if method not in options:
        raise ValueError(f"unknown method {method!r} (expected 'tail' or 'q')")
    stray = [name for other, given in options.items() if other != method
             for name, value in given.items() if value is not None]
    if stray:
        raise ValueError(f"method {method!r} takes no {', '.join(stray)}")
    if method == "tail":
        return estimate_b_tail(dist, 50_000 if n_excursions is None else n_excursions,
                               seed, step_cap=2 ** 22 if step_cap is None else step_cap)
    return estimate_b_q(dist, 0 if x is None else x, 250 if n_pairs is None else n_pairs,
                        50_000 if trials is None else trials, seed,
                        workers=1 if workers is None else workers)
