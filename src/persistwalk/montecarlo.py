"""Survival curves, exponent fits, and the power-skew diagnostic.

The estimation surface for both persistence events:

* time event — the running sign-sum stays above x·s for every step
  s = 1..t (strict comparison by default);
* excursion event — the same barrier holds through the 2k-th sign change
  (weak comparison by default), equivalently: the walk starts positive and
  every prefix sum W_m = Σ_{i≤m} [(1-x)τ⁺_i - (1+x)τ⁻_i] stays ≥ 0.

One simulation per trial yields a first-violation horizon; every grid
point is then served from the empirical survival function, so the grid is
free.  Counts are exact integers and merge across workers by addition.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import betaincinv, gammaln

from . import __version__, engine
from .errors import HorizonOverflow, InsufficientData, OutOfRange
from .increments import IncrementDistribution
from .rng import _seed
from .walk import _grid, _slope, _whole


def geometric_grid(h_max: int, ratio: float = 2 ** 0.25, h_min: int = 1
                   ) -> np.ndarray:
    """Sorted unique integer horizons h_min..h_max, geometric with `ratio`.

    h_max and h_min follow the size rule (:func:`~.walk._whole`): whole
    numbers with 1 ≤ h_min ≤ h_max, else :class:`OutOfRange`."""
    h_max = _whole("h_max", h_max)
    h_min = _whole("h_min", h_min, h_max)
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise OutOfRange(f"grid ratio {ratio} must be finite and exceed 1")
    if (h_max + 1) * (ratio - 1) <= 0.5:
        # a step moves h < h_max + 1/2 by at most 1/2, so every horizon is
        # hit; the loop would take ln(h_max/h_min)/(ratio - 1) steps
        return np.arange(h_min, h_max + 1, dtype=np.int64)
    vals = [h_min]
    h = float(h_min)
    while vals[-1] < h_max:
        h *= ratio
        vals.append(min(int(round(h)), h_max))
    return np.unique(np.asarray(vals, dtype=np.int64))


def clopper_pearson(k, n: int) -> tuple[np.ndarray, np.ndarray]:
    """95% binomial interval; one-sided at the boundaries.

    k = 0 gives (0, 1 - α^(1/n)) — the rule-of-three bound ≈ 3/n — and
    k = n mirrors it, so a curve of all-survivors / no-survivors still
    carries an honest interval.
    """
    alpha = 1.0 - 0.95  # 95 %; not 0.05, which differs from it in the last bit
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    lo = np.zeros(k.shape)
    hi = np.ones(k.shape)
    inner = (k > 0) & (k < n)
    lo[inner] = betaincinv(k[inner], n - k[inner] + 1, alpha / 2)
    hi[inner] = betaincinv(k[inner] + 1, n - k[inner], 1 - alpha / 2)
    lo[k == n] = alpha ** (1.0 / n)
    hi[k == 0] = 1.0 - alpha ** (1.0 / n)
    return lo, hi


@dataclass
class SurvivalCurve:
    """Empirical survival of a persistence event over a horizon grid."""

    kind: str                  # "time" or "excursion"
    horizons: np.ndarray
    survivors: np.ndarray
    trials: int
    capped: int = 0
    engine: str = ""
    tail_draws: int = 0        # table √-tail draws that could decide an outcome
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.horizons = np.asarray(self.horizons)
        self.survivors = np.asarray(self.survivors)
        if self.horizons.shape != self.survivors.shape:
            raise ValueError("horizons and survivors differ in length")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def p_hat(self) -> np.ndarray:
        return self.survivors / self.trials

    @property
    def ci(self) -> tuple[np.ndarray, np.ndarray]:
        return clopper_pearson(self.survivors, self.trials)

    @classmethod
    def from_probabilities(cls, horizons, p, trials: int, kind: str = "time",
                           **kw) -> "SurvivalCurve":
        """Curve with non-integer survivor counts (synthetic/reference use)."""
        p = np.asarray(p, dtype=np.float64)
        return cls(kind=kind, horizons=np.asarray(horizons),
                   survivors=p * trials, trials=trials, **kw)


def _curve_config(command: str, dist: IncrementDistribution, x: Fraction,
                  **kw) -> dict:
    cfg = {"command": command, "dist": dist.to_config(),
           "x": f"{x.numerator}/{x.denominator}"}
    cfg.update(kw)
    cfg["seed"] = _seed(cfg["seed"])  # a numpy seed is recorded as its int
    return cfg


def survival_atilde(dist: IncrementDistribution, x, t_max: int, trials: int,
                    seed: int, *, grid_ratio: float = 2 ** 0.25,
                    grid=None, mode: str = "strict", engine_kind: str = "auto",
                    workers: int = 1) -> SurvivalCurve:
    """Survival curve of the time event up to t_max.

    Each trial runs to its first violation (or t_max); survivors at horizon
    t are the trials with violation time > t.  The default engine advances
    whole stretches, with durations from the exact passage-time law on the
    simple walk and from the duration tables on any other walk;
    `engine_kind="stepped"` forces the step-by-step reference engine.
    """
    x, t_max = _slope(x), _whole("t_max", t_max)
    if t_max < 2:
        raise OutOfRange(f"t_max={t_max} < 2")
    counts = engine.atilde_counts(dist, x, t_max, trials, seed,
                                  geometric_grid(t_max, grid_ratio) if grid is None
                                  else grid, mode=mode, engine_kind=engine_kind,
                                  workers=workers)
    cfg = _curve_config("estimate-atilde", dist, x, t_max=t_max, trials=trials,
                        seed=seed, grid_ratio=grid_ratio, mode=mode,
                        engine=counts.engine, workers=workers)
    return SurvivalCurve(kind="time", horizons=counts.grid, survivors=counts.survivors,
                         trials=trials, capped=counts.capped,
                         engine=counts.engine, tail_draws=counts.tail_draws,
                         config=cfg)


def survival_a(dist: IncrementDistribution, x, k_max: int, trials: int,
               seed: int, *, grid_ratio: float = 2 ** 0.25, grid=None,
               mode: str = "weak", engine_kind: str = "auto",
               step_cap: int = 10 ** 9, on_cap: str = "count",
               workers: int = 1) -> SurvivalCurve:
    """Survival curve of the excursion event up to k_max excursions.

    A stretch running past `step_cap` steps, with the barrier intact up to
    one step past it, leaves the trial's outcome unknown; such trials are
    counted as survivors at every horizon (an upward bias of at most
    capped/trials) and the count is carried on the curve.  The cap applies
    to the duration tables (the default on every walk but the simple one)
    and to the stepped reference.  On the simple walk the exact passage law
    ignores it and caps a unit passage at 2^40 + 1 steps instead; `capped`
    then counts those capped draws.  `on_cap="raise"` turns any capped
    trial or draw into :class:`HorizonOverflow` instead.
    """
    x = _slope(x)
    if on_cap not in ("count", "raise"):
        raise ValueError(f"on_cap must be 'count' or 'raise', not {on_cap!r}")
    counts = engine.a_counts(dist, x, k_max, trials, seed,
                             geometric_grid(k_max, grid_ratio) if grid is None
                             else grid, mode=mode, engine_kind=engine_kind,
                             step_cap=step_cap, workers=workers)
    if counts.capped and on_cap == "raise":
        raise HorizonOverflow(
            f"{counts.capped} of {trials} trials exceeded {step_cap} steps "
            "inside one stretch")
    cfg = _curve_config("estimate-a", dist, x, k_max=k_max, trials=trials,
                        seed=seed, grid_ratio=grid_ratio, mode=mode,
                        step_cap=step_cap, engine=counts.engine,
                        workers=workers)
    return SurvivalCurve(kind="excursion", horizons=counts.grid,
                         survivors=counts.survivors, trials=trials,
                         capped=counts.capped, engine=counts.engine,
                         tail_draws=counts.tail_draws, config=cfg)


def gamma_ratio(k, phi_val: float):
    """Γ(k+1-φ) / (Γ(k+1)·Γ(1-φ)), evaluated in log space.

    The reference curve the excursion-event survival is compared against;
    behaves like k^(-φ)/Γ(1-φ) for large k.
    """
    if not 0.0 < phi_val < 1.0:
        raise OutOfRange(f"phi={phi_val} outside (0, 1)")
    k = np.asarray(k, dtype=np.float64)
    if np.any(k < 0):
        raise OutOfRange("k must be >= 0")
    out = np.exp(gammaln(k + 1 - phi_val) - gammaln(k + 1) - gammaln(1 - phi_val))
    return float(out) if out.ndim == 0 else out


@dataclass
class ExponentFit:
    slope: float
    stderr: float
    fit_range: tuple[int, int]
    r_squared: float
    n_points: int


def fit_exponent(curve: SurvivalCurve, fit_range: tuple[int, int] | None = None,
                 *, min_survivors: int = 30, min_points: int = 5) -> ExponentFit:
    """Weighted LS of log p_hat on log horizon over `fit_range`.

    Weights are inverse delta-method variances of log p̂, i.e.
    w = trials·p̂/(1-p̂) with (1-p̂) floored at 0.5/trials so an exact-1
    point cannot get infinite weight.  Points with fewer than
    `min_survivors` survivors are dropped; fewer than `min_points` usable
    points, or than two, raises :class:`InsufficientData`.  Both sizes
    follow :func:`~.walk._whole`.
    """
    min_survivors = _whole("min_survivors", min_survivors)
    need = max(_whole("min_points", min_points), 2)
    h = np.asarray(curve.horizons, dtype=np.float64)
    s = np.asarray(curve.survivors, dtype=np.float64)
    n = curve.trials
    if fit_range is None:
        fit_range = (int(h[0]), int(h[-1]))
    lo, hi = fit_range
    keep = (h >= lo) & (h <= hi) & (s >= min_survivors)
    if keep.sum() < need:
        raise InsufficientData(
            f"{int(keep.sum())} usable grid points in [{lo}, {hi}] "
            f"(need {need} with >= {min_survivors} survivors)")
    p = s[keep] / n
    xs = np.log(h[keep])
    ys = np.log(p)
    w = n * p / np.maximum(1.0 - p, 0.5 / n)
    xbar = np.average(xs, weights=w)
    ybar = np.average(ys, weights=w)
    sxx = np.sum(w * (xs - xbar) ** 2)
    slope = float(np.sum(w * (xs - xbar) * (ys - ybar)) / sxx)
    stderr = float(1.0 / math.sqrt(sxx))
    resid = ys - (ybar + slope * (xs - xbar))
    sstot = float(np.sum(w * (ys - ybar) ** 2))
    r2 = 1.0 - float(np.sum(w * resid ** 2)) / sstot if sstot > 0 else 1.0
    return ExponentFit(slope=slope, stderr=stderr, fit_range=(int(lo), int(hi)),
                       r_squared=r2, n_points=int(keep.sum()))


# ---------------------------------------------------------------------------
# power-skew diagnostic
# ---------------------------------------------------------------------------

@dataclass
class SkewDiagnostic:
    """D_n = |log P̂(W_1..W_n ≥ 0)/log n + P̂(W_n < 0)| over a grid of n.

    Both probabilities come from the same trial population, and the
    reported error propagates their (negative) covariance.  `printed_sign`
    flips the inner sign to the difference form for audit.
    """
    n_grid: tuple[int, ...]
    lhs: np.ndarray
    rhs: np.ndarray
    d: np.ndarray
    d_err: np.ndarray
    trials: int
    degenerate: bool
    printed_sign: bool
    alive_counts: np.ndarray
    neg_counts: np.ndarray


def _skew_from_counts(n_grid, alive, neg, trials, printed_sign) -> SkewDiagnostic:
    n_grid = tuple(int(v) for v in n_grid)
    alive = np.asarray(alive, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    p = alive / trials
    q = neg / trials
    logn = np.log(np.asarray(n_grid, dtype=np.float64))
    degenerate = bool((p == 0).any())
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = np.where(p == 1.0, 0.0, np.log(np.maximum(p, 1e-300)) / logn)
    lhs = np.where(p == 0.0, -np.inf, lhs)
    sign = -1.0 if printed_sign else 1.0
    d = np.abs(lhs + sign * q)
    # delta method; alive and {W_n<0} are disjoint, so cov(p̂, q̂) = -pq/N
    var = np.where(
        (p > 0) & (p < 1),
        (1 - p) / (trials * np.maximum(p, 1e-300) * logn ** 2)
        + q * (1 - q) / trials
        + sign * 2 * (-q / (trials * logn)),
        q * (1 - q) / trials)
    d_err = np.sqrt(np.maximum(var, 0.0))
    return SkewDiagnostic(n_grid=n_grid, lhs=lhs, rhs=q, d=d, d_err=d_err,
                          trials=trials, degenerate=degenerate,
                          printed_sign=printed_sign,
                          alive_counts=alive.astype(np.int64),
                          neg_counts=neg.astype(np.int64))


def skew_diagnostic(dist: IncrementDistribution, x, n_grid, trials: int,
                    seed: int, *, engine_kind: str = "auto", workers: int = 1,
                    printed_sign: bool = False) -> SkewDiagnostic:
    """Estimate the power-skew defect D_n of the walk's ξ sequence.

    Trials that start with a negative stretch have it discarded before
    pairing (the ξ sequence is a functional of the excursion durations, not
    of the event).  Raises :class:`InsufficientData` when fewer than 30
    trials keep all prefix sums nonnegative at the largest n.
    """
    n_grid = _grid("n_grid", n_grid, None)
    if n_grid[0] < 2:
        raise OutOfRange("n_grid entries must be >= 2")
    res = engine.run_xi_trials(dist, x, n_grid[-1], trials, seed, record_ns=n_grid,
                               engine_kind=engine_kind, workers=workers)
    if res.alive_counts[-1] < 30:
        raise InsufficientData(
            f"only {int(res.alive_counts[-1])} of {trials} trials survive to "
            f"n={res.record_ns[-1]} (need 30); increase trials")
    return _skew_from_counts(res.record_ns, res.alive_counts, res.neg_counts,
                             trials, printed_sign)


def skew_diagnostic_from_xi(xi: np.ndarray, n_grid, *,
                            printed_sign: bool = False) -> SkewDiagnostic:
    """Same statistic from an explicit ξ matrix (trials × n), mostly for
    synthetic sequences; degenerate inputs set the flag instead of raising."""
    xi = np.asarray(xi, dtype=np.float64)
    n_grid = sorted(int(v) for v in n_grid)
    if xi.ndim != 2 or xi.shape[1] < n_grid[-1]:
        raise OutOfRange(f"xi must be (trials, >= {n_grid[-1]})")
    w = np.cumsum(xi, axis=1)
    runmin = np.minimum.accumulate(w, axis=1)
    alive = [(runmin[:, n - 1] >= 0).sum() for n in n_grid]
    neg = [(w[:, n - 1] < 0).sum() for n in n_grid]
    return _skew_from_counts(n_grid, alive, neg, xi.shape[0], printed_sign)


# ---------------------------------------------------------------------------
# CSV emission / ingestion
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("horizon", "survivors", "trials", "p_hat", "ci_low", "ci_high")
FIT_COLUMNS = ("slope", "stderr", "r2", "fit_lo", "fit_hi")


def provenance(config: dict) -> list[str]:
    """The lines every artifact starts with, as comments in its own syntax:
    the package version and the run's full configuration as sorted JSON,
    which :func:`read_survival_csv` reads back."""
    return [f"persistwalk {__version__}",
            "config: " + json.dumps(config, sort_keys=True)]


def write_survival_csv(curve: SurvivalCurve, path, *, extra_comments=()) -> None:
    """Write the curve with its provenance as header comments."""
    lo, hi = curve.ci
    buf = io.StringIO()
    for line in [*provenance(curve.config), *extra_comments]:
        buf.write(f"# {line}\n")
    if curve.capped:
        buf.write(f"# capped_trials: {curve.capped}\n")
    if curve.tail_draws:
        buf.write(f"# tail_draws: {curve.tail_draws}\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for i, h in enumerate(curve.horizons):
        s = curve.survivors[i]
        s_txt = str(int(s)) if float(s).is_integer() else repr(float(s))
        buf.write(f"{int(h)},{s_txt},{curve.trials},"
                  f"{curve.p_hat[i]:.10g},{lo[i]:.10g},{hi[i]:.10g}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_survival_csv(path) -> SurvivalCurve:
    """Read a curve written by :func:`write_survival_csv` (or hand-made in
    the same column format); header comments are optional.  A row that
    does not start with an integer horizon, a survivor count and integer
    trials, or with a horizon below 1 or not above the row before it, trials
    below 1 or unlike the first row's, or survivors outside [0, trials] is
    :class:`InsufficientData`, naming the file and the line; so is a
    ``# config:`` comment that is not a JSON object."""
    config = {}
    horizons, survivors = [], []
    trials = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("config:"):
                    try:
                        config = json.loads(body[len("config:"):])
                    except ValueError:
                        config = None
                    if not isinstance(config, dict):
                        raise InsufficientData(f"{path}, line {lineno}: the config "
                                               "comment is not a JSON object")
                continue
            if line[0].isalpha():  # header row
                cols = [c.strip() for c in line.split(",")]
                if tuple(cols[:3]) != CSV_COLUMNS[:3]:
                    raise InsufficientData(
                        f"{path}: unrecognized columns {cols!r}")
                continue
            parts = line.split(",")
            try:
                h, s, n = int(parts[0]), float(parts[1]), int(parts[2])
            except (IndexError, ValueError):
                raise InsufficientData(f"{path}, line {lineno}: cannot read {line!r} "
                                       "as horizon,survivors,trials") from None
            trials = n if trials is None else trials
            prev = horizons[-1] if horizons else 0
            problem = (f"horizon {h} is below 1" if h < 1 else
                       f"horizon {h} is not above {prev}" if h <= prev else
                       f"trials {n} is below 1" if n < 1 else
                       f"trials {n} is not the first row's {trials}" if n != trials else
                       f"survivors {parts[1]} lie outside [0, {n}]" if not 0 <= s <= n
                       else None)
            if problem:
                raise InsufficientData(f"{path}, line {lineno}: {problem}")
            horizons.append(h)
            survivors.append(s)
    if not horizons:
        raise InsufficientData(f"{path}: no data rows")
    surv = np.asarray(survivors)
    if np.all(surv == np.round(surv)):
        surv = surv.astype(np.int64)
    kind = config.get("command", "")
    return SurvivalCurve(kind="excursion" if kind == "estimate-a" else "time",
                         horizons=np.asarray(horizons, dtype=np.int64),
                         survivors=surv, trials=trials, config=config)


def append_fit_csv(path, fit: ExponentFit) -> None:
    """Append the fit summary as comment lines, keeping the data table
    readable by :func:`read_survival_csv` unchanged."""
    with open(path, "a") as fh:
        fh.write("# fit: " + ",".join(FIT_COLUMNS) + "\n")
        fh.write(f"# fit: {fit.slope:.10g},{fit.stderr:.10g},"
                 f"{fit.r_squared:.10g},{fit.fit_range[0]},{fit.fit_range[1]}\n")
