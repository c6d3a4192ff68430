"""Path simulation, the carried sign process, and the crossing decomposition.

Conventions (fixed throughout the package):

* sgn(S_0) = +1, and when S_n = 0 the sign is carried: sgn(S_n) = sgn(S_{n-1});
* crossing times follow the recursion t_i = min{s > t_{i-1} :
  sgn(S_s)·sgn(S_{s+1}) = -1} with t_0 = 0, so s = 0 itself is never a
  crossing even when the first step is negative;
* the running sign-sum is G_s = Σ_{i≤s} sgn(S_i) (the s = 0 term excluded),
  and the barrier test compares G_s against x·s in exact integer arithmetic
  (q·G_s vs p·s for x = p/q).

A consequence of the first two rules: a path whose first step is negative
has a *negative* first stretch.  Such paths fail the barrier at s = 1 for
every x ≥ 0, so event code never needs a special case, but the ξ pairing
(positive stretch minus weighted negative stretch) is only defined from a
positive stretch onwards — :func:`xi_sequence` refuses a negative start and
estimators drop an initial negative stretch before pairing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .errors import OutOfDomain, OutOfRange
from .increments import IncrementDistribution, sample_block
from .rng import RandomStream

Path = np.ndarray  # positions S_0..S_horizon, int64, S_0 = 0


def simulate_path(dist: IncrementDistribution, horizon: int,
                  stream: RandomStream) -> Path:
    """Simulate S_0 = 0, S_n = S_{n-1} + X_n for n = 1..horizon; horizon 0
    is the one-point path, any other horizon follows :func:`_whole`."""
    horizon = 0 if horizon == 0 else _whole("horizon", horizon)
    out = np.zeros(horizon + 1, dtype=np.int64)
    if horizon:
        np.cumsum(sample_block(dist, stream, horizon), out=out[1:])
    return out


def sign_process(path: Sequence[int] | Path) -> np.ndarray:
    """Carried signs of a path: ±1 per position, zeros inherit the last sign."""
    s = np.sign(np.asarray(path, dtype=np.int64)).astype(np.int8)
    if len(s) == 0:
        raise ValueError("empty path")
    if path[0] != 0:
        raise ValueError("path must start at 0")
    s[0] = 1
    # forward-fill zeros with the most recent nonzero sign
    idx = np.where(s != 0, np.arange(len(s)), 0)
    np.maximum.accumulate(idx, out=idx)
    return s[idx]


def sign_sum(path: Sequence[int] | Path) -> np.ndarray:
    """G_s = Σ_{i≤s} sgn(S_i) for s = 0..horizon (G_0 = 0)."""
    signs = sign_process(path)
    g = np.zeros(len(signs), dtype=np.int64)
    np.cumsum(signs[1:], out=g[1:])
    return g


@dataclass
class ExcursionDecomposition:
    """Crossing times, half-excursion durations and bookkeeping for one path.

    ``crossing_times`` starts with t_0 = 0; ``durations[i]`` is
    τ_{i+1} = t_{i+1} - t_i; ``stretch_signs[i]`` is the carried sign on the
    (i+1)-th stretch (normally alternating +1, -1, ... — a negative first
    entry happens exactly when the path's first step is negative).
    ``complete_excursions`` counts full (up, down) pairs; ``residual`` is
    the time after the last crossing.  ``endpoint_values[i]`` records
    (S at t_i, S at t_i + 1), the second entry ``None`` when t_i is the last
    index of the path.
    """

    crossing_times: list[int]
    durations: list[int]
    stretch_signs: list[int]
    complete_excursions: int
    residual: int
    endpoint_values: list[tuple[int, int | None]]

    @property
    def first_stretch_sign(self) -> int | None:
        return self.stretch_signs[0] if self.stretch_signs else None


def decompose(path: Sequence[int] | Path) -> ExcursionDecomposition:
    """Crossing-time decomposition of a path under the carried-sign rule."""
    arr = np.asarray(path, dtype=np.int64)
    signs = sign_process(arr)
    horizon = len(arr) - 1
    # crossings: s >= 1 with sgn(S_s) * sgn(S_{s+1}) = -1
    flips = signs[:-1] * signs[1:] == -1
    if flips.size:
        flips[0] = False  # s = 0 excluded by the recursion (s > t_0 = 0)
    cross = np.flatnonzero(flips)  # these are the s values
    crossing_times = [0] + [int(s) for s in cross]
    durations = [int(b - a) for a, b in zip(crossing_times, crossing_times[1:])]
    stretch_signs = [int(signs[t]) for t in crossing_times[1:]]
    endpoint_values = [
        (int(arr[t]), int(arr[t + 1]) if t + 1 <= horizon else None)
        for t in crossing_times
    ]
    return ExcursionDecomposition(
        crossing_times=crossing_times,
        durations=durations,
        stretch_signs=stretch_signs,
        complete_excursions=len(durations) // 2,
        residual=horizon - crossing_times[-1],
        endpoint_values=endpoint_values,
    )


def _is_strict(mode: str) -> bool:
    """True for the strict barrier, False for the weak one; refuses any
    other mode rather than reading it as weak."""
    if mode not in ("strict", "weak"):
        raise ValueError(f"mode must be 'strict' or 'weak', not {mode!r}")
    return mode == "strict"


def _whole(name: str, value, top: int | None = None) -> int:
    """``value`` as an int, by the one size rule of the package: a whole
    number in 1..top (≥ 1 if no top), else :class:`~.errors.OutOfRange`."""
    try:
        if int(value) == value and 1 <= value <= (value if top is None else top):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf, ...
        pass
    span = ">= 1" if top is None else f"in 1..{top}"
    raise OutOfRange(f"{name}={value} must be {span} and a whole number")


def _grid(name: str, grid, top: int | None) -> tuple[int, ...]:
    """The horizons of ``grid``, by the size rule in 1..top, sorted, once each."""
    hs = tuple(sorted({_whole(f"{name}[{i}]", h, top) for i, h in enumerate(grid)}))
    if not hs:
        raise OutOfRange(f"{name} holds no horizon")
    return hs


def _real(name: str, value, error: type, lo: float, hi: float = math.inf,
          ends: str = "()") -> float:
    """``value`` as a float, by the one rule for real parameters: a real
    number (numpy scalars included) between lo and hi, the interval open or
    closed at each end as ``ends`` says (``"()"``, ``"[]"``, ``"[)"`` or
    ``"(]"``).  Anything else, nan among it, is refused with ``error`` naming
    the argument.  Every caller's interval for a scalar leaves out ±inf, so
    a scalar that passes is finite."""
    try:
        v = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int or Fraction past the float range
        v = math.nan
    if (lo < v if ends[0] == "(" else lo <= v) and (v < hi if ends[1] == ")" else v <= hi):
        return v
    raise error(f"{name}={value!r} must be a real number in {ends[0]}{lo}, {hi}{ends[1]}")


def _reals(name: str, values, error: type, lo: float, hi: float = math.inf,
           ends: str = "()") -> np.ndarray:
    """``values`` as a float array whose every entry passes :func:`_real`'s
    interval: it does when its least and greatest entries do, and a nan is
    both of them."""
    try:
        v = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):  # a string, a ragged list, ...
        raise error(f"{name}={values!r} must be real numbers") from None
    for extreme in (v.min(), v.max()) if v.size else ():
        _real(name, float(extreme), error, lo, hi, ends)
    return v


def _slope(x) -> Fraction:
    """A barrier slope x as an exact rational, the one conversion of every
    entry point: φ is built from √(1 - x), so an x that is not a finite
    rational in [0, 1) is refused with :class:`~.errors.OutOfDomain`."""
    try:
        x = Fraction(x.item() if isinstance(x, np.generic) else x)  # np.float32, ...
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):  # None, nan, inf, ...
        raise OutOfDomain(f"x={x!r} is not a finite rational") from None
    if not 0 <= x < 1:
        raise OutOfDomain(f"x={x} outside [0, 1)")
    return x


def _ratio(x) -> tuple[int, int]:
    """(p, q) of a barrier slope x = p/q, refused as by :func:`_slope`."""
    x = _slope(x)
    return x.numerator, x.denominator


def first_violation_time(path: Sequence[int] | Path, x: Fraction,
                         mode: str = "strict") -> int | float:
    """Smallest s ≥ 1 with G_s ≤ x·s (strict mode) or G_s < x·s (weak mode).

    Returns ``math.inf`` when the barrier holds along the whole path.  The
    comparison is exact: q·G_s vs p·s for x = p/q, in Python integers, since
    either product can pass 2^63 for a fine x.
    """
    p, q = _ratio(x)
    strict = _is_strict(mode)
    for s, g in enumerate(sign_sum(path)[1:].tolist(), 1):
        if (q * g <= p * s) if strict else (q * g < p * s):
            return s
    return math.inf


@dataclass
class XiSequence:
    """ξ_i = (1-x)·τ_{2i-1} - (1+x)·τ_{2i} and its running sums, exact."""

    x: Fraction
    values: list[Fraction] = field(default_factory=list)
    partial_sums: list[Fraction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.values)


def xi_sequence(dec: ExcursionDecomposition, x) -> XiSequence:
    """Pair the stretches of a decomposition into ξ values (exact rationals);
    x is converted, or refused, by :func:`_slope`."""
    x = _slope(x)
    if dec.complete_excursions < 1:
        raise ValueError("decomposition has no complete excursion")
    if dec.first_stretch_sign == -1:
        raise ValueError(
            "first stretch is negative; drop it before pairing (see module docs)")
    cp, cm = 1 - x, 1 + x
    values, sums = [], []
    run = Fraction(0)
    for i in range(dec.complete_excursions):
        xi = cp * dec.durations[2 * i] - cm * dec.durations[2 * i + 1]
        run += xi
        values.append(xi)
        sums.append(run)
    return XiSequence(x=x, values=values, partial_sums=sums)


def write_path_csv(path: Sequence[int] | Path, out: IO[str],
                   header_lines: Sequence[str] = ()) -> None:
    """Dump a path as ``step,position,sign,cumulative_sign_sum`` rows.

    The step-0 row carries sign +1 and cumulative sum 0 (the barrier sum
    starts at s = 1).  ``header_lines`` are written first as ``#`` comments.
    """
    arr = np.asarray(path, dtype=np.int64)
    signs = sign_process(arr)
    g = sign_sum(arr)
    for line in header_lines:
        out.write(f"# {line}\n")
    out.write("step,position,sign,cumulative_sign_sum\n")
    for s in range(len(arr)):
        out.write(f"{s},{arr[s]},{signs[s]},{g[s]}\n")
