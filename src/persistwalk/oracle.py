"""Exact ground truth by dynamic programming in rational arithmetic.

Both persistence events are functions of the walk only through the tuple

    (position, carried sign, sign-sum, crossings seen)

and that is the whole DP state.  Why it suffices: the walk is Markov in
`position`; the sign of the next point needs `position` plus the carried
sign (the zero-carry rule); the barrier test at step s compares q·G_s with
p·s, so it needs the running sign-sum G_s and nothing else about how it
arose; and the excursion event additionally needs how many sign changes
have occurred, capped at 2k.  Given the current tuple, the conditional law
of every future tuple is therefore independent of the path so far, and the
events are measurable functions of the tuple trajectory — so summing exact
transition probabilities over tuples loses nothing.  This turns 2^t path
enumeration into a polynomial-size forward pass.

Probabilities are kept as integer numerators over an implicit denominator
D^s (D = lcm of the atom denominators), converted to
:class:`fractions.Fraction` only at the end; mass conservation
(alive + dead + success = 1) is asserted at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import CapExceeded, OutOfDomain
from .increments import IncrementDistribution
from .walk import _is_strict, decompose, sign_sum

DEFAULT_CAP = 2000


def _weights(dist: IncrementDistribution) -> tuple[list[tuple[int, int]], int]:
    """Atoms as (value, integer weight) over the common denominator D."""
    denom = math.lcm(*(p.denominator for _, p in dist.atoms))
    return [(int(v), int(p * denom)) for v, p in dist.atoms], denom


def exact_atilde(dist: IncrementDistribution, x, t: int, *,
                 mode: str = "strict", cap: int = DEFAULT_CAP) -> Fraction:
    """P(sign-sum stays above x·s for all s = 1..t), exactly.

    Forward DP over (position, carried sign, sign-sum); states that violate
    the barrier are dropped into a dead-mass accumulator so conservation
    can be checked at every layer.  The barrier at layer s is one integer
    threshold: q·G ≤ p·s ⇔ G ≤ ⌊p·s/q⌋ (strict), q·G < p·s ⇔
    G ≤ ⌊(p·s − 1)/q⌋ (weak).
    """
    x = Fraction(x)
    if not (0 <= x < 1):
        raise OutOfDomain(f"x={x} outside [0, 1)")
    if t < 1:
        raise OutOfDomain(f"t={t} must be >= 1")
    if t > cap:
        raise CapExceeded(f"t={t} exceeds the DP cap {cap}")
    p, q = x.numerator, x.denominator
    r = 0 if _is_strict(mode) else 1
    atoms, denom = _weights(dist)

    states: dict[tuple[int, int, int], int] = {(0, 1, 0): 1}
    dead = 0  # numerator over denom**s
    for s in range(1, t + 1):
        nxt: dict[tuple[int, int, int], int] = {}
        dead_mass = 0
        worst = (p * s - r) // q  # largest sign-sum failing the barrier
        for (pos, sign, g), m in states.items():
            for v, w in atoms:
                npos = pos + v
                nsign = 1 if npos > 0 else (-1 if npos < 0 else sign)
                ng = g + nsign
                if ng <= worst:
                    dead_mass += m * w
                else:
                    key = (npos, nsign, ng)
                    nxt[key] = nxt.get(key, 0) + m * w
        states = nxt
        dead = dead * denom + dead_mass
        alive_mass = sum(states.values())
        if alive_mass + dead != denom ** s:
            raise AssertionError(f"mass leak at layer {s}")
    total = denom ** t
    return Fraction(sum(states.values()), total)


def exact_a(dist: IncrementDistribution, x, k: int, t_cap: int, *,
            mode: str = "weak", cap: int = DEFAULT_CAP
            ) -> tuple[Fraction, Fraction]:
    """Certified bracket [lower, upper] for the k-excursion event.

    The DP runs t_cap steps tracking crossings (capped at 2k).  Mass whose
    2k-th crossing occurs by time t_cap - 1 without a prior violation is
    certain success (the violation test at the detection step concerns
    times past t_2k, so it is applied only to still-counting states); mass
    still alive and still counting at the horizon could go either way and
    widens the upper bound.  k=0 returns (1, 1): an empty condition.
    """
    x = Fraction(x)
    if not (0 <= x < 1):
        raise OutOfDomain(f"x={x} outside [0, 1)")
    if k < 0:
        raise OutOfDomain(f"k={k} must be >= 0")
    if t_cap > cap:
        raise CapExceeded(f"t_cap={t_cap} exceeds the DP cap {cap}")
    r = 0 if _is_strict(mode) else 1
    if k == 0:
        return Fraction(1), Fraction(1)
    p, q = x.numerator, x.denominator
    atoms, denom = _weights(dist)
    target = 2 * k

    states: dict[tuple[int, int, int, int], int] = {(0, 1, 0, 0): 1}
    success = dead = 0  # numerators over denom**s
    for s in range(1, t_cap + 1):
        nxt: dict[tuple[int, int, int, int], int] = {}
        dead_mass = 0
        success_mass = 0
        worst = (p * s - r) // q  # largest sign-sum failing the barrier
        for (pos, sign, g, c), m in states.items():
            for v, w in atoms:
                npos = pos + v
                nsign = 1 if npos > 0 else (-1 if npos < 0 else sign)
                nc = c + (1 if (nsign != sign and s >= 2) else 0)
                if nc >= target:
                    # crossing time s-1 completes the event; the barrier at
                    # time s is outside the required range
                    success_mass += m * w
                    continue
                ng = g + nsign
                if ng <= worst:
                    dead_mass += m * w
                else:
                    key = (npos, nsign, ng, nc)
                    nxt[key] = nxt.get(key, 0) + m * w
        states = nxt
        success = success * denom + success_mass
        dead = dead * denom + dead_mass
        alive = sum(states.values())
        if alive + dead + success != denom ** s:
            raise AssertionError(f"mass leak at layer {s}")
    total = denom ** t_cap
    return Fraction(success, total), Fraction(success + alive, total)


# ---------------------------------------------------------------------------
# exhaustive equivalence check of the excursion-sum reduction
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    """Outcome of the exhaustive barrier-vs-partial-sums comparison."""
    max_len: int
    x_values: tuple[Fraction, ...]
    cases_checked: int = 0
    counterexamples: list = field(default_factory=list)
    mode_sensitive: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def equivalence_check(max_len: int = 14,
                      x_values=(Fraction(0), Fraction(1, 4), Fraction(1, 2),
                                Fraction(3, 4))) -> EquivalenceReport:
    """Exhaustively verify, over every ±1 path of length `max_len` and every
    x in `x_values`, that the weak barrier condition through t_2k is
    equivalent to: the path starts with a positive stretch and the pair
    sums W_m = (1-x)τ_{2m-1} - (1+x)τ_{2m} have all prefixes ≥ 0 for m ≤ k.

    Also collects the paths where strict and weak modes disagree (barrier
    ties, possible when q·G_s = p·s), as evidence the two modes measure
    different events.  Counterexamples to the equivalence are returned
    verbatim, not raised.
    """
    if max_len > 16:
        raise CapExceeded(f"max_len={max_len} enumerates 2^{max_len} paths")
    report = EquivalenceReport(max_len=max_len,
                               x_values=tuple(Fraction(v) for v in x_values))
    for bits in product((-1, 1), repeat=max_len):
        path = np.concatenate([[0], np.cumsum(bits)])
        g = sign_sum(path)[1:]
        dec = decompose(path)
        times, durs = dec.crossing_times, dec.durations
        for x in report.x_values:
            p, q = x.numerator, x.denominator
            svec = np.arange(1, max_len + 1)
            weak_viol = q * g < p * svec
            strict_viol = q * g <= p * svec
            # argmax is 0-based over times 1..max_len; no violation -> sentinel
            first_weak = (int(np.argmax(weak_viol)) + 1 if weak_viol.any()
                          else max_len + 1)
            first_strict = (int(np.argmax(strict_viol)) + 1 if strict_viol.any()
                            else max_len + 1)
            if first_weak != first_strict:
                report.mode_sensitive.append((bits, x, first_strict, first_weak))
            for k in range(1, dec.complete_excursions + 1):
                barrier_ok = first_weak > times[2 * k]
                if dec.first_stretch_sign < 0:
                    sums_ok = False
                else:
                    w = 0
                    sums_ok = True
                    for m in range(k):
                        w += (q - p) * durs[2 * m] - (q + p) * durs[2 * m + 1]
                        if w < 0:
                            sums_ok = False
                            break
                report.cases_checked += 1
                if barrier_ok != sums_ok:
                    report.counterexamples.append(
                        {"steps": bits, "x": str(x), "k": k,
                         "barrier_ok": barrier_ok, "sums_ok": sums_ok})
    return report


def oracle_dp_value(dist_spec: str, x, t: int, *, k: int | None = None,
                    t_cap: int | None = None, mode: str | None = None,
                    cap: int = DEFAULT_CAP):
    """Convenience wrapper used by the command line: returns either an exact
    probability (time event) or a (lower, upper) bracket (excursion event,
    when k is given)."""
    from .increments import parse_dist_spec

    dist = parse_dist_spec(dist_spec)
    if k is None:
        return exact_atilde(dist, x, t, mode=mode or "strict", cap=cap)
    return exact_a(dist, x, k, t_cap if t_cap is not None else t,
                   mode=mode or "weak", cap=cap)
