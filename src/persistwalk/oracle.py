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

Packed rows.  The sign-sum is carried as the number u of plus signs
(G_s = 2u − s), so a step moves it by one slot or not at all.  The DP keeps
one row per (position, carried sign, crossings) — a dict, sparse over
positions, so an atom of 2^40 costs nothing — and a row is one Python int
whose B-bit slots hold the numerators over u = low, low + 1, ...
(Kronecker substitution), with B = bit_length(D^t) + 1:

- a step adds weight·row into the destination row, one slot up when the
  new sign is +;
- the barrier at layer s is a least surviving u, the same for every row,
  so it drops whole low slots by mask and shift, and the dead mass is the
  slot-sum of what was dropped (a log-depth fold, `_slot_sum`).

No slot ever carries into the next: every slot, and every partial sum the
step, the barrier and the fold form, is the numerator of a probability
(of disjoint path sets) at some layer s ≤ t, hence ≤ D^s < 2^B.  A carry
would change the slot-sums, so the conservation check would catch it.

Memory: on the simple walk at x = 0 and t = 1000 (B = 1002 bits, about
1000 rows of up to 500 slots, so ~60 MB per layer) the pass takes 13 s with
a peak RSS of 101 MiB on a 2-core x86-64 machine (Python 3.11).  Old rows
are popped as they move, so the peak holds about one layer, not two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import CapExceeded
from .increments import IncrementDistribution
from .walk import _is_strict, _ratio, _whole, decompose, sign_sum

DEFAULT_CAP = 2000


def _weights(dist: IncrementDistribution) -> tuple[list[tuple[int, int]], int]:
    """Atoms as (value, integer weight) over the common denominator D."""
    denom = math.lcm(*(p.denominator for _, p in dist.atoms))
    return [(int(v), int(p * denom)) for v, p in dist.atoms], denom


def _slot_sum(packed: int, width: int) -> int:
    """Sum of the `width`-bit slots of `packed`, folding the high half onto
    the low half until one slot is left (no sum may reach 2**width)."""
    n = -(-packed.bit_length() // width)
    while n > 1:
        half = (n + 1) // 2
        packed = (packed & ((1 << half * width) - 1)) + (packed >> half * width)
        n = half
    return packed


def _forward(dist: IncrementDistribution, p: int, q: int, t: int, mode: str,
             target: int | None) -> tuple[int, int, int]:
    """The forward pass of both events: (alive, success, total) numerators.

    Rows are keyed by (position, carried sign, crossings); `crossings` stays
    0 unless `target` (= 2k) is given, and a row reaching `target` moves its
    mass to success.  The packed row layout and the no-carry bound are in
    the module docstring.
    """
    r = 0 if _is_strict(mode) else 1
    atoms, denom = _weights(dist)
    width = (denom ** t).bit_length() + 1
    rows: dict[tuple[int, int, int], int] = {(0, 1, 0): 1}
    low = 0  # plus-sign count held in slot 0
    alive, dead, success, total = 1, 0, 0, 1  # numerators over denom**s
    for s in range(1, t + 1):
        nxt: dict[tuple[int, int, int], int] = {}
        won = 0
        while rows:  # popping frees each old row once it has moved
            (pos, sign, c), m = rows.popitem()
            for v, w in atoms:
                mw = m * w if w != 1 else m  # no copy for a unit weight
                npos = pos + v
                nsign = 1 if npos > 0 else (-1 if npos < 0 else sign)
                nc = c
                if target is not None and nsign != sign and s >= 2:
                    nc += 1
                    if nc >= target:
                        # crossing time s-1 completes the event; the barrier
                        # at time s is outside the required range
                        won += mw
                        continue
                key = (npos, nsign, nc)
                prev = nxt.get(key)  # a first arrival is stored, not copied
                nxt[key] = mw if prev is None else prev + mw
        # the barrier fails G ≤ ⌊(p·s − r)/q⌋ (q·G ≤ p·s strict, q·G < p·s
        # weak); lo is the fewest plus signs u whose G = 2u − s survives
        lo = ((p * s - r) // q + s) // 2 + 1
        # bits below lo, and their mask, by new sign: a + sign lifts its row
        # one slot, so one slot fewer drops (or it shifts up by one)
        cut = {}
        for sign in (1, -1):
            bits = (lo - low - (sign > 0)) * width
            cut[sign] = bits, (1 << max(bits, 0)) - 1
        lost = 0
        for key, m in nxt.items():
            bits, mask = cut[key[1]]
            if bits > 0:
                lost += m & mask
                nxt[key] = m >> bits
            elif bits < 0:
                nxt[key] = m << -bits
        rows = {key: m for key, m in nxt.items() if m}
        low = lo
        total *= denom
        dead = dead * denom + _slot_sum(lost, width)
        success = success * denom + _slot_sum(won, width)
        alive = _slot_sum(sum(rows.values()), width)
        if alive + dead + success != total:
            raise AssertionError(f"mass leak at layer {s}")
    return alive, success, total


def exact_atilde(dist: IncrementDistribution, x, t: int, *,
                 mode: str = "strict", cap: int = DEFAULT_CAP) -> Fraction:
    """P(sign-sum stays above x·s for all s = 1..t), exactly.

    One forward pass over packed rows (module docstring); mass below the
    barrier is dropped into a dead-mass accumulator so conservation can be
    checked at every layer.
    """
    p, q = _ratio(x)
    t, cap = _whole("t", t), _whole("cap", cap)
    if t > cap:
        raise CapExceeded(f"t={t} exceeds the DP cap {cap}")
    alive, _, total = _forward(dist, p, q, t, mode, None)
    return Fraction(alive, total)


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
    p, q = _ratio(x)
    k = 0 if k == 0 else _whole("k", k)
    t_cap, cap = _whole("t_cap", t_cap), _whole("cap", cap)
    if t_cap > cap:
        raise CapExceeded(f"t_cap={t_cap} exceeds the DP cap {cap}")
    _is_strict(mode)  # an unknown mode is refused for k = 0 too
    if k == 0:
        return Fraction(1), Fraction(1)
    alive, success, total = _forward(dist, p, q, t_cap, mode, 2 * k)
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


_EQUIVALENCE_X = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def equivalence_check(max_len: int = 14) -> EquivalenceReport:
    """Exhaustively verify, over every ±1 path of length `max_len` and every
    x in 0, 1/4, 1/2, 3/4, that the weak barrier condition through t_2k is
    equivalent to: the path starts with a positive stretch and the pair
    sums W_m = (1-x)τ_{2m-1} - (1+x)τ_{2m} have all prefixes ≥ 0 for m ≤ k.

    Also collects the paths where strict and weak modes disagree (barrier
    ties, possible when q·G_s = p·s), as evidence the two modes measure
    different events.  Counterexamples to the equivalence are returned
    verbatim, not raised.
    """
    max_len = _whole("max_len", max_len)
    if max_len > 16:
        raise CapExceeded(f"max_len={max_len} enumerates 2^{max_len} paths")
    report = EquivalenceReport(max_len=max_len, x_values=_EQUIVALENCE_X)
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

