"""Vectorized Monte Carlo trial engines.

RNG contract
------------
Trial ``i`` of a run draws exclusively from the counter stream keyed by
``(seed, trial_offset + i)``; each engine consumes stream positions in a
fixed documented order.  Results therefore depend only on (seed, trial
index), never on batching, compaction, or how trials are split across
workers — per-horizon counters merge by integer addition.  An engine
may generate positions past the point where a trial's outcome is settled
(the stepped engines draw whole blocks); those values are never used, so
no result depends on them.

Engines
-------
``stepped_*``
    The reference engines, and the only ones for step-indexed events on
    general walks.  One vector pass advances every live trial by a block of
    up to 64 steps: position, carried sign and running sign-sum for each
    column, then the earliest column that ends the trial.  The barrier
    q·G_s vs p·s is tested as G_s against ⌊p·s/q⌋ (strict) or
    ⌊(p·s − 1)/q⌋ (weak), computed per column in Python integers, so it is
    exact for every x.  The uniform at stream position s - 1 is the step
    to time s.  A pass holds at most ``trials`` elements: the block is
    min(64, trials // live), and the time event stops at t_max.

``srw_excursion_*``
    Exact fast engines for the simple walk: two wrappers round one stretch
    loop, which stops a trial at its first violation, at t ≥ t_max (time
    event) or after 2·k_max stretches (excursion event).  Stretch durations
    come from the closed-form passage law (:mod:`.durations`), and because
    the sign is constant on a stretch the sign-sum is piecewise linear in
    s, so the first barrier violation inside a stretch is a two-line
    integer computation instead of a walk:

    * up stretch from (t₀, G₀): the margin q·G_s - p·s strictly increases,
      so only the entry point s = t₀ + 1 can violate;
    * down stretch: G_s = G₀ - (s - t₀), so violation ⇔
      s ≥ q·(G₀ + t₀)/(p + q); the earliest offender is the ceiling of that
      ratio (strict mode) or one past its floor (weak mode).

    Consumption: one uniform for the first-step sign, then two per stretch.
    Products with p or q are formed only of remainders, below q·(p + q),
    or stay below the sums they split, so the engines (and the simple-walk
    ξ runs) are exact in int64 for every x with q·(p + q) < 2^63 and refuse
    any other x with :class:`~.errors.OutOfDomain`.

``run_xi_trials``
    Excursion-pair runs for W_n = Σ (1-x)τ⁺ - (1+x)τ⁻, one vectorised pair
    loop per duration source: exact durations for the simple walk (integer
    W, cap-aware decided/undecided logic), duration tables for general
    walks (float W, always decided).  A cap retry reruns the simple-walk
    loop on the undecided trials, which get the uniforms they had in the
    full batch.  Consumption: one uniform for the first step, two per
    discarded leading negative stretch, then per pair 4 uniforms (simple)
    or 2+2 (tables: duration and exit per stretch); retries alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import durations as dur
from .errors import OutOfDomain
from .increments import IncrementDistribution, steps_from_uniforms
from .rng import trial_keys, uniform_at
from .walk import _is_strict

_SENTINEL_STREAM = 1 << 61  # stream-id base for non-trial streams
_NO_LIMIT = np.iinfo(np.int64).max  # no horizon or stretch bound


# ---------------------------------------------------------------------------
# stepped engines (any dist)
# ---------------------------------------------------------------------------

_BLOCK = 64  # most steps one vector pass advances a trial


def _step_block(dist: IncrementDistribution, keys: np.ndarray, s0: int, b: int,
                pos: np.ndarray, sgn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and carried signs at times s0 + 1 .. s0 + b, shape (k, b).

    Every row continues a live trial from its state (``pos``, ``sgn``) at
    time s0; the step to time s0 + j + 1 uses stream position s0 + j.
    """
    u = uniform_at(keys[:, None], np.arange(s0, s0 + b, dtype=np.uint64))
    pos_blk = pos[:, None] + np.cumsum(steps_from_uniforms(dist, u), axis=1)
    sgn_blk = np.sign(pos_blk)
    # a zero position takes the sign before it: the previous column's, or
    # the carried sign in column 0; a run of zeros resolves one per round
    flat = sgn_blk.reshape(-1)
    zero = np.flatnonzero(flat == 0)
    while zero.size:
        prev = np.where(zero % b > 0, flat[zero - 1], sgn[zero // b])
        flat[zero] = prev
        zero = zero[prev == 0]
    return pos_blk, sgn_blk


def _violating_g(p: int, q: int, s0: int, b: int, strict: bool) -> np.ndarray:
    """Largest G_s failing the barrier at s = s0 + 1 .. s0 + b.

    G is an integer, so q·G ≤ p·s ⇔ G ≤ ⌊p·s/q⌋ and q·G < p·s ⇔
    G ≤ ⌈p·s/q⌉ − 1 = ⌊(p·s − 1)/q⌋.  The products are Python integers,
    one per column, so no x makes them wrap.
    """
    r = 0 if strict else 1
    return np.array([(p * s - r) // q for s in range(s0 + 1, s0 + b + 1)],
                    dtype=np.int64)


def stepped_first_violation(dist: IncrementDistribution, x: Fraction, t_max: int,
                            trials: int, seed: int, *, mode: str = "strict",
                            trial_offset: int = 0) -> np.ndarray:
    """First violation time per trial; t_max + 1 means the trial survived."""
    p, q = x.numerator, x.denominator
    strict = _is_strict(mode)
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    idx = np.arange(trials, dtype=np.int64)
    pos = np.zeros(trials, dtype=np.int64)
    sgn = np.ones(trials, dtype=np.int64)
    g = np.zeros(trials, dtype=np.int64)
    tstar = np.full(trials, t_max + 1, dtype=np.int64)

    s = 0
    while idx.size and s < t_max:
        # a pass holds at most `trials` elements, like the first step
        b = min(_BLOCK, t_max - s, max(1, trials // idx.size))
        pos_blk, sgn_blk = _step_block(dist, keys, s, b, pos, sgn)
        g_blk = g[:, None] + np.cumsum(sgn_blk, axis=1)
        viol = g_blk <= _violating_g(p, q, s, b, strict)
        pos, sgn, g = pos_blk[:, -1], sgn_blk[:, -1], g_blk[:, -1]
        hit = viol.any(axis=1)
        if hit.any():
            tstar[idx[hit]] = s + 1 + viol[hit].argmax(axis=1)
            live = ~hit
            idx, keys, pos, sgn, g = (a[live] for a in (idx, keys, pos, sgn, g))
        s += b
    return tstar


def stepped_a_progress(dist: IncrementDistribution, x: Fraction, k_max: int,
                       trials: int, seed: int, *, mode: str = "weak",
                       step_cap: int = 10 ** 9, trial_offset: int = 0
                       ) -> tuple[np.ndarray, int]:
    """Complete excursions survived per trial (capped at k_max), plus the
    number of trials that hit the per-stretch step cap (these are counted
    as surviving to k_max — the documented upward-bias convention)."""
    p, q = x.numerator, x.denominator
    strict = _is_strict(mode)
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    idx = np.arange(trials, dtype=np.int64)
    pos = np.zeros(trials, dtype=np.int64)
    sgn = np.ones(trials, dtype=np.int64)
    g = np.zeros(trials, dtype=np.int64)
    m = np.zeros(trials, dtype=np.int64)          # crossings seen
    stretch_len = np.zeros(trials, dtype=np.int64)
    mstar = np.zeros(trials, dtype=np.int64)
    capped = 0

    s = 0
    while idx.size:
        b = min(_BLOCK, max(1, trials // idx.size))
        cols = np.arange(b)
        pos_blk, sgn_blk = _step_block(dist, keys, s, b, pos, sgn)
        crossed = sgn_blk != np.concatenate([sgn[:, None], sgn_blk[:, :-1]], axis=1)
        if s == 0:
            crossed[:, 0] = False  # time 0 is not an eligible crossing
        m_blk = m[:, None] + np.cumsum(crossed, axis=1)
        last = np.maximum.accumulate(np.where(crossed, cols, -1), axis=1)
        len_blk = np.where(last >= 0, cols - last, stretch_len[:, None] + cols) + 1
        g_blk = g[:, None] + np.cumsum(sgn_blk, axis=1)
        # within a step the 2k-th crossing closes the event before the
        # barrier test, and the step cap counts only if neither fired
        done = m_blk >= 2 * k_max
        viol = g_blk <= _violating_g(p, q, s, b, strict)
        ended = done | viol | (len_blk > step_cap)
        pos, sgn, g, m, stretch_len = (a[:, -1] for a in (pos_blk, sgn_blk, g_blk,
                                                          m_blk, len_blk))
        stop = ended.any(axis=1)
        if stop.any():
            rows = np.flatnonzero(stop)
            j = ended[rows].argmax(axis=1)
            by_done, by_viol = done[rows, j], viol[rows, j]
            mstar[idx[rows]] = np.where(by_viol & ~by_done, m_blk[rows, j] // 2, k_max)
            capped += int((~by_done & ~by_viol).sum())
            live = ~stop
            idx, keys, pos, sgn, g, m, stretch_len = (
                a[live] for a in (idx, keys, pos, sgn, g, m, stretch_len))
        s += b
    return mstar, capped


# ---------------------------------------------------------------------------
# exact excursion engines (simple walk)
# ---------------------------------------------------------------------------

def _exact_ratio(x: Fraction) -> tuple[int, int]:
    """(p, q) of x = p/q, refused where the exact engines' int64 products
    could wrap: they form p·b₀ with b₀ < q and q·a₀ with a₀ < p + q, both
    below q·(p + q)."""
    p, q = x.numerator, x.denominator
    if q * (p + q) >= 1 << 63:
        raise OutOfDomain(f"x={x}: q·(p+q) ≥ 2^63 is beyond exact int64 "
                          "arithmetic in the simple-walk engines")
    return p, q


def _up_entry_violation(g, t, p, q, strict):
    """q·(G + 1) vs p·(t + 1) at the first step of an up stretch.

    With t + 1 = b₁q + b₀ this is q·(G + 1 - p·b₁) vs p·b₀, decided by
    comparing G + 1 - p·b₁ with ⌊p·b₀/q⌋ (strict) or ⌈p·b₀/q⌉ (weak).
    """
    b1, b0 = np.divmod(t + 1, q)
    d = g + 1 - p * b1
    r = p * b0
    return d <= r // q if strict else d < -(-r // q)


def _down_first_violation(g, t, p, q, strict):
    """Earliest violating s on a down stretch entered from state (t, G).

    That is ⌈q·(G + t)/(p + q)⌉ (strict) or ⌊q·(G + t)/(p + q)⌋ + 1 (weak);
    with G + t = a₁(p + q) + a₀ the quotient is q·a₁ + q·a₀/(p + q).
    """
    a1, a0 = np.divmod(g + t, p + q)  # G + t ≥ 0 whenever the trial is alive
    qa0 = q * a0
    if strict:
        sstar = q * a1 - (-qa0 // (p + q))
    else:
        sstar = q * a1 + qa0 // (p + q) + 1
    return np.maximum(sstar, t + 1)


def _passage(keys, ctr, cap_exp=dur.DEFAULT_PASSAGE_CAP_EXP):
    """τ and cap flags from the uniforms at stream positions ctr, ctr + 1."""
    return dur.srw_tau_from_uniform_pairs(uniform_at(keys, ctr),
                                          uniform_at(keys, ctr + 1),
                                          cap_exp=cap_exp)


def _srw_stretches(x: Fraction, trials: int, seed: int, mode: str,
                   trial_offset: int, cap_exp: int, t_max: int,
                   n_stretches: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The exact stretch loop behind both simple-walk events.

    A trial runs stretch by stretch until its first violation, until
    t ≥ t_max, or through n_stretches stretches.  Returns per trial the
    violation time and the index of the stretch it falls in (both -1 for a
    trial that did not violate), and the number of capped passage draws.
    """
    p, q = _exact_ratio(x)
    strict = _is_strict(mode)
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    idx = np.arange(trials, dtype=np.int64)
    tstar = np.full(trials, -1, dtype=np.int64)
    kstar = np.full(trials, -1, dtype=np.int64)
    t = np.zeros(trials, dtype=np.int64)
    g = np.zeros(trials, dtype=np.int64)
    ctr = np.zeros(trials, dtype=np.uint64)

    u0 = uniform_at(keys, ctr)
    ctr += 1
    up = u0 >= 0.5  # matches the sampler's atom order (-1 below 1/2)
    capped_draws = 0
    stretch = 0
    while idx.size and stretch < n_stretches:
        tau, cap = _passage(keys, ctr, cap_exp)
        ctr += 2
        capped_draws += int(cap.sum())

        dead = np.empty(idx.shape, dtype=bool)
        when = np.empty(idx.shape, dtype=np.int64)
        dead[up] = _up_entry_violation(g[up], t[up], p, q, strict)
        when[up] = t[up] + 1
        dn = ~up
        sstar = _down_first_violation(g[dn], t[dn], p, q, strict)
        dead[dn] = sstar <= np.minimum(t[dn] + tau[dn], t_max)
        when[dn] = sstar

        rows = idx[dead]
        tstar[rows] = when[dead]
        kstar[rows] = stretch
        t = t + tau
        g = np.where(up, g + tau, g - tau)
        keep = ~dead & (t < t_max)
        if not keep.all():
            idx, t, g, keys, ctr, up = (a[keep] for a in (idx, t, g, keys, ctr, up))
        up = ~up
        stretch += 1
    return tstar, kstar, capped_draws


def srw_excursion_first_violation(x: Fraction, t_max: int, trials: int, seed: int, *,
                                  mode: str = "strict", trial_offset: int = 0,
                                  cap_exp: int = dur.DEFAULT_PASSAGE_CAP_EXP
                                  ) -> tuple[np.ndarray, int]:
    """Exact first-violation times for the simple walk, one stretch at a
    time; t_max + 1 means the trial survived."""
    tstar, kstar, capped_draws = _srw_stretches(x, trials, seed, mode, trial_offset,
                                                cap_exp, t_max, _NO_LIMIT)
    return np.where(kstar < 0, t_max + 1, tstar), capped_draws


def srw_excursion_a_progress(x: Fraction, k_max: int, trials: int, seed: int, *,
                             mode: str = "weak", trial_offset: int = 0,
                             cap_exp: int = dur.DEFAULT_PASSAGE_CAP_EXP
                             ) -> tuple[np.ndarray, int]:
    """Exact excursion-event progress for the simple walk.

    mstar[i] = number of complete excursions through which trial i kept
    q·G_s vs p·s on the right side (weak mode by default), capped at k_max.
    """
    _, kstar, capped_draws = _srw_stretches(x, trials, seed, mode, trial_offset,
                                            cap_exp, _NO_LIMIT, 2 * k_max)
    return np.where(kstar < 0, k_max, kstar // 2), capped_draws


# ---------------------------------------------------------------------------
# excursion-pair runs: W_n = sum of (1-x) tau+ - (1+x) tau-
# ---------------------------------------------------------------------------

@dataclass
class XiRunResult:
    """Counts from a batch of excursion-pair trials.

    ``alive_counts[j]`` trials had W_m >= 0 for every m <= record_ns[j];
    ``neg_counts[j]`` trials had W_{record_ns[j]} < 0 (marginal, not
    running-minimum).  ``decided`` / ``negative_final`` summarize the sign
    of W at the last recorded n after cap-retry resolution.
    """
    record_ns: tuple[int, ...]
    trials: int
    alive_counts: np.ndarray
    neg_counts: np.ndarray
    decided: int
    negative_final: int
    undecided: int
    capped_draws: int
    retries_used: int
    engine: str

    @staticmethod
    def merge(parts: list["XiRunResult"]) -> "XiRunResult":
        first = parts[0]
        return XiRunResult(
            record_ns=first.record_ns,
            trials=sum(p.trials for p in parts),
            alive_counts=np.sum([p.alive_counts for p in parts], axis=0),
            neg_counts=np.sum([p.neg_counts for p in parts], axis=0),
            decided=sum(p.decided for p in parts),
            negative_final=sum(p.negative_final for p in parts),
            undecided=sum(p.undecided for p in parts),
            capped_draws=sum(p.capped_draws for p in parts),
            retries_used=max(p.retries_used for p in parts),
            engine=first.engine,
        )


def _w_negative(d, s, p, q):
    """W < 0 for q·W = q·D - p·S, i.e. D < ⌈p·S/q⌉; with S = s₁q + s₀ that
    bound is p·s₁ + ⌈p·s₀/q⌉, where p·s₁ < S and p·s₀ < p·q."""
    s1, s0 = np.divmod(s, q)
    return d < p * s1 - (-(p * s0) // q)


class _XiRecorder:
    """alive/neg counts at the recorded n, fed the sign of W after each pair."""

    def __init__(self, record_ns: tuple[int, ...], trials: int):
        self.record_ns = tuple(sorted(record_ns))
        self.alive = np.ones(trials, dtype=bool)
        self.alive_counts = np.zeros(len(self.record_ns), dtype=np.int64)
        self.neg_counts = np.zeros_like(self.alive_counts)

    def __call__(self, m: int, neg: np.ndarray) -> None:
        self.alive &= ~neg
        for j, n in enumerate(self.record_ns):
            if n == m:
                self.alive_counts[j] = int(self.alive.sum())
                self.neg_counts[j] = int(neg.sum())

    def result(self, neg: np.ndarray, undecided: np.ndarray, capped_draws: int,
               retries: int, engine: str) -> XiRunResult:
        decided = ~undecided
        return XiRunResult(
            record_ns=self.record_ns, trials=self.alive.size,
            alive_counts=self.alive_counts, neg_counts=self.neg_counts,
            decided=int(decided.sum()),
            negative_final=int((neg & decided).sum()),
            undecided=int(undecided.sum()), capped_draws=capped_draws,
            retries_used=retries, engine=engine,
        )


def _srw_xi_pairs(keys: np.ndarray, n_pairs: int, p: int, q: int, cap_exp: int,
                  record=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact W_m of the simple walk for m = 1 .. n_pairs, one trial per key.

    Feeds W_m < 0 to ``record`` after each pair, and returns the final sign
    mask, the mask of trials whose final sign a capped duration leaves
    undecided, and the number of capped draws.
    """
    ctr = np.zeros(keys.size, dtype=np.uint64)
    down = uniform_at(keys, ctr) < 0.5
    ctr += 1
    ctr[down] += 2  # leading negative stretch is not part of any pair

    # W is carried as D = Σ τ⁺ - τ⁻ and S = Σ τ⁺ + τ⁻, q·W = q·D - p·S
    d = np.zeros(keys.size, dtype=np.int64)
    s = np.zeros(keys.size, dtype=np.int64)
    neg = np.zeros(keys.size, dtype=bool)
    cap_pos = np.zeros(keys.size, dtype=bool)
    cap_neg = np.zeros(keys.size, dtype=bool)
    capped_draws = 0
    for m in range(1, n_pairs + 1):
        tp, cp = _passage(keys, ctr, cap_exp)
        tm, cm = _passage(keys, ctr + 2, cap_exp)
        ctr += 4
        d += tp - tm
        s += tp + tm
        cap_pos |= cp
        cap_neg |= cm
        capped_draws += int(cp.sum()) + int(cm.sum())
        neg = _w_negative(d, s, p, q)
        if record is not None:
            record(m, neg)
    # A capped duration was recorded as a lower bound, so a trial's final
    # sign is only trustworthy when no cap opposes it.
    return neg, (neg & cap_pos) | (~neg & cap_neg), capped_draws


def _srw_xi_chunk(x: Fraction, n_pairs: int, trials: int, seed: int,
                  record_ns: tuple[int, ...], trial_offset: int,
                  cap_exp: int = dur.DEFAULT_PASSAGE_CAP_EXP,
                  max_retries: int = 3) -> XiRunResult:
    p, q = _exact_ratio(x)
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    rec = _XiRecorder(record_ns, trials)
    neg, undecided, capped_draws = _srw_xi_pairs(keys, n_pairs, p, q, cap_exp, rec)
    # Retry r reruns the pair loop on the undecided trials at cap_exp + 2r;
    # their streams give them the same uniforms as in the full batch.
    retries = 0
    while undecided.any() and retries < max_retries:
        retries += 1
        rows = np.flatnonzero(undecided)
        neg[rows], undecided[rows], _ = _srw_xi_pairs(keys[rows], n_pairs, p, q,
                                                      cap_exp + 2 * retries)
    return rec.result(neg, undecided, capped_draws, retries, "exact-excursion")


def _table_xi_chunk(dist: IncrementDistribution, x: Fraction, n_pairs: int,
                    trials: int, seed: int, record_ns: tuple[int, ...],
                    trial_offset: int, n_table: int = dur.DEFAULT_TABLE_SIZE
                    ) -> XiRunResult:
    tables = dur.excursion_tables(dist, n_table)
    wp = float(Fraction(1, 1) - x)
    wm = float(Fraction(1, 1) + x)
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    ctr = np.zeros(trials, dtype=np.uint64)

    u0 = uniform_at(keys, ctr)
    ctr += 1
    first = steps_from_uniforms(dist, u0)
    pos_idx = np.zeros(trials, dtype=np.int64)
    for v in dist.values():
        index = tables.pos_index if v >= 0 else tables.neg_index
        pos_idx[first == v] = index[int(v)]
    dn = first < 0
    if dn.any():
        # leading negative stretch: draw its duration and exit, discard tau
        ut = uniform_at(keys[dn], ctr[dn])
        tau0, tail0 = tables.sample_tau("neg", pos_idx[dn], ut)
        ue = uniform_at(keys[dn], ctr[dn] + 1)
        ctr[dn] += 2
        pos_idx[dn] = tables.sample_exit("neg", pos_idx[dn], tau0, tail0, ue)

    # W stays a float summed pair by pair: a √-tail τ can pass 2^63, and
    # any other summation order would change its rounding
    w = np.zeros(trials, dtype=np.float64)
    rec = _XiRecorder(record_ns, trials)
    tail_draws = 0
    for m in range(1, n_pairs + 1):
        ut = uniform_at(keys, ctr)
        tau_p, tp_tail = tables.sample_tau("pos", pos_idx, ut)
        ue = uniform_at(keys, ctr + 1)
        neg_idx = tables.sample_exit("pos", pos_idx, tau_p, tp_tail, ue)
        ut = uniform_at(keys, ctr + 2)
        tau_m, tm_tail = tables.sample_tau("neg", neg_idx, ut)
        ue = uniform_at(keys, ctr + 3)
        pos_idx = tables.sample_exit("neg", neg_idx, tau_m, tm_tail, ue)
        ctr += 4
        tail_draws += int(tp_tail.sum()) + int(tm_tail.sum())
        w += wp * tau_p - wm * tau_m
        rec(m, w < 0.0)
    return rec.result(w < 0.0, np.zeros(trials, dtype=bool), tail_draws, 0,
                      "duration-table")


def pick_engine(dist: IncrementDistribution, engine_kind: str = "auto") -> str:
    if engine_kind == "auto":
        return "exact-excursion" if dist.is_simple else "duration-table"
    if engine_kind in ("exact-excursion", "exact"):
        if not dist.is_simple:
            raise ValueError("exact excursion engine requires the simple walk")
        return "exact-excursion"
    if engine_kind in ("duration-table", "table"):
        return "duration-table"
    if engine_kind == "stepped":
        return "stepped"
    raise ValueError(f"unknown engine kind: {engine_kind!r}")


def run_xi_trials(dist: IncrementDistribution, x: Fraction, n: int, trials: int,
                  seed: int, *, record_ns: tuple[int, ...] | None = None,
                  engine_kind: str = "auto", workers: int = 1) -> XiRunResult:
    """Simulate `trials` excursion-pair sequences of length n.

    Returns merged counts; bit-identical for any `workers` split.
    """
    if n < 1:
        raise ValueError(f"n={n} < 1")
    if record_ns is None:
        record_ns = (n,)
    record_ns = tuple(sorted(set(int(r) for r in record_ns)))
    if record_ns and (record_ns[0] < 1 or record_ns[-1] > n):
        raise ValueError(f"record_ns must lie in 1..{n}")
    kind = pick_engine(dist, engine_kind)
    if kind != "exact-excursion":
        dur.excursion_tables(dist)  # build once before any fork
    args = (dist, x, n, seed, record_ns, kind)
    return XiRunResult.merge(_run_in_chunks(_xi_worker, args, trials, workers))


def _xi_worker(args, trials, offset):
    dist, x, n, seed, record_ns, kind = args
    if kind == "exact-excursion":
        return _srw_xi_chunk(x, n, trials, seed, record_ns, offset)
    return _table_xi_chunk(dist, x, n, trials, seed, record_ns, offset)


# ---------------------------------------------------------------------------
# stretch-duration collection (tail-fitting inputs)
# ---------------------------------------------------------------------------

def collect_duration_pairs(dist: IncrementDistribution, n_excursions: int,
                           seed: int, *, step_cap: int = 1 << 22,
                           lanes: int = 2048
                           ) -> tuple[np.ndarray, np.ndarray, dict]:
    """(tau_plus, tau_minus, info) for ~n_excursions excursions.

    For the simple walk the durations come from the exact passage law so
    the arrays are plain iid draws (cap ~2^40, flagged in info).  For other
    walks, `lanes` independent walks are stepped and their alternating
    stretch durations harvested; a stretch still running once `step_cap`
    steps have elapsed (checked every 64 steps, so completed durations can
    reach step_cap + 63) is right-censored at step_cap + 1 — it still
    counts as "> n" for every grid point the tail fit uses — and the lane
    restarts fresh.  A fresh
    walk's leading negative stretch is discarded so that stretch slot i
    is always a positive-stretch / negative-stretch pair.
    """
    if dist.is_simple:
        ids = np.arange(n_excursions, dtype=np.uint64) + np.uint64(_SENTINEL_STREAM)
        keys = trial_keys(seed, ids)
        z = np.zeros(n_excursions, dtype=np.uint64)
        tau_p, cp = _passage(keys, z)
        tau_m, cm = _passage(keys, z + 2)
        info = {"engine": "exact-excursion", "censored_pos": int(cp.sum()),
                "censored_neg": int(cm.sum()), "cap": (1 << 41) + 2,
                "lanes": 0, "restarts": 0}
        return tau_p, tau_m, info

    lanes = int(min(lanes, max(1, n_excursions)))
    quota = -(-n_excursions // lanes)
    keys = trial_keys(seed, np.arange(lanes, dtype=np.uint64)
                      + np.uint64(_SENTINEL_STREAM))
    drawn = 0  # stream positions used, the same for every lane
    lane = np.arange(lanes, dtype=np.int64)
    pos = np.zeros(lanes, dtype=np.int64)
    sgn = np.ones(lanes, dtype=np.int64)
    t = np.zeros(lanes, dtype=np.int64)
    last_cross = np.zeros(lanes, dtype=np.int64)
    fresh = np.ones(lanes, dtype=bool)
    first_step = np.ones(lanes, dtype=bool)
    got_p = np.zeros(lanes, dtype=np.int64)
    got_m = np.zeros(lanes, dtype=np.int64)
    out_p = np.zeros((lanes, quota), dtype=np.int64)
    out_m = np.zeros((lanes, quota), dtype=np.int64)
    restarts = 0
    censored = [0, 0]

    def _record(lanes_sel, durs, signs):
        for arr, got, mask in ((out_p, got_p, signs > 0),
                               (out_m, got_m, signs < 0)):
            sel, d = lanes_sel[mask], durs[mask]
            room = got[sel] < quota
            sel, d = sel[room], d[room]
            arr[sel, got[sel]] = d
            got[sel] += 1

    block = _BLOCK  # steps advanced per vector pass; bookkeeping is per-column
    while lane.size:
        pos_blk, sign_blk = _step_block(dist, keys, drawn, block, pos, sgn)
        drawn += block
        flips = sign_blk != np.concatenate([sgn[:, None], sign_blk[:, :-1]],
                                           axis=1)
        flips[first_step, 0] = False  # time 0 is not an eligible crossing
        first_step[:] = False
        for j in range(block):
            crossed = flips[:, j]
            if not crossed.any():
                continue
            cross_t = t[crossed] + j  # the flip is between times t+j and t+j+1
            dur_done = cross_t - last_cross[crossed]
            sign_done = (sign_blk[crossed, j - 1] if j else sgn[crossed])
            skip = fresh[crossed] & (sign_done < 0)
            _record(lane[crossed][~skip], dur_done[~skip], sign_done[~skip])
            fresh[crossed] = False
            last_cross[crossed] = cross_t
        t += block
        pos = pos_blk[:, -1]
        sgn = sign_blk[:, -1]
        # censor stretches that outgrew the cap (checked at block ends, so a
        # censored stretch is cap..cap+block long; recorded as cap + 1)
        over = (t - last_cross) >= step_cap
        if over.any():
            sign_over = sgn[over]
            drop = fresh[over] & (sign_over < 0)
            rec = ~drop
            if rec.any():
                censored[0] += int((sign_over[rec] > 0).sum())
                censored[1] += int((sign_over[rec] < 0).sum())
                _record(lane[over][rec],
                        np.full(int(rec.sum()), step_cap + 1, dtype=np.int64),
                        sign_over[rec])
            restarts += int(over.sum())
            pos[over] = 0
            sgn[over] = 1
            t[over] = 0
            last_cross[over] = 0
            fresh[over] = True
            first_step[over] = True
        done = (got_p[lane] >= quota) & (got_m[lane] >= quota)
        if done.any():
            live = ~done
            (lane, keys, pos, sgn, t, last_cross, fresh, first_step) = (
                a[live] for a in (lane, keys, pos, sgn, t, last_cross, fresh,
                                  first_step))

    info = {"engine": "stepped-lanes", "censored_pos": censored[0],
            "censored_neg": censored[1], "cap": step_cap + 1,
            "lanes": int(out_p.shape[0]), "restarts": restarts}
    return out_p.ravel(), out_m.ravel(), info


# ---------------------------------------------------------------------------
# survival-count workers (used by the montecarlo layer)
# ---------------------------------------------------------------------------

@dataclass
class SurvivalCounts:
    grid: tuple[int, ...]
    trials: int
    survivors: np.ndarray   # survivors at each grid horizon
    capped: int
    engine: str

    @staticmethod
    def merge(parts: list["SurvivalCounts"]) -> "SurvivalCounts":
        first = parts[0]
        return SurvivalCounts(
            grid=first.grid,
            trials=sum(p.trials for p in parts),
            survivors=np.sum([p.survivors for p in parts], axis=0),
            capped=sum(p.capped for p in parts),
            engine=first.engine,
        )


def _counts_from_times(times: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """survivors[j] = #{times > grid[j]} via a sorted search."""
    s = np.sort(times)
    return times.size - np.searchsorted(s, np.asarray(grid), side="right")


def _atilde_worker(args, trials, offset):
    dist, x, t_max, seed, grid, mode, kind = args
    if kind == "exact-excursion":
        tstar, capped = srw_excursion_first_violation(
            x, t_max, trials, seed, mode=mode, trial_offset=offset)
    else:
        tstar = stepped_first_violation(dist, x, t_max, trials, seed,
                                        mode=mode, trial_offset=offset)
        capped = 0
    return SurvivalCounts(grid=grid, trials=trials,
                          survivors=_counts_from_times(tstar, grid),
                          capped=capped, engine=kind)


def _a_worker(args, trials, offset):
    dist, x, k_max, seed, grid, mode, kind, step_cap = args
    if kind == "exact-excursion":
        mstar, capped = srw_excursion_a_progress(
            x, k_max, trials, seed, mode=mode, trial_offset=offset)
    else:
        mstar, capped = stepped_a_progress(dist, x, k_max, trials, seed,
                                           mode=mode, step_cap=step_cap,
                                           trial_offset=offset)
    survivors = np.array([(mstar >= k).sum() for k in grid], dtype=np.int64)
    return SurvivalCounts(grid=grid, trials=trials, survivors=survivors,
                          capped=capped, engine=kind)


def atilde_counts(dist: IncrementDistribution, x: Fraction, t_max: int,
                  trials: int, seed: int, grid: tuple[int, ...], *,
                  mode: str = "strict", engine_kind: str = "auto",
                  workers: int = 1) -> SurvivalCounts:
    kind = pick_engine(dist, engine_kind)
    if kind == "duration-table":
        kind = "stepped"  # step-indexed events need the stepped engine
    args = (dist, x, t_max, seed, tuple(grid), mode, kind)
    return SurvivalCounts.merge(_run_in_chunks(_atilde_worker, args, trials,
                                               workers))


def a_counts(dist: IncrementDistribution, x: Fraction, k_max: int,
             trials: int, seed: int, grid: tuple[int, ...], *,
             mode: str = "weak", engine_kind: str = "auto",
             step_cap: int = 10 ** 9, workers: int = 1) -> SurvivalCounts:
    kind = pick_engine(dist, engine_kind)
    if kind == "duration-table":
        kind = "stepped"
    args = (dist, x, k_max, seed, tuple(grid), mode, kind, step_cap)
    return SurvivalCounts.merge(_run_in_chunks(_a_worker, args, trials, workers))


# ---------------------------------------------------------------------------
# chunked execution
# ---------------------------------------------------------------------------

def chunk_bounds(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (offset, count) chunks covering range(trials)."""
    workers = max(1, min(workers, trials)) if trials else 1
    base, rem = divmod(trials, workers)
    bounds = []
    off = 0
    for i in range(workers):
        cnt = base + (1 if i < rem else 0)
        if cnt:
            bounds.append((off, cnt))
        off += cnt
    return bounds or [(0, 0)]


def _run_in_chunks(fn, args, trials: int, workers: int) -> list:
    """Run fn(args, count, offset) over contiguous chunks, serial or pooled.

    Stream keys depend only on the global trial index, so the merged
    result is independent of the chunking.
    """
    bounds = chunk_bounds(trials, workers)
    if len(bounds) == 1 or workers <= 1:
        return [fn(args, cnt, off) for off, cnt in bounds]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as ex:
        futs = [ex.submit(fn, args, cnt, off)
                for off, cnt in bounds]
        return [f.result() for f in futs]

