"""Vectorized Monte Carlo trial engines.

RNG contract
------------
Trial ``i`` of a run draws exclusively from the counter stream keyed by
``(seed, trial_offset + i)``; each engine consumes stream positions in a
fixed documented order.  Results therefore depend only on (seed, trial
index), never on batching, compaction, or how trials are split across
workers — per-horizon counters merge by integer addition.  An engine
may generate positions past the point where a trial's outcome is settled
(the stepped reference draws whole blocks); those values are never used, so
no result depends on them.  An engine may also draw a trial's positions
ahead of use (the stretch loop and the ξ pair loop each draw a block of
stretches at once); the positions each trial consumes stay the ones
documented below.  In the stretch loop a trial whose first step is negative
reads positions 0–2 only.

Front door
----------
Each Monte Carlo entry point checks the sizes it takes, and ``_run`` trials
and workers, by the package's one size rule (``walk._whole``, which the
oracle, the tables, the stable sampler and the survival curves share)
before any draw or process start: a horizon (t_max, k_max, the ξ runs' n),
step_cap and n_excursions is a whole number ≥ 1, each entry of a grid
(``grid``, ``record_ns``) one in 1..horizon, run sorted and once each
(``walk._grid``), or else the run is refused with
:class:`~.errors.OutOfRange`; the survival counts also refuse an unknown
mode (``walk._is_strict``).  Both run kinds, the survival counts and the
ξ pair runs, go through ``_run``.  In order, it applies the rule to
trials and workers, refuses a seed that is not an integer (``rng._seed``,
also OutOfRange), converts x and refuses one that is no finite rational in
[0, 1) (``walk._slope``, the one conversion the oracle, the curves and the
q estimator share) or has q·(p + q) ≥ 2^63 (``_exact_ratio``, OutOfDomain),
builds the duration tables once, and runs the chunks, one per worker, on a
pool of at most one process per CPU.  The pool's initializer,
``durations.keep_tables``, hands each worker the tables, so no worker builds
them: under fork nothing is pickled, under spawn and forkserver the tables
are pickled once per process.  The walk picks the duration source: the
passage law on the simple walk, the tables on any other.  The chunk entry
points ``srw_excursion_first_violation``, ``_srw_xi_chunk`` and
``_table_xi_chunk`` stay on that path, and ``stepped_first_violation``
stays beside it: the benchmark times each as a span.

Duration sources
----------------
Both exact loops read stretch durations from one duration source, chosen
once per run: ``durations.PassageLaw`` (the exact passage law, only on the
simple walk) or ``durations.ExcursionTables`` (the duration tables of any
walk).  Each has the same members, and the loops read only those: ``name``
(the run's engine label), ``longest`` (the longest τ a draw returns),
``n_table`` (past which a flagged draw was extrapolated: a table's √-tail;
-1 on the passage law, whose cap hits always count), ``first_entries``,
``stretches`` (a block of draws from (stretch, 2, trial) uniforms: τ, its
capped and flagged draws, the entry after the block) and ``at_cap`` (the
source at a ξ cap; the tables are their own).  The engine never asks which
source it holds.

Engines
-------
Both barrier events run on one contract: a trial stops at its first
violation, at t ≥ t_max, after n_stretches crossings, or when a stretch
outgrows step_cap; the time event is (t_max, no stretch limit), the
excursion event (no horizon, 2·k_max).  Per trial the engine returns the
violation time (t_max + 1 if none) and the crossings before it
(n_stretches if none), plus the number of trials step_cap censored.

``_stretches``
    The exact stretch loop behind both events on every walk.  Under the
    carried-sign rule the sign is constant on a stretch and G moves by ±1
    per step, whatever the step law, so the first violation in a stretch is
    a two-line integer computation instead of a walk:

    * up stretch from (t₀, G₀): the margin q·G_s - p·s strictly increases,
      so only the entry point s = t₀ + 1 can violate;
    * down stretch: G_s = G₀ - (s - t₀), so violation ⇔
      s ≥ q·(G₀ + t₀)/(p + q); the earliest offender is the ceiling of that
      ratio (strict mode) or one past its floor (weak mode).

    Consumption: one uniform for the first step (``steps_from_uniforms``;
    v ≥ 0 opens a positive stretch, at height 0 for v = 0), then two per
    stretch (``_draw``), τ and the flagged draw from the duration source:
    two unit passages on the passage law, or τ and the exit entry on the
    tables.  The loop opens with ``_open``, as the ξ pair loop does: a
    negative start's stretch, from positions 1 and 2, ends it at s = 1
    (G_1 = −1 fails the barrier for every x in [0, 1)), its flag counted as
    a stretch's from t = 0.  The positive starts then run in lockstep.  A
    pass draws a block of b = max(1, ``_DRAWS`` // (2·live)) stretches per
    live trial, 2·b stream positions in one ``_draw``, and settles them at
    once: start times and heights are cumulative sums of τ, and a trial's
    stretches count (towards tstar, kstar, censored and the flagged draws)
    up to the first that ends it; the rest of its block is drawn and never
    used.  A source returns τ up to its ``longest``; every τ is clamped at
    min(t_max, step_cap) + 1, which decides what a longer τ would, and a
    stretch longer than step_cap ends its trial as a censored survivor unless the barrier
    or the horizon came first.  A block is short enough that no start time
    in it reaches 2^62, so no cumulative sum wraps, past a trial's last
    stretch too.  Products with p or q are formed only of remainders, below
    q·(p + q), or stay below the sums they split, so the loop is exact in
    int64 for every x in [0, 1) with q·(p + q) < 2^63 and horizon below
    2^62 steps, and refuses any other input with
    :class:`~.errors.OutOfDomain`.

``_stepped``
    The stepped reference the tests compare the stretch loop against; no
    run of the package takes it (``stepped_first_violation`` wraps it for
    the time event).  One vector pass advances every
    live trial by a block of min(64, max(1, trials // live)) steps, never
    past t_max, so a pass holds at most ``trials`` elements.  The block
    comes from ``_step_block``, the one block stepper, as positions, carried
    signs and crossings; the lane collector steps with it too.  The uniform at
    stream position s - 1 is the step to time s.  Within a step the
    n_stretches-th crossing ends the trial first, then the barrier, then
    the cap.  The barrier q·G_s vs p·s is tested as G_s against ⌊p·s/q⌋
    (strict) or ⌊(p·s − 1)/q⌋ (weak) in Python integers, so it is exact
    for every x in [0, 1).

``run_xi_trials``
    Excursion-pair runs for W_n = Σ (1-x)τ⁺ - (1+x)τ⁻ in one exact
    vectorised pair loop, ``_xi_pairs``, on either duration source.  W is
    carried as integers D = Σ τ⁺ - τ⁻ and S = Σ τ⁺ + τ⁻ with q·W = q·D - p·S,
    and its sign is exact for x in [0, 1) with q·(p + q) < 2^63; a larger
    q·(p + q) is refused.  A stretch is one draw from two uniforms, as in the
    stretch loop (``_draw``), with every τ clamped at the passage cap, the
    ``longest`` of ``PassageLaw(cap_exp)``, and a clamp hit flagged as
    capped.  A capped τ is a lower bound, so it leaves a trial undecided
    where it opposes the final sign; a cap retry reruns the loop on the
    undecided trials at cap_exp + 2r, on the source's ``at_cap``, and they
    get the uniforms they had in the full batch.
    Consumption: one uniform for the first step, two for a leading negative
    stretch (drawn for its exit only, never paired), both in ``_open``, the
    opening the stretch loop shares; then two per stretch; retries alike.  A
    pass of the loop draws the 4·b stream positions of a block of
    b = max(1, ``_DRAWS`` // (4·trials)) pairs per trial in one ``_draw``,
    the block draw the stretch loop uses too, every trial positive-leading:
    one ``stretches`` of the source.  A chunk's trials, and each retry's, run
    in tiles of at most ``_DRAWS`` // 4, so a pass draws at most ``_DRAWS``
    = 2^15 uniforms; neither block nor tile moves a trial's positions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import durations as dur
from .errors import OutOfDomain
from .increments import IncrementDistribution, preset, steps_from_uniforms
from .rng import _seed, trial_keys, uniform_at
from .walk import _grid, _is_strict, _ratio, _slope, _whole

_SENTINEL_STREAM = 1 << 61  # stream-id base for non-trial streams
_NO_LIMIT = 1 << 62  # no horizon, stretch count or step cap; t stays below it
_SIMPLE = preset("simple")
_PASSAGE = dur.PassageLaw()  # the simple walk's durations at the default cap
_XI_RETRIES = 3  # cap retries of the ξ pair loop
_DRAWS = 1 << 15  # uniforms a pass of either loop draws, or 2 a live trial if more
_LANES = 2048  # most walks the lane collector steps side by side


# ---------------------------------------------------------------------------
# the stepped reference (any walk, any x)
# ---------------------------------------------------------------------------

_BLOCK = 64  # most steps one vector pass advances a trial


def _step_block(dist: IncrementDistribution, keys: np.ndarray, s0: int, b: int,
                pos: np.ndarray, sgn: np.ndarray, t: int | np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's next b steps from its state (``pos``, ``sgn``) at its time
    ``t`` (a scalar or one per row), step j + 1 from stream position s0 + j:
    the position after them, and the carried signs and the crossing mask,
    shape (k, b).  Column c of the mask marks a sign change from time t + c
    to t + c + 1, a crossing at time t + c; time 0 is never one.
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
    crossed = np.empty(sgn_blk.shape, dtype=bool)
    np.not_equal(sgn_blk[:, 1:], sgn_blk[:, :-1], out=crossed[:, 1:])
    crossed[:, 0] = (sgn_blk[:, 0] != sgn) & (t != 0)
    return pos_blk[:, -1], sgn_blk, crossed


def _violating_g(p: int, q: int, s0: int, b: int, strict: bool) -> np.ndarray:
    """Largest G_s failing the barrier at s = s0 + 1 .. s0 + b.

    G is an integer, so q·G ≤ p·s ⇔ G ≤ ⌊p·s/q⌋ and q·G < p·s ⇔
    G ≤ ⌈p·s/q⌉ − 1 = ⌊(p·s − 1)/q⌋.  The products are Python integers,
    one per column, so no x makes them wrap.
    """
    r = 0 if strict else 1
    return np.array([(p * s - r) // q for s in range(s0 + 1, s0 + b + 1)],
                    dtype=np.int64)


def _stepped(dist: IncrementDistribution, x: Fraction, trials: int, seed: int,
             mode: str, trial_offset: int, t_max: int, n_stretches: int,
             step_cap: int = _NO_LIMIT) -> tuple[np.ndarray, np.ndarray, int]:
    """Both events step by step: (tstar, kstar, censored), as the first
    three outputs of :func:`_stretches`."""
    p, q = _ratio(x)
    strict = _is_strict(mode)
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    idx = np.arange(trials, dtype=np.int64)
    pos = np.zeros(trials, dtype=np.int64)
    sgn = np.ones(trials, dtype=np.int64)
    g = np.zeros(trials, dtype=np.int64)
    m = np.zeros(trials, dtype=np.int64)          # crossings seen
    stretch_len = np.zeros(trials, dtype=np.int64)
    tstar = np.full(trials, t_max + 1, dtype=np.int64)
    kstar = np.full(trials, n_stretches, dtype=np.int64)
    censored = 0

    s = 0
    while idx.size and s < t_max:
        b = min(_BLOCK, t_max - s, max(1, trials // idx.size))
        cols = np.arange(b)
        pos, sgn_blk, crossed = _step_block(dist, keys, s, b, pos, sgn, s)
        m_blk = m[:, None] + np.cumsum(crossed, axis=1)
        last = np.maximum.accumulate(np.where(crossed, cols, -1), axis=1)
        len_blk = np.where(last >= 0, cols - last, stretch_len[:, None] + cols) + 1
        g_blk = g[:, None] + np.cumsum(sgn_blk, axis=1)
        # within a step the n-th crossing ends the trial before the barrier
        # test, and the step cap counts only if neither fired
        done = m_blk >= n_stretches
        viol = g_blk <= _violating_g(p, q, s, b, strict)
        ended = done | viol | (len_blk > step_cap)
        sgn, g, m, stretch_len = (a[:, -1] for a in (sgn_blk, g_blk, m_blk, len_blk))
        stop = ended.any(axis=1)
        if stop.any():
            rows = np.flatnonzero(stop)
            j = ended[rows].argmax(axis=1)
            by_done, by_viol = done[rows, j], viol[rows, j]
            censored += int((~by_done & ~by_viol).sum())
            dead = by_viol & ~by_done
            rows, j = rows[dead], j[dead]
            tstar[idx[rows]] = s + 1 + j
            kstar[idx[rows]] = m_blk[rows, j]
            live = ~stop
            idx, keys, pos, sgn, g, m, stretch_len = (
                a[live] for a in (idx, keys, pos, sgn, g, m, stretch_len))
        s += b
    return tstar, kstar, censored


def stepped_first_violation(dist: IncrementDistribution, x: Fraction, t_max: int,
                            trials: int, seed: int, *, mode: str = "strict",
                            trial_offset: int = 0) -> np.ndarray:
    """First violation time per trial; t_max + 1 means the trial survived."""
    return _stepped(dist, x, trials, seed, mode, trial_offset, t_max, _NO_LIMIT)[0]


# ---------------------------------------------------------------------------
# the exact stretch loop (any walk)
# ---------------------------------------------------------------------------

def _exact_ratio(x: Fraction) -> tuple[int, int]:
    """(p, q) of x, refused as by ``_ratio`` and where the exact loops'
    int64 products could wrap: they form p·b₀ with b₀ < q and q·a₀ with
    a₀ < p + q, both below q·(p + q)."""
    p, q = _ratio(x)
    if q * (p + q) >= 1 << 63:
        raise OutOfDomain(f"x={x}: q·(p+q) ≥ 2^63 is beyond the Monte Carlo "
                          "loops' exact int64 arithmetic; the rational DP "
                          "(oracle-dp) takes it")
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


def _draw(source, keys, at, k, up, entry):
    """A block of k stretches per trial from stream positions at .. at + 2k - 1
    (``at`` one value for all trials or one per trial), two per stretch, as
    ``source.stretches`` draws them: τ (int64), its capped and flagged
    draws, shaped (stretch, trial), and the entry after the block.  Stretch
    0 is positive if ``up`` and entered at ``entry``."""
    u = uniform_at(keys, at + np.arange(2 * k, dtype=np.uint64)[:, None]).reshape(k, 2, -1)
    return source.stretches(u, up, entry)


def _open(dist: IncrementDistribution, source: dur.PassageLaw | dur.ExcursionTables,
          keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every trial's first step, from stream position 0, and for the trials it
    takes below zero their leading negative stretch, from positions 1 and 2:
    the mask of those trials, every trial's entry into its first positive
    stretch and the flagged draws of the negative stretches."""
    first = steps_from_uniforms(dist, uniform_at(keys, np.zeros(keys.size, np.uint64)))
    entry = source.first_entries(first)
    down = first < 0
    _, _, flag, entry[down] = _draw(source, keys[down], 1, 1, False, entry[down])
    return down, entry, flag[0]


def _stretches(dist: IncrementDistribution, x: Fraction, trials: int, seed: int,
               mode: str, trial_offset: int, t_max: int, n_stretches: int, *,
               source: dur.PassageLaw | dur.ExcursionTables = _PASSAGE,
               step_cap: int = _NO_LIMIT) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Both events on a duration source, the passage law or the tables of
    ``dist``: (tstar, kstar, censored) as in the module docstring, and the
    flagged draws: the passage cap hits, or the √-tail draws that could end
    before t_max.  The horizon t_max is at least 1.

    ``_open`` settles the negative starts.  A pass then settles a block of
    b = max(1, _DRAWS // (2·live)) stretches per live trial, drawn by one
    ``_draw``; a trial's stretches count up to the first that ends it."""
    p, q = _exact_ratio(x)
    strict = _is_strict(mode)
    longest = min(step_cap, source.longest)
    reach = min(t_max + 1, n_stretches * (longest + 1))
    if reach >= _NO_LIMIT:  # bounds every t
        raise OutOfDomain("a horizon of 2^62 steps is beyond the stretch loop's "
                          "exact int64 arithmetic")
    # a τ of ``clamp`` steps ends its trial past t_max or the cap, as any
    # longer τ would; in a block of at most ``block_cap`` stretches no start
    # time reaches 2^62, past a trial's last stretch too, so G + t never wraps
    clamp = min(t_max, longest) + 1
    block_cap = 1 + (_NO_LIMIT - reach) // clamp
    tstar = np.full(trials, t_max + 1, dtype=np.int64)
    kstar = np.full(trials, n_stretches, dtype=np.int64)
    if n_stretches < 1:
        return tstar, kstar, 0, 0
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    down, entry, flag = _open(dist, source, keys)
    tstar[down], kstar[down] = 1, 0  # G_1 = -1 fails the barrier at s = 1
    flag &= 0 < t_max - source.n_table - 1  # the rule below, at start 0
    flagged = int(np.count_nonzero(flag))
    idx = np.flatnonzero(~down)
    keys, entry = keys[idx], entry[idx]
    t, g = np.zeros((2, idx.size), dtype=np.int64)
    censored = 0
    stretch = 0  # every live trial's next stretch, positive when even
    while idx.size and stretch < n_stretches:
        b = min(max(1, _DRAWS // (2 * idx.size)), n_stretches - stretch, block_cap)
        tau, _, flag, entry = _draw(source, keys, 1 + 2 * stretch, b, stretch % 2 == 0, entry)
        np.minimum(tau, clamp, out=tau)
        ups = (np.arange(stretch, stretch + b) % 2 == 0)[:, None]
        # the stretches' start times and heights, from the moves before each
        start, height = np.empty((2, b, idx.size), dtype=np.int64)
        start[0], height[0] = t, g
        np.cumsum(tau[:-1], axis=0, out=start[1:])
        start[1:] += t
        np.cumsum(np.where(ups[:-1], tau[:-1], -tau[:-1]), axis=0, out=height[1:])
        height[1:] += g
        end = start + tau
        when = np.where(ups, start + 1,
                        _down_first_violation(height, start, p, q, strict))
        dead = np.where(ups, _up_entry_violation(height, start, p, q, strict),
                        when <= np.minimum(end, t_max))
        # outgrew the cap before the horizon, barrier intact
        over = ~dead & (tau > step_cap) & (start <= t_max - step_cap)
        ends = dead | over | (end >= t_max)
        done = np.logical_or.accumulate(ends, axis=0)  # ended at stretch j or before
        ending = ends.copy()  # the stretch that ends the trial
        ending[1:] &= ~done[:-1]
        flag &= start < t_max - source.n_table - 1  # else τ > N decides nothing
        flagged += int(np.count_nonzero(flag & (ending | ~done)))  # up to the ending one
        censored += int(np.count_nonzero(over & ending))
        jk, ck = np.nonzero(dead & ending)
        tstar[idx[ck]] = when[jk, ck]
        kstar[idx[ck]] = stretch + jk
        keep = ~done[-1]
        t, g = end[-1], np.where(ups[-1], height[-1] + tau[-1], height[-1] - tau[-1])
        if not keep.all():
            idx, t, g, keys, entry = (a[keep] for a in (idx, t, g, keys, entry))
        stretch += b
    return tstar, kstar, censored, flagged


def srw_excursion_first_violation(x: Fraction, t_max: int, trials: int, seed: int, *,
                                  mode: str = "strict", trial_offset: int = 0
                                  ) -> tuple[np.ndarray, int]:
    """Exact first-violation times for the simple walk, one stretch at a
    time; t_max + 1 means the trial survived.  Also the capped draws."""
    tstar, _, _, capped_draws = _stretches(_SIMPLE, x, trials, seed, mode, trial_offset,
                                           t_max, _NO_LIMIT)
    return tstar, capped_draws


# ---------------------------------------------------------------------------
# excursion-pair runs: W_n = sum of (1-x) tau+ - (1+x) tau-
# ---------------------------------------------------------------------------

def _merged(parts: list, **fixed):
    """A record of parts' type with every field not in ``fixed`` summed over
    parts: counts from chunks of trials merge by addition."""
    return type(parts[0])(**{f.name: fixed[f.name] if f.name in fixed
                             else sum(getattr(p, f.name) for p in parts)
                             for f in fields(parts[0])})


@dataclass
class XiRunResult:
    """Counts from a batch of excursion-pair trials.

    ``alive_counts[j]`` trials had W_m >= 0 for every m <= record_ns[j];
    ``neg_counts[j]`` trials had W_{record_ns[j]} < 0 (marginal, not
    running-minimum), both from the first pass.  ``decided`` /
    ``negative_final`` summarize the sign of W_n after cap-retry resolution,
    and a capped τ still leaves ``undecided`` trials open after
    ``retries_used`` retries.  ``capped_draws`` counts the first pass's
    passage-cap hits on the simple walk and its √-tail draws on the tables
    (at the default cap every table clamp hit is also a tail draw).
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
        return _merged(parts, record_ns=parts[0].record_ns, engine=parts[0].engine,
                       retries_used=max(p.retries_used for p in parts))


def _w_negative(d, s, p, q):
    """W < 0 for q·W = q·D - p·S, i.e. D < ⌈p·S/q⌉; with S = s₁q + s₀ that
    bound is p·s₁ + ⌈p·s₀/q⌉, where p·s₁ < S and p·s₀ < p·q."""
    if p == 0:
        return d < 0
    s1, s0 = np.divmod(s, q)
    return d < p * s1 - (-(p * s0) // q)


def _xi_pairs(dist: IncrementDistribution, source: dur.PassageLaw | dur.ExcursionTables,
              keys: np.ndarray, n_pairs: int, p: int, q: int, cap: int,
              record_ns: tuple[int, ...] = ()
              ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Exact W_m for m = 1 .. n_pairs on a duration source, one trial per
    key, every τ clamped at ``cap``: the final sign mask, the mask of trials
    whose final sign a capped τ leaves undecided, the number of flagged
    draws and, per n in ``record_ns``, the counts of trials with W_m ≥ 0
    for every m ≤ n and of those with W_n < 0.

    ``_open`` takes the first step and a leading negative stretch's exit.  A
    pass then takes a block of b = max(1, _DRAWS // (4·trials)) pairs: one
    ``_draw`` reads every trial's 4·b uniforms in one call, shaped (stretch,
    uniform, trial) so that each row over the trials is contiguous, and
    takes the block's 2·b stretches, every trial positive-leading.  W is
    then updated pair by pair."""
    down, entry, _ = _open(dist, source, keys)
    at = np.where(down, 3, 1).astype(np.uint64)  # past the leading negative stretch
    d, s = np.zeros((2, keys.size), dtype=np.int64)  # Σ τ⁺ - τ⁻ and Σ τ⁺ + τ⁻
    cap_pos, cap_neg = np.zeros((2, keys.size), dtype=bool)
    alive = np.ones(keys.size, dtype=bool)
    counts = np.zeros((2, len(record_ns)), dtype=np.int64)
    counted = 0
    block = max(1, _DRAWS // (4 * max(1, keys.size)))
    for m0 in range(0, n_pairs, block):
        b = min(block, n_pairs - m0)
        tau, capped, flag, entry = _draw(source, keys, at + 4 * m0, 2 * b, True, entry)
        counted += int(np.count_nonzero(flag))
        capped |= tau > cap
        np.minimum(tau, cap, out=tau)
        tau, capped = tau.reshape(b, 2, -1), capped.reshape(b, 2, -1)
        for i in range(b):
            (tp, tm), (cp, cm) = tau[i], capped[i]
            d += tp - tm
            s += tp + tm
            cap_pos |= cp
            cap_neg |= cm
            neg = _w_negative(d, s, p, q)
            alive &= ~neg
            if m0 + i + 1 in record_ns:
                counts[:, record_ns.index(m0 + i + 1)] = alive.sum(), neg.sum()
    # a capped τ is a lower bound, so a final sign it opposes is undecided
    return neg, (neg & cap_pos) | (~neg & cap_neg), counted, counts


def _xi_chunk(dist: IncrementDistribution, source: dur.PassageLaw | dur.ExcursionTables,
              x: Fraction, n_pairs: int, trials: int, seed: int,
              record_ns: tuple[int, ...], trial_offset: int,
              cap_exp: int = dur.DEFAULT_PASSAGE_CAP_EXP) -> XiRunResult:
    """The pair loop on one chunk of trials on a duration source, the
    passage law or the tables of ``dist``, then the cap retries: run r
    draws from ``source.at_cap(cap_exp + 2r)`` and clamps every τ at that
    passage law's longest, on the undecided trials of the runs before it,
    with the uniforms they had before.  Each run goes over tiles of at most
    _DRAWS // 4 trials, so that no pass draws more than _DRAWS uniforms."""
    p, q = _exact_ratio(x)
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    tile = _DRAWS // 4

    def tiled(keys, cap_exp, record_ns=()):
        at_cap, cap = source.at_cap(cap_exp), dur.PassageLaw(cap_exp).longest
        parts = [_xi_pairs(dist, at_cap, keys[i:i + tile], n_pairs, p, q, cap, record_ns)
                 for i in range(0, max(1, keys.size), tile)]
        neg, undecided, counted, counts = zip(*parts)
        return np.concatenate(neg), np.concatenate(undecided), sum(counted), sum(counts)

    neg, undecided, counted, (alive_counts, neg_counts) = tiled(keys, cap_exp, record_ns)
    retries = 0
    while undecided.any() and retries < _XI_RETRIES:
        retries += 1
        rows = np.flatnonzero(undecided)
        neg[rows], undecided[rows], _, _ = tiled(keys[rows], cap_exp + 2 * retries)
    decided = ~undecided
    return XiRunResult(
        record_ns=record_ns, trials=trials, alive_counts=alive_counts,
        neg_counts=neg_counts, decided=int(decided.sum()),
        negative_final=int((neg & decided).sum()), undecided=int(undecided.sum()),
        capped_draws=counted, retries_used=retries, engine=source.name)


def _srw_xi_chunk(x: Fraction, n_pairs: int, trials: int, seed: int,
                  record_ns: tuple[int, ...], trial_offset: int) -> XiRunResult:
    return _xi_chunk(_SIMPLE, _PASSAGE, x, n_pairs, trials, seed, record_ns,
                     trial_offset)


def _table_xi_chunk(dist: IncrementDistribution, x: Fraction, n_pairs: int,
                    trials: int, seed: int, record_ns: tuple[int, ...],
                    trial_offset: int) -> XiRunResult:
    return _xi_chunk(dist, dur.excursion_tables(dist), x, n_pairs, trials, seed,
                     record_ns, trial_offset)


def run_xi_trials(dist: IncrementDistribution, x: Fraction, n: int, trials: int,
                  seed: int, *, record_ns: tuple[int, ...] | None = None,
                  workers: int = 1) -> XiRunResult:
    """Simulate `trials` excursion-pair sequences of length n.

    Returns merged counts; bit-identical for any `workers` split.
    """
    n = _whole("n", n)
    record_ns = _grid("record_ns", (n,) if record_ns is None else record_ns, n)
    return XiRunResult.merge(_run(_xi_worker, dist, x, seed, trials, workers, n,
                                  record_ns))


def _xi_worker(args, trials, offset):
    dist, x, seed, n, record_ns = args
    if dist.is_simple:
        return _srw_xi_chunk(x, n, trials, seed, record_ns, offset)
    return _table_xi_chunk(dist, x, n, trials, seed, record_ns, offset)


# ---------------------------------------------------------------------------
# stretch-duration collection (tail-fitting inputs)
# ---------------------------------------------------------------------------

def _fill(out, got, lane, neg, length):
    """Write stretches to their lanes' next free slots while the quota has
    room: out[k, lane] holds a lane's positive (k = 0) or negative (k = 1)
    durations, got[k, lane] counts them.  ``lane`` ascends and a lane's
    stretches come in time order, so their signs alternate and half a
    stretch's rank among its lane's is its rank among those of its sign."""
    k = neg.astype(np.intp)
    slot = got[k, lane] + (np.arange(lane.size) - np.searchsorted(lane, lane)) // 2
    room = slot < out.shape[2]
    out[k[room], lane[room], slot[room]] = length[room]
    got += np.bincount(k * got.shape[1] + lane, minlength=got.size).reshape(got.shape)
    np.minimum(got, out.shape[2], out=got)


def collect_duration_pairs(dist: IncrementDistribution, n_excursions: int,
                           seed: int, *, step_cap: int = 1 << 22
                           ) -> tuple[np.ndarray, np.ndarray, dict]:
    """(tau_plus, tau_minus, info) for ~n_excursions excursions.

    For the simple walk the durations come from the exact passage law so
    the arrays are plain iid draws (cap ~2^40, flagged in info).  For other
    walks, ``_LANES`` independent walks are stepped and their alternating
    stretch durations harvested; a stretch still running once `step_cap`
    steps have elapsed (checked every 64 steps, so completed durations can
    reach step_cap + 63) is right-censored at step_cap + 1 — it still
    counts as "> n" for every grid point the tail fit uses — and the lane
    restarts fresh.  A fresh
    walk's leading negative stretch is discarded so that stretch slot i
    is always a positive-stretch / negative-stretch pair.

    A lane keeps its position, its carried sign, its time since its
    (re)start and the time of its last crossing; crossings are never at
    time 0, so ``last_cross == 0`` marks a lane that has not crossed yet.

    Each pass steps the live lanes by a block of 64·m steps, m growing as
    lanes fill their quotas (m ≤ lanes // live) but only so far that no
    live stretch can reach the cap before the block's last 64-step
    boundary, so the cap is still checked at every 64-step boundary of
    the shared stream position.  The block's crossings come out of one
    ``nonzero`` in lane-then-time order; a lane's slots are filled in that
    order, and a lane whose quotas fill before the last boundary skips the
    cap check, as it would have left the run at its own boundary.
    """
    n_excursions, step_cap = _whole("n_excursions", n_excursions), _whole("step_cap", step_cap)
    if dist.is_simple:
        ids = np.arange(n_excursions, dtype=np.uint64) + np.uint64(_SENTINEL_STREAM)
        (tau_p, tau_m), (cp, cm), _, _ = _draw(_PASSAGE, trial_keys(seed, ids), 0, 2,
                                               True, None)
        info = {"engine": _PASSAGE.name, "censored_pos": int(cp.sum()),
                "censored_neg": int(cm.sum()), "cap": _PASSAGE.longest,
                "lanes": 0, "restarts": 0}
        return tau_p, tau_m, info

    lanes = min(_LANES, n_excursions)
    quota = -(-n_excursions // lanes)
    keys = trial_keys(seed, np.arange(lanes, dtype=np.uint64)
                      + np.uint64(_SENTINEL_STREAM))
    drawn = 0  # stream positions used, the same for every lane
    lane = np.arange(lanes, dtype=np.int64)
    pos = np.zeros(lanes, dtype=np.int64)
    sgn = np.ones(lanes, dtype=np.int64)
    t = np.zeros(lanes, dtype=np.int64)
    last_cross = np.zeros(lanes, dtype=np.int64)
    out = np.zeros((2, lanes, quota), dtype=np.int64)  # positive, negative
    got = np.zeros((2, lanes), dtype=np.int64)
    restarts = 0
    censored = np.zeros(2, dtype=np.int64)

    while lane.size:
        # a pass holds at most 64·lanes elements, like the first one; it
        # ends no later than the first 64-step boundary at which a live
        # stretch could reach the cap, the only place the cap is checked
        age = int((t - last_cross).max())
        block = _BLOCK * max(1, min(lanes // lane.size,
                                    1 + (step_cap - 1 - age) // _BLOCK))
        pos, sign_blk, crossed = _step_block(dist, keys, drawn, block, pos, sgn, t)
        drawn += block
        # crossings by lane, then by time; the one in column c is at time
        # t + c and ends the stretch begun at the lane's previous crossing,
        # of the sign opposite to column c's
        row, col = np.nonzero(crossed)
        cross_t = t[row] + col
        first = np.ones(row.size, dtype=bool)
        first[1:] = row[1:] != row[:-1]
        prev = np.empty_like(cross_t)
        prev[1:] = cross_t[:-1]
        prev[first] = last_cross[row[first]]
        length = cross_t - prev
        neg = sign_blk[row, col] > 0
        keep = ~(neg & (prev == 0))  # not a lane's leading negative stretch
        # a lane whose quotas both fill before the block's last 64-step
        # boundary would have left the run there, so it skips the cap check
        inner = keep & (col < block - _BLOCK)
        _fill(out, got, lane[row[inner]], neg[inner], length[inner])
        early = (got[:, lane] >= quota).all(axis=0)
        outer = keep & ~inner
        _fill(out, got, lane[row[outer]], neg[outer], length[outer])
        np.maximum.at(last_cross, row, cross_t)
        t += block
        sgn = sign_blk[:, -1]
        # censor stretches that outgrew the cap (a censored stretch is
        # cap..cap+63 long; recorded as cap + 1) and restart their lanes
        over = ((t - last_cross) >= step_cap) & ~early
        rec = np.flatnonzero(over & ~((last_cross == 0) & (sgn < 0)))
        censored += np.bincount(sgn[rec] < 0, minlength=2)
        _fill(out, got, lane[rec], sgn[rec] < 0,
              np.full(rec.size, step_cap + 1, dtype=np.int64))
        restarts += int(over.sum())
        pos[over] = 0
        sgn[over] = 1
        t[over] = 0
        last_cross[over] = 0
        live = (got[:, lane] < quota).any(axis=0)
        lane, keys, pos, sgn, t, last_cross = (
            a[live] for a in (lane, keys, pos, sgn, t, last_cross))

    info = {"engine": "stepped-lanes", "censored_pos": int(censored[0]),
            "censored_neg": int(censored[1]), "cap": step_cap + 1,
            "lanes": lanes, "restarts": restarts}
    return out[0].ravel(), out[1].ravel(), info


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
    tail_draws: int = 0     # table tail draws that could decide an outcome

    @staticmethod
    def merge(parts: list["SurvivalCounts"]) -> "SurvivalCounts":
        return _merged(parts, grid=parts[0].grid, engine=parts[0].engine)


def _counts_from_times(times: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """survivors[j] = #{times > grid[j]} via a sorted search."""
    s = np.sort(times)
    return times.size - np.searchsorted(s, np.asarray(grid), side="right")


def _survival_worker(args, trials, offset):
    """Survivors of one chunk over the grid.  The event is set by its
    limits: (t_max, _NO_LIMIT) is the time event, (_NO_LIMIT, 2·k_max) the
    excursion event."""
    dist, x, seed, t_max, n_stretches, grid, mode, step_cap = args
    timed = n_stretches == _NO_LIMIT
    source = _PASSAGE if dist.is_simple else dur.excursion_tables(dist)
    tail = 0
    if not dist.is_simple:
        tstar, kstar, capped, tail = _stretches(dist, x, trials, seed, mode, offset,
                                                t_max, n_stretches, source=source,
                                                step_cap=step_cap)
    elif timed:  # in its own entry point, which the bench times as one span
        tstar, capped = srw_excursion_first_violation(x, t_max, trials, seed, mode=mode,
                                                      trial_offset=offset)
    else:  # the passage law ignores step_cap; its cap hits are the capped count
        tstar, kstar, _, capped = _stretches(_SIMPLE, x, trials, seed, mode, offset,
                                             t_max, n_stretches)
    # survivors: violation times past t, or at least k complete excursions
    survivors = (_counts_from_times(tstar, grid) if timed else
                 _counts_from_times(kstar // 2, tuple(k - 1 for k in grid)))
    return SurvivalCounts(grid=grid, trials=trials, survivors=survivors,
                          capped=capped, engine=source.name, tail_draws=tail)


def atilde_counts(dist: IncrementDistribution, x: Fraction, t_max: int,
                  trials: int, seed: int, grid: tuple[int, ...], *,
                  mode: str = "strict", workers: int = 1) -> SurvivalCounts:
    """Time-event survivors at each horizon of ``grid``, one in 1..t_max."""
    t_max = _whole("t_max", t_max)
    _is_strict(mode)
    return SurvivalCounts.merge(_run(_survival_worker, dist, x, seed, trials, workers,
                                     t_max, _NO_LIMIT, _grid("grid", grid, t_max),
                                     mode, _NO_LIMIT))


def a_counts(dist: IncrementDistribution, x: Fraction, k_max: int,
             trials: int, seed: int, grid: tuple[int, ...], *,
             mode: str = "weak", step_cap: int = 10 ** 9,
             workers: int = 1) -> SurvivalCounts:
    """Excursion-event survivors at each horizon of ``grid``, one in 1..k_max."""
    k_max = _whole("k_max", k_max)
    _is_strict(mode)
    grid, step_cap = _grid("grid", grid, k_max), _whole("step_cap", step_cap)
    return SurvivalCounts.merge(_run(_survival_worker, dist, x, seed, trials, workers,
                                     _NO_LIMIT, 2 * k_max, grid, mode, step_cap))


# ---------------------------------------------------------------------------
# the front door: every run of either kind, on the walk's duration source
# ---------------------------------------------------------------------------

def chunk_bounds(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (offset, count) chunks covering range(trials), one per
    worker up to one per trial, the first trials % chunks one trial longer;
    no trials make one empty chunk."""
    n = max(1, min(workers, trials))
    base, rem = divmod(trials, n)
    starts = [i * base + min(i, rem) for i in range(n + 1)]
    return [(a, b - a) for a, b in zip(starts, starts[1:])]


def _run(worker, dist: IncrementDistribution, x, seed, trials: int, workers: int,
         *args) -> list:
    """worker((dist, x, seed, *args), count, offset) over contiguous
    chunks, serial or pooled, once the checks in the module docstring pass.

    Stream keys depend only on the global trial index, so the merged
    result is independent of the chunking.
    """
    trials, workers = _whole("trials", trials), _whole("workers", workers)
    seed = _seed(seed)
    x = _slope(x)
    _exact_ratio(x)
    # built once here, and handed to each worker by its initializer
    tables = () if dist.is_simple else (dur.excursion_tables(dist),)
    args = (dist, x, seed, *args)
    bounds = chunk_bounds(trials, workers)
    if len(bounds) == 1:
        return [worker(args, cnt, off) for off, cnt in bounds]
    from concurrent.futures import ProcessPoolExecutor
    # under fork the pool starts all its processes at the first submit, so
    # it has at most one per CPU; the chunks stay one per worker
    with ProcessPoolExecutor(max_workers=min(len(bounds), os.cpu_count() or 1),
                             initializer=dur.keep_tables, initargs=tables) as ex:
        futs = [ex.submit(worker, args, cnt, off)
                for off, cnt in bounds]
        return [f.result() for f in futs]
