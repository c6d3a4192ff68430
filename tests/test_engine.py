"""Event engines: stepped vs exact-excursion vs duration-table agreement."""

import concurrent.futures
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistwalk import durations, engine, exponent, montecarlo, oracle, walk
from persistwalk.errors import OutOfDomain, OutOfRange
from persistwalk.increments import preset, steps_from_uniforms, validate
from persistwalk.rng import trial_keys, uniform_at

SIMPLE = preset("simple")
UNIT_UP = preset("unit-up", negatives=[-2])
TG = preset("truncated-geometric", p="1/2", cutoff=3)
LAZY = validate([(-1, Fraction(1, 4)), (0, Fraction(1, 2)), (1, Fraction(1, 4))])


def test_chunk_bounds():
    for trials, workers in ((10, 3), (7, 7), (5, 16), (1, 1), (100, 4)):
        bounds = engine.chunk_bounds(trials, workers)
        covered = []
        for off, cnt in bounds:
            covered.extend(range(off, off + cnt))
        assert covered == list(range(trials))
    assert engine.chunk_bounds(0, 4) == [(0, 0)]


def test_counts_from_times_boundary():
    times = np.array([3, 5, 5, 8, 20])
    # survivors at g are the times strictly beyond g
    np.testing.assert_array_equal(
        engine._counts_from_times(times, (2, 3, 5, 8, 20)), [5, 4, 2, 1, 0])


def test_survival_counts_merge():
    a = engine.SurvivalCounts((4, 16), 10, np.array([6, 2]), 1, "stepped")
    b = engine.SurvivalCounts((4, 16), 5, np.array([3, 1]), 0, "stepped")
    m = engine.SurvivalCounts.merge([a, b])
    assert m.trials == 15 and m.capped == 1
    np.testing.assert_array_equal(m.survivors, [9, 3])


def brute_paths(dist, t_max, trials, seed, trial_offset=0):
    """Each trial's path S_0 .. S_t_max from its own stream."""
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    for key in keys:
        u = uniform_at(np.full(t_max, key, dtype=np.uint64),
                       np.arange(t_max, dtype=np.uint64))
        yield np.concatenate([[0], np.cumsum(steps_from_uniforms(dist, u))])


def brute_first_violation_times(dist, x, t_max, trials, seed, mode,
                                trial_offset=0):
    """Recompute stepped_first_violation from raw paths, trial by trial,
    with the barrier q·G_s vs p·s in Python integers."""
    p, q = x.numerator, x.denominator
    out = np.empty(trials, dtype=np.int64)
    for i, path in enumerate(brute_paths(dist, t_max, trials, seed, trial_offset)):
        g = walk.sign_sum(path)[1:].astype(object)
        s = np.arange(1, t_max + 1).astype(object)
        viol = (q * g <= p * s) if mode == "strict" else (q * g < p * s)
        hits = np.flatnonzero(viol.astype(bool))
        out[i] = hits[0] + 1 if hits.size else t_max + 1
    return out


def _carry_signs(pos, prev_sign):
    return np.where(pos > 0, 1, np.where(pos < 0, -1, prev_sign)).astype(prev_sign.dtype)


def reference_stepped_a_progress(dist, x, k_max, trials, seed, *, mode="weak",
                                 step_cap=10 ** 9, trial_offset=0):
    """The stepped loop's excursion progress (complete excursions survived,
    capped at k_max) one step per pass, as the engine ran before it advanced
    trials in blocks, with the barrier in Python integers.

    Also returns the set of (s, flags) with s a step that ended a trial
    and flags the triple (2k-th crossing, barrier, step cap) raised there.
    """
    p, q = x.numerator, x.denominator
    strict = mode == "strict"
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    idx = np.arange(trials, dtype=np.int64)
    ctr = np.zeros(trials, dtype=np.uint64)
    pos = np.zeros(trials, dtype=np.int64)
    sgn = np.ones(trials, dtype=np.int64)
    g = np.zeros(trials, dtype=np.int64)
    m = np.zeros(trials, dtype=np.int64)
    stretch_len = np.zeros(trials, dtype=np.int64)
    mstar = np.zeros(trials, dtype=np.int64)
    capped = 0
    endings = set()

    s = 0
    while idx.size:
        s += 1
        u = uniform_at(keys, ctr)
        ctr += 1
        pos += steps_from_uniforms(dist, u)
        new_sgn = _carry_signs(pos, sgn)
        crossed = new_sgn != sgn
        if s == 1:
            crossed[:] = False  # time 0 is not an eligible crossing
        sgn = new_sgn
        m += crossed
        stretch_len = np.where(crossed, 1, stretch_len + 1)
        g += sgn
        lhs = q * g.astype(object)
        barrier = np.asarray(lhs <= p * s if strict else lhs < p * s, dtype=bool)
        long = stretch_len > step_cap
        done = m >= 2 * k_max
        viol = barrier & ~done
        over = long & ~done & ~viol
        if done.any():
            mstar[idx[done]] = k_max
        if viol.any():
            mstar[idx[viol]] = m[viol] // 2
        if over.any():
            mstar[idx[over]] = k_max
            capped += int(over.sum())
        drop = done | viol | over
        if drop.any():
            endings |= {(s, f) for f in zip(done[drop].tolist(),
                                            barrier[drop].tolist(),
                                            long[drop].tolist())}
            live = ~drop
            idx, keys, ctr, pos, sgn, g, m, stretch_len = (
                a[live] for a in (idx, keys, ctr, pos, sgn, g, m, stretch_len))
    return mstar, capped, endings


@pytest.mark.parametrize("dist", [SIMPLE, UNIT_UP, TG, LAZY])
@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_stepped_engine_matches_paths(dist, x, mode):
    got = engine.stepped_first_violation(dist, x, 60, 200, 8881, mode=mode)
    want = brute_first_violation_times(dist, x, 60, 200, 8881, mode)
    np.testing.assert_array_equal(got, want)
    # 1000 steps span many blocks and are not a multiple of 64; the batch
    # sizes give blocks of 1 step, of up to 7, and of up to 64
    for trials in (1, 7, 200):
        got = engine.stepped_first_violation(dist, x, 1000, trials, 8882,
                                             mode=mode, trial_offset=13)
        want = brute_first_violation_times(dist, x, 1000, trials, 8882, mode,
                                           trial_offset=13)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dist", [SIMPLE, UNIT_UP, LAZY])
@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_stepped_time_event_counts_crossings_before_violation(dist, mode):
    t_max, trials, seed = 200, 100, 8884
    for x in (Fraction(0), Fraction(1, 2)):
        tstar, kstar, censored = engine._stepped(dist, x, trials, seed, mode, 0,
                                                 t_max, engine._NO_LIMIT)
        want = brute_first_violation_times(dist, x, t_max, trials, seed, mode)
        np.testing.assert_array_equal(tstar, want)
        assert censored == 0
        for path, v, k in zip(brute_paths(dist, t_max, trials, seed), tstar, kstar):
            crossings = walk.decompose(path).crossing_times[1:]
            assert k == (sum(c < v for c in crossings) if v <= t_max
                         else engine._NO_LIMIT)
        assert (kstar[tstar <= t_max] > 0).any() and (tstar > t_max).any()


def test_stepped_barrier_exact_for_wide_x():
    # q·G_s was formed in int64, which wraps at x = (2^60 - 1)/2^61 once
    # G_s ≥ 4: P(no violation by t = 20) read 0.0 where x = 1/2 reads 0.2095
    x = Fraction(2 ** 60 - 1, 2 ** 61)
    for mode in ("strict", "weak"):
        got = engine.stepped_first_violation(SIMPLE, x, 20, 2000, 7, mode=mode)
        want = brute_first_violation_times(SIMPLE, x, 20, 2000, 7, mode)
        np.testing.assert_array_equal(got, want)
        assert np.mean(got > 20) > 0.2
    _, kstar, capped = engine._stepped(SIMPLE, x, 300, 7, "weak", 0,
                                       engine._NO_LIMIT, 4, 64)
    want, want_capped, _ = reference_stepped_a_progress(SIMPLE, x, 2, 300, 7,
                                                        step_cap=64)
    np.testing.assert_array_equal(kstar // 2, want)
    assert capped == want_capped


@pytest.mark.parametrize("dist", [SIMPLE, UNIT_UP, TG, LAZY])
def test_stepped_a_progress_matches_step_loop(dist):
    # without a cap a trial runs to its 2k-th crossing, and stretch lengths
    # have an n^(-1/2) tail, so that case runs fewer trials
    flags, mixed = set(), False
    for step_cap, trials in ((3, 300), (64, 300), (10 ** 9, 40)):
        for x in (Fraction(0), Fraction(1, 2), Fraction(2, 3)):
            for mode in ("strict", "weak"):
                for k_max in (1, 3):
                    _, kstar, capped = engine._stepped(
                        dist, x, trials, 8883, mode, 17, engine._NO_LIMIT,
                        2 * k_max, step_cap)
                    want, want_capped, seen = reference_stepped_a_progress(
                        dist, x, k_max, trials, 8883, mode=mode,
                        step_cap=step_cap, trial_offset=17)
                    np.testing.assert_array_equal(kstar // 2, want)
                    assert capped == want_capped
                    flags |= {f for _, f in seen}
                    mixed |= len(seen) > len({s for s, _ in seen})
    # each outcome ends some trial, a barrier failure and a cap overrun
    # coincide on one step, and some step ends trials by different outcomes
    # (a 2k-th crossing is an up step, where the barrier cannot fail)
    assert {(True, False, False), (False, True, False), (False, False, True),
            (False, True, True)} <= flags
    assert mixed


@given(st.integers(0, 25), st.integers(0, 40),
       st.sampled_from([(0, 1), (1, 4), (1, 2), (2, 3), (1, 1)]),
       st.booleans())
@settings(max_examples=300)
def test_down_violation_closed_form(g, dt, xfrac, strict):
    t = g + dt  # |G| <= s, so any reachable state has g <= t
    p, q = xfrac
    want = None
    for s in range(t + 1, t + 4 * (g + t) + 10):
        m = s - t
        lhs, rhs = q * (g - m), p * s
        if (lhs <= rhs) if strict else (lhs < rhs):
            want = s
            break
    got = engine._down_first_violation(np.array([g]), np.array([t]), p, q,
                                       strict)
    assert got[0] == want


@given(st.integers(0, 25), st.integers(0, 40),
       st.sampled_from([(0, 1), (1, 4), (1, 2), (2, 3), (1, 1)]),
       st.booleans())
@settings(max_examples=200)
def test_up_entry_violation_closed_form(g, dt, xfrac, strict):
    t = g + dt
    p, q = xfrac
    lhs, rhs = q * (g + 1), p * (t + 1)
    want = (lhs <= rhs) if strict else (lhs < rhs)
    got = engine._up_entry_violation(np.array([g]), np.array([t]), p, q, strict)
    assert got[0] == want


# wide denominators the exact engines still accept: q·(p+q) < 2^63
X_WIDE = [Fraction(1, 3_037_000_000), Fraction(2 ** 30 - 1, 2 ** 31)]
# refused: q·(p+q) ≥ 2^63, where int64 products used to wrap silently
X_REFUSED = Fraction(2 ** 40 - 1, 2 ** 41)


def int_up_entry_violation(g, t, p, q, strict):
    """_up_entry_violation in Python integers."""
    lhs = q * (g.astype(object) + 1)
    rhs = p * (t.astype(object) + 1)
    return np.asarray(lhs <= rhs if strict else lhs < rhs, dtype=bool)


def int_down_first_violation(g, t, p, q, strict):
    """_down_first_violation in Python integers."""
    a = q * (g.astype(object) + t.astype(object))
    sstar = -(-a // (p + q)) if strict else a // (p + q) + 1
    return np.maximum(sstar, t.astype(object) + 1).astype(np.int64)


@given(st.integers(0, 2 ** 61), st.integers(0, 2 ** 61),
       st.sampled_from([(0, 1), (1, 2)] + [(x.numerator, x.denominator)
                                           for x in X_WIDE]),
       st.booleans())
@settings(max_examples=300)
def test_violation_closed_forms_do_not_wrap(g, dt, xfrac, strict):
    t = g + dt
    p, q = xfrac
    g, t = np.array([g]), np.array([t])
    np.testing.assert_array_equal(
        engine._up_entry_violation(g, t, p, q, strict),
        int_up_entry_violation(g, t, p, q, strict))
    np.testing.assert_array_equal(
        engine._down_first_violation(g, t, p, q, strict),
        int_down_first_violation(g, t, p, q, strict))


def test_exact_excursion_int64_range(monkeypatch):
    # at x = 1/3037000000, q·(G + t) passed 2^63 on long paths and wrapped:
    # P(m >= 200) read 0.019 instead of 0.01915 on these paths
    x = X_WIDE[0]
    args = (20_000, 5, "weak", 0, engine._NO_LIMIT, 400)
    got = engine._stretches(SIMPLE, x, *args)[1] // 2
    monkeypatch.setattr(engine, "_up_entry_violation", int_up_entry_violation)
    monkeypatch.setattr(engine, "_down_first_violation",
                        int_down_first_violation)
    want = engine._stretches(SIMPLE, x, *args)[1] // 2
    np.testing.assert_array_equal(got, want)
    monkeypatch.undo()
    with pytest.raises(OutOfDomain):
        engine._stretches(SIMPLE, X_REFUSED, *args)
    with pytest.raises(OutOfDomain):
        engine.srw_excursion_first_violation(X_REFUSED, 100, 10, seed=5)
    with pytest.raises(OutOfDomain):
        engine._srw_xi_chunk(X_REFUSED, 10, 10, 5, (10,), 0)


CAP_EXP = durations.DEFAULT_PASSAGE_CAP_EXP


def int_xi_replay(dist, source, x, n_pairs, keys, cap_exp, record_ns=()):
    """One pass of the ξ pair loop with W summed in Python integers, from the
    draws at the stream positions the engine uses, at one cap: the alive and
    negative counts at record_ns, the final sign and the undecided mask.
    τ is two unit passages (``source`` the passage law) or comes with the
    exit from the tables' sample_tau and sample_exit at the slot τ landed
    on, clamped at (4 << cap_exp) + 2."""
    tables = None if isinstance(source, durations.PassageLaw) else source
    p, q = x.numerator, x.denominator
    cap = (4 << cap_exp) + 2

    def draw(side, k, entry, ctr):
        u_tau, u_exit = uniform_at(k, ctr), uniform_at(k, ctr + 1)
        if tables is None:
            tau, capped = durations.srw_tau_from_uniform_pairs(u_tau, u_exit,
                                                               cap_exp=cap_exp)
            return tau.astype(object), capped, entry
        tau, _, slot = tables.sample_tau(side, entry, u_tau)
        nxt = tables.sample_exit(side, slot, u_exit)
        return np.array([min(int(t), cap) for t in tau], dtype=object), tau > cap, nxt

    ctr = np.zeros(keys.size, dtype=np.uint64)
    first = steps_from_uniforms(dist, uniform_at(keys, ctr))
    ctr += 1
    entry = (np.zeros(keys.size, dtype=np.int64) if tables is None
             else tables.first_entries(first))
    dn = first < 0  # the leading negative stretch only sets the next entry
    entry[dn] = draw("neg", keys[dn], entry[dn], ctr[dn])[2]
    ctr[dn] += 2
    w = np.zeros(keys.size, dtype=object)
    alive = np.ones(keys.size, dtype=bool)
    cap_pos = np.zeros(keys.size, dtype=bool)
    cap_neg = np.zeros(keys.size, dtype=bool)
    alive_counts, neg_counts = [], []
    for m in range(1, n_pairs + 1):
        tp, cp, entry = draw("pos", keys, entry, ctr)
        tm, cm, entry = draw("neg", keys, entry, ctr + 2)
        ctr += 4
        w = w + (q - p) * tp - (q + p) * tm  # q·W
        cap_pos |= cp
        cap_neg |= cm
        neg = np.asarray(w < 0, dtype=bool)
        alive &= ~neg
        if m in record_ns:
            alive_counts.append(int(alive.sum()))
            neg_counts.append(int(neg.sum()))
    return alive_counts, neg_counts, neg, (neg & cap_pos) | (~neg & cap_neg)


def int_xi_result(dist, source, x, n_pairs, keys, cap_exp, record_ns):
    """(alive_counts, neg_counts, negative_final, undecided, retries) of the
    ξ pair loop with its cap retries, from :func:`int_xi_replay`: retry r
    settles a trial left undecided by the rounds before it from its whole
    replay at cap_exp + 2r.  Every trial is replayed at every cap, and only
    the undecided ones take it."""
    alive_counts, neg_counts, neg, undecided = int_xi_replay(
        dist, source, x, n_pairs, keys, cap_exp, record_ns)
    retries = 0
    while undecided.any() and retries < 3:
        retries += 1
        _, _, neg_r, undecided_r = int_xi_replay(dist, source, x, n_pairs, keys,
                                                 cap_exp + 2 * retries)
        neg = np.where(undecided, neg_r, neg)
        undecided &= undecided_r
    return (alive_counts, neg_counts, int((neg & ~undecided).sum()),
            int(undecided.sum()), retries)


def _xi_fields(res):
    return (res.alive_counts.tolist(), res.neg_counts.tolist(), res.negative_final,
            res.undecided, res.retries_used)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2)] + X_WIDE)
def test_srw_xi_w_is_exact(x):
    # (q ± p)·τ passed 2^63 for x = 1/3037000000 at seed 1 and flipped signs
    res = engine._srw_xi_chunk(x, 50, 2000, 1, (10, 50), 0)
    keys = trial_keys(1, np.arange(2000, dtype=np.uint64))
    want = int_xi_result(SIMPLE, durations.PassageLaw(), x, 50, keys, CAP_EXP, (10, 50))
    assert _xi_fields(res) == want


@pytest.mark.parametrize("name,dist", [("unit-up", UNIT_UP), ("tg", TG),
                                       ("lazy", LAZY)])
@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 5), Fraction(1, 3)], ids=str)
def test_table_xi_matches_integer_replay(name, dist, x):
    # W summed in floats misread exact ties W = 0 at x = 1/3, where 1 - x
    # and 1 + x are not binary fractions, and moved the counts
    trials, n_pairs, seed, offset, record_ns = 2000, 30, 596, 321, (10, 30)
    keys = trial_keys(seed, np.arange(offset, offset + trials, dtype=np.uint64))
    res = engine._table_xi_chunk(dist, x, n_pairs, trials, seed, record_ns, offset)
    want = int_xi_result(dist, durations.excursion_tables(dist), x, n_pairs, keys,
                         CAP_EXP, record_ns)
    assert _xi_fields(res) == want


def stepped_counts(dist, x, horizon, trials, seed, grid, *, excursions=False,
                   mode=None, step_cap=engine._NO_LIMIT, workers=1):
    """The stepped reference's survivors at each horizon of ``grid``, counted
    as the survival counts count them: the time event to t_max = horizon, or
    the excursion event to k_max = horizon; ``capped`` holds the censored
    trials.  The run is split into the chunks of ``workers`` workers by
    ``trial_offset`` and merged."""
    mode = mode or ("weak" if excursions else "strict")
    t_max, n_stretches = ((engine._NO_LIMIT, 2 * horizon) if excursions
                          else (horizon, engine._NO_LIMIT))
    parts = []
    for offset, count in engine.chunk_bounds(trials, workers):
        tstar, kstar, censored = engine._stepped(dist, x, count, seed, mode, offset,
                                                 t_max, n_stretches, step_cap)
        survivors = (engine._counts_from_times(kstar // 2, tuple(k - 1 for k in grid))
                     if excursions else engine._counts_from_times(tstar, grid))
        parts.append(engine.SurvivalCounts(grid, count, survivors, censored, "stepped"))
    return engine.SurvivalCounts.merge(parts)


def _proportions_close(c1, c2, z=3.0):
    p1 = c1.survivors / c1.trials
    p2 = c2.survivors / c2.trials
    pbar = (c1.survivors + c2.survivors) / (c1.trials + c2.trials)
    sigma = np.sqrt(np.maximum(pbar * (1 - pbar), 1e-12)
                    * (1 / c1.trials + 1 / c2.trials))
    return np.all(np.abs(p1 - p2) <= z * sigma + 1e-9)


@pytest.mark.parametrize("x,mode", [(Fraction(0), "strict"),
                                    (Fraction(1, 2), "strict"),
                                    (Fraction(0), "weak")])
def test_exact_excursion_agrees_with_stepped(x, mode):
    grid = (8, 64, 512)
    fast = engine.atilde_counts(SIMPLE, x, 512, 30_000, 515, grid, mode=mode)
    slow = stepped_counts(SIMPLE, x, 512, 30_000, 516, grid, mode=mode)
    assert fast.engine == "exact-excursion"
    assert _proportions_close(fast, slow)


def test_a_counts_exact_vs_stepped():
    # Stepping to the 2k-th crossing has infinite expected cost (E[tau] is
    # infinite), so the stepped reference run needs a modest per-stretch cap
    # and small k; capped trials are counted as survivors (documented upward
    # bias), so caps must stay rare next to the comparison tolerance.
    grid = (1, 2)
    fast = engine.a_counts(SIMPLE, Fraction(1, 2), 2, 6000, 525, grid)
    slow = stepped_counts(SIMPLE, Fraction(1, 2), 2, 6000, 526, grid,
                          excursions=True, step_cap=100_000)
    assert fast.engine == "exact-excursion"
    assert slow.capped <= 0.008 * slow.trials
    assert _proportions_close(fast, slow, z=4.0)
    # survivors can only decrease along the grid
    assert np.all(np.diff(fast.survivors) <= 0)


def test_worker_splits_are_bit_identical():
    # the stepped reference is split by trial_offset, as the workers split a run
    for run in (engine.atilde_counts, stepped_counts):
        one = run(SIMPLE, Fraction(1, 2), 200, 5000, 531, (10, 200), workers=1)
        many = run(SIMPLE, Fraction(1, 2), 200, 5000, 531, (10, 200), workers=3)
        np.testing.assert_array_equal(one.survivors, many.survivors)
        assert one.capped == many.capped
    # each chunk picks its own block lengths (stepped reference) or its own
    # pass sizes (duration tables); the counts must not move
    for atilde, a, engine_name, w_time, w_exc in (
            (stepped_counts, partial(stepped_counts, excursions=True), "stepped", 2, 4),
            (engine.atilde_counts, engine.a_counts, "duration-table", 3, 3)):
        one = atilde(UNIT_UP, Fraction(0), 2000, 3000, 533, (10, 100, 2000), workers=1)
        two = atilde(UNIT_UP, Fraction(0), 2000, 3000, 533, (10, 100, 2000),
                     workers=w_time)
        assert one.engine == two.engine == engine_name
        np.testing.assert_array_equal(one.survivors, two.survivors)
        kw = dict(step_cap=20_000)  # short stepped runs
        one = a(UNIT_UP, Fraction(0), 4, 1500, 532, (2, 4), **kw)
        many = a(UNIT_UP, Fraction(0), 4, 1500, 532, (2, 4), workers=w_exc, **kw)
        np.testing.assert_array_equal(one.survivors, many.survivors)
        assert (one.capped, one.tail_draws) == (many.capped, many.tail_draws)


def test_xi_workers_bit_identical():
    kw = dict(record_ns=(10, 50), workers=1)
    one = engine.run_xi_trials(SIMPLE, Fraction(1, 2), 50, 4000, 541, **kw)
    kw["workers"] = 4
    many = engine.run_xi_trials(SIMPLE, Fraction(1, 2), 50, 4000, 541, **kw)
    np.testing.assert_array_equal(one.alive_counts, many.alive_counts)
    np.testing.assert_array_equal(one.neg_counts, many.neg_counts)
    assert one.negative_final == many.negative_final
    t1 = engine.run_xi_trials(UNIT_UP, Fraction(0), 30, 3000, 542, workers=1)
    t3 = engine.run_xi_trials(UNIT_UP, Fraction(0), 30, 3000, 542, workers=3)
    np.testing.assert_array_equal(t1.alive_counts, t3.alive_counts)
    assert t1.engine == "duration-table"


class _InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its size and its
    initializer's arguments, runs the initializer and runs each submission
    in this process."""
    sizes: list = []
    initargs: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        self.initargs.append(initargs)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = concurrent.futures.Future()
        done.set_result(fn(*args))
        return done


def test_pool_is_sized_by_its_chunks(monkeypatch):
    # under fork a pool starts all max_workers processes at its first
    # submit, so 500 workers for 2 trials must ask for 2; the counts match
    # the serial run's
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(_InProcessPool, "initargs", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    serial = engine.atilde_counts(SIMPLE, Fraction(0), 50, 2, 1, (10, 50))
    pooled = engine.atilde_counts(SIMPLE, Fraction(0), 50, 2, 1, (10, 50), workers=500)
    np.testing.assert_array_equal(pooled.survivors, serial.survivors)
    engine.a_counts(UNIT_UP, Fraction(0), 5, 3, 1, (1, 5), workers=4)
    xi = engine.run_xi_trials(SIMPLE, Fraction(0), 5, 3, 1, workers=500)
    serial_xi = engine.run_xi_trials(SIMPLE, Fraction(0), 5, 3, 1)
    assert _xi_digest(xi) == _xi_digest(serial_xi)
    assert _InProcessPool.sizes == [2, 3, 3]
    for workers in (0, -1):
        for run in (lambda: engine.atilde_counts(SIMPLE, 0, 50, 10, 1, (10,),
                                                 workers=workers),
                    lambda: engine.a_counts(UNIT_UP, 0, 5, 10, 1, (1,), workers=workers),
                    lambda: engine.run_xi_trials(SIMPLE, 0, 5, 10, 1, workers=workers)):
            with pytest.raises(OutOfRange, match="workers"):
                run()
    assert _InProcessPool.sizes == [2, 3, 3]
    # the tables go to the workers once, by the initializer; the simple
    # walk has none to hand
    assert _InProcessPool.initargs == [(), (durations.excursion_tables(UNIT_UP),), ()]


@pytest.mark.parametrize("cpus", [2, None])
def test_pool_is_capped_at_the_cpus(monkeypatch, cpus):
    # 7 chunks on 2 CPUs (or an unknown count, taken as 1) start no more
    # processes than there are CPUs; the chunks, and so every count, stay
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(_InProcessPool, "initargs", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    chunks = []
    worker = engine._survival_worker

    def counting(args, trials, offset):
        chunks.append((offset, trials))
        return worker(args, trials, offset)

    monkeypatch.setattr(engine, "_survival_worker", counting)
    serial = engine.atilde_counts(SIMPLE, Fraction(0), 50, 7, 1, (10, 50))
    pooled = engine.atilde_counts(SIMPLE, Fraction(0), 50, 7, 1, (10, 50), workers=7)
    np.testing.assert_array_equal(pooled.survivors, serial.survivors)
    xi = engine.run_xi_trials(UNIT_UP, Fraction(0), 5, 7, 1, workers=7)
    assert _xi_digest(xi) == _xi_digest(engine.run_xi_trials(UNIT_UP, Fraction(0), 5, 7, 1))
    assert _InProcessPool.sizes == [cpus or 1] * 2
    assert chunks == [(0, 7)] + [(i, 1) for i in range(7)]


def test_pool_initializer_hands_workers_the_tables(monkeypatch):
    # a worker's excursion_tables returns the object the initializer was
    # handed, and builds nothing
    tables = durations.excursion_tables(UNIT_UP)
    monkeypatch.setattr(durations, "_TABLE_CACHE", {})
    monkeypatch.setattr(durations, "_one_sided_tables", None)
    durations.keep_tables(tables)
    assert durations.excursion_tables(UNIT_UP) is tables


_SPAWNED_RUNS = """
import multiprocessing, pickle, sys
from fractions import Fraction
from persistwalk import engine
from persistwalk.increments import preset

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    counts = engine.atilde_counts(preset("unit-up", negatives=[-2]), Fraction(0), 1000,
                                  600, 17, (10, 100, 1000), workers=2)
    xi = engine.run_xi_trials(preset("simple"), Fraction(1, 2), 50, 600, 18,
                              record_ns=(10, 50), workers=2)
    sys.stdout.buffer.write(pickle.dumps((counts, xi)))
"""


def test_workers_are_bit_identical_under_spawn(tmp_path):
    # a spawned worker imports the package afresh and gets the tables by
    # pickle, through the pool's initializer; its counts are the serial ones
    script = tmp_path / "spawned.py"
    script.write_text(_SPAWNED_RUNS)
    env = dict(os.environ)
    src = str(Path(engine.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, str(script)], capture_output=True, env=env,
                         timeout=120)
    assert res.returncode == 0, res.stderr.decode()
    counts, xi = pickle.loads(res.stdout)
    serial = engine.atilde_counts(UNIT_UP, Fraction(0), 1000, 600, 17, (10, 100, 1000))
    np.testing.assert_array_equal(counts.survivors, serial.survivors)
    assert (counts.capped, counts.tail_draws, counts.engine) == (
        serial.capped, serial.tail_draws, serial.engine)
    serial_xi = engine.run_xi_trials(SIMPLE, Fraction(1, 2), 50, 600, 18, record_ns=(10, 50))
    assert _xi_digest(xi) == _xi_digest(serial_xi)


@pytest.mark.parametrize("dist", [SIMPLE, UNIT_UP])
def test_atilde_counts_refuses_horizons_below_1(monkeypatch, dist):
    # every size is refused before any draw; these used to run, and gave
    # survivors [42, 0, 100] at horizons 5, 50 and -3 of a run to t_max = 10,
    # [0] at k_max = -1 and 0 at k = 50 of a run to k_max = 2
    monkeypatch.setattr(engine, "uniform_at", None)
    monkeypatch.setattr(engine, "trial_keys", None)

    def atilde(t_max=10, grid=(1,)):
        return engine.atilde_counts(dist, Fraction(0), t_max, 100, 1, grid)

    def a(k_max=2, grid=(1,), step_cap=30):
        return engine.a_counts(dist, Fraction(0), k_max, 10, 1, grid, step_cap=step_cap)

    for run, match in [*((lambda t=t: atilde(t_max=t), "t_max") for t in (0, -3, 10.5)),
                       (lambda: atilde(grid=(5, 50, -3)), r"grid\[1\]=50"),
                       *((lambda k=k: a(k_max=k), "k_max") for k in (-1, 2.5)),
                       (lambda: a(grid=(1, 2, 50)), r"grid\[2\]=50"),
                       *((lambda c=c: a(step_cap=c), "step_cap") for c in (0, -1))]:
        with pytest.raises(OutOfRange, match=match):
            run()
    # the excursion event with no stretch to run draws nothing
    kstar = engine._stretches(SIMPLE, Fraction(0), 10, 1, "weak", 0, engine._NO_LIMIT, 0,
                              step_cap=30)[1]
    np.testing.assert_array_equal(kstar, 0)


def test_xi_exact_vs_table_on_simple_walk():
    # the two engines implement the same event with independent machinery
    ns = (10, 100)
    ex = engine.run_xi_trials(SIMPLE, Fraction(1, 2), 100, 20_000, 551, record_ns=ns)
    tb = engine._xi_chunk(SIMPLE, durations.excursion_tables(SIMPLE), Fraction(1, 2),
                          100, 20_000, 552, ns, 0)
    assert ex.engine == "exact-excursion" and tb.engine == "duration-table"
    for j in range(len(ns)):
        p1, p2 = ex.alive_counts[j] / ex.trials, tb.alive_counts[j] / tb.trials
        pbar = (ex.alive_counts[j] + tb.alive_counts[j]) / (2 * 20_000)
        sigma = math.sqrt(max(pbar * (1 - pbar), 1e-12) * 2 / 20_000)
        assert abs(p1 - p2) <= 3 * sigma
    assert np.all(np.diff(ex.alive_counts) <= 0)


def test_xi_record_ns_validation():
    with pytest.raises(OutOfRange):
        engine.run_xi_trials(SIMPLE, Fraction(0), 10, 100, 561,
                             record_ns=(5, 11))
    r = engine.run_xi_trials(SIMPLE, Fraction(0), 10, 500, 561,
                             record_ns=(10, 5, 5))
    assert r.record_ns == (5, 10)
    assert r.decided + r.undecided == r.trials
    # an entry below 1 was never reached and zeroed every count after it
    for bad in ((0, 10), (-3, 10)):
        with pytest.raises(OutOfRange):
            engine.run_xi_trials(SIMPLE, Fraction(0), 10, 500, 561,
                                 record_ns=bad)
    for n in (0, -1):
        with pytest.raises(OutOfRange):
            engine.run_xi_trials(SIMPLE, Fraction(0), n, 500, 561)
    ref = engine.run_xi_trials(SIMPLE, Fraction(0), 10, 500, 561,
                               record_ns=(10,))
    r = engine.run_xi_trials(SIMPLE, Fraction(0), 10, 500, 561,
                             record_ns=(1, 10))
    assert r.alive_counts[0] >= r.alive_counts[1] == ref.alive_counts[0] > 0


def test_engines_refuse_unknown_mode():
    # a misspelt mode used to run the weak barrier silently
    runs = (lambda mode: engine.stepped_first_violation(SIMPLE, Fraction(0), 10, 5,
                                                        1, mode=mode),
            lambda mode: engine._stepped(SIMPLE, Fraction(0), 5, 1, mode, 0,
                                         engine._NO_LIMIT, 4, 10 ** 9),
            lambda mode: engine.srw_excursion_first_violation(Fraction(0), 10, 5, 1,
                                                              mode=mode),
            lambda mode: engine._stretches(SIMPLE, Fraction(0), 5, 1, mode, 0,
                                           engine._NO_LIMIT, 4))
    for run in runs:
        for mode in ("Strict", "weak ", ""):
            with pytest.raises(ValueError, match="mode"):
                run(mode)


def test_srw_xi_cap_retry_resolution():
    # a tiny passage cap forces many censored draws; retries must resolve
    # most final signs and what remains is flagged, not guessed
    res = engine._xi_chunk(SIMPLE, durations.PassageLaw(), Fraction(1, 2), 10, 4000, 571,
                           (10,), 0, cap_exp=12)
    assert res.capped_draws > 0
    assert res.decided + res.undecided == 4000
    assert res.retries_used >= 1
    ref = engine._srw_xi_chunk(Fraction(1, 2), 10, 4000, 572, (10,), 0)
    p1 = res.alive_counts[0] / 4000
    p2 = ref.alive_counts[0] / 4000
    assert abs(p1 - p2) <= 4 * math.sqrt(p2 * (1 - p2) * 2 / 4000)


def test_srw_xi_retry_matches_integer_replay():
    # a small cap leaves trials undecided, and retries at cap_exp + 2r settle
    # most of them: on the passage law at cap_exp = 12, on the tables at
    # cap_exp = 6, where every τ past 258 steps is clamped
    x, n_pairs, seed = Fraction(1, 2), 10, 571
    for dist, source, trials, cap_exp in (
            (SIMPLE, durations.PassageLaw(), 4000, 12),
            (UNIT_UP, durations.excursion_tables(UNIT_UP), 2000, 6),
            (LAZY, durations.excursion_tables(LAZY), 2000, 6)):
        keys = trial_keys(seed, np.arange(trials, dtype=np.uint64))
        want = int_xi_result(dist, source, x, n_pairs, keys, cap_exp, (10,))
        first_pass = int_xi_replay(dist, source, x, n_pairs, keys, cap_exp)[3]
        res = engine._xi_chunk(dist, source, x, n_pairs, trials, seed, (10,), 0,
                               cap_exp)
        assert _xi_fields(res) == want
        assert first_pass.sum() > res.undecided > 0 and res.retries_used == 3
        assert res.decided == trials - res.undecided


def _pairs_digest(tau_p, tau_m, info):
    h = hashlib.sha256()
    for a in (tau_p, tau_m):
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    h.update(json.dumps(info, sort_keys=True).encode())
    return h.hexdigest()


# digests of (tau_plus, tau_minus, info) from the engine that stepped lanes
# with its own inline block code (581-584) and from the collector that read
# each 64-step block column by column (585, 587); the shared block helper,
# the one-pass crossing bookkeeping and the growing block must keep them
PAIRS_DIGESTS = {
    581: "a67dde90e4964f7d55a8aa1145936b476d4222c1d62d5228966daf2b2be1a5a0",
    582: "0115f0f39ebeb28f3185a91e31d54c4a1da445bd3c72aea705afbb7a9f390d73",
    583: "cee061fc673921fc82a547eba3d4cc92a942943d1e0f63b6175a49385c24841f",
    584: "0d1eab4125d924254c42bcd36b617c1e0c5993b3d54669ec79a25ec470a72541",
    585: "e2c84a31ccdc94869676e38c5349a2caac59440ef953df7d51fdc1dc1fd74d47",
    587: "d4028271071ff48c2b66c8e0df66d09251e3f8462684e4dfbb841934c881b538",
}


def test_collect_duration_pairs_simple():
    tau_p, tau_m, info = engine.collect_duration_pairs(SIMPLE, 50_000, 581)
    assert _pairs_digest(tau_p, tau_m, info) == PAIRS_DIGESTS[581]
    assert info["engine"] == "exact-excursion"
    assert tau_p.shape == tau_m.shape == (50_000,)
    for h in (2, 10, 100):
        p = float(durations.srw_halfexcursion_survival(np.array([h]))[0])
        sigma = math.sqrt(p * (1 - p) / 50_000)
        assert abs(np.mean(tau_p > h) - p) <= 3 * sigma
        assert abs(np.mean(tau_m > h) - p) <= 3 * sigma


def test_collect_duration_pairs_lane_invariance(monkeypatch):
    # the stepped harvest must not depend on how trials are laned; a modest
    # cap keeps the slowest lane short (the censored tail is identical in law
    # for both runs, so the survival comparison is still like-for-like)
    n = 4000
    monkeypatch.setattr(engine, "_LANES", 5)
    a_p, a_m, info_a = engine.collect_duration_pairs(UNIT_UP, n, 582, step_cap=1 << 16)
    monkeypatch.setattr(engine, "_LANES", 101)
    b_p, b_m, info_b = engine.collect_duration_pairs(UNIT_UP, n, 583, step_cap=1 << 16)
    assert _pairs_digest(a_p, a_m, info_a) == PAIRS_DIGESTS[582]
    assert _pairs_digest(b_p, b_m, info_b) == PAIRS_DIGESTS[583]
    assert len(a_p) >= n and len(b_p) >= n
    assert np.all(a_p >= 1) and np.all(a_m >= 1)
    for h in (1, 4, 16, 64):
        for a, b in ((a_p, b_p), (a_m, b_m)):
            pa, pb = np.mean(a > h), np.mean(b > h)
            pbar = 0.5 * (pa + pb)
            sigma = math.sqrt(max(pbar * (1 - pbar), 1e-9)
                              * (1 / len(a) + 1 / len(b)))
            assert abs(pa - pb) <= 4 * sigma
    assert info_a["lanes"] == 5 and info_b["lanes"] == 101
    assert info_a["restarts"] >= 0


def test_collect_duration_pairs_censoring(monkeypatch):
    # a small step cap right-censors at cap + 1 and restarts the lane; the
    # cap is enforced at 64-step block ends, so a stretch that completes
    # mid-block can be recorded at its true length up to cap + 63
    monkeypatch.setattr(engine, "_LANES", 32)
    tau_p, tau_m, info = engine.collect_duration_pairs(UNIT_UP, 4000, 584, step_cap=256)
    assert _pairs_digest(tau_p, tau_m, info) == PAIRS_DIGESTS[584]
    assert tau_p.max() <= 256 + 63 and tau_m.max() <= 256 + 63
    assert info["censored_pos"] + info["censored_neg"] > 0
    assert info["restarts"] > 0
    assert info["cap"] == 257
    # censored stretches really are written with the sentinel value
    assert np.any(tau_p == 257) or np.any(tau_m == 257)


def test_collect_duration_pairs_lanes_finish_apart(monkeypatch):
    # lanes fill their quotas far apart, so the block grows while the last
    # ones run; on the lazy walk some lanes fill theirs inside a grown block,
    # before its last 64-step boundary, and skip that boundary's cap check,
    # as they would have left the run at their own boundary
    for dist, n, seed, lanes, cap in ((UNIT_UP, 20_000, 585, 256, 1 << 14),
                                      (LAZY, 5000, 587, 37, 1000)):
        monkeypatch.setattr(engine, "_LANES", lanes)
        tau_p, tau_m, info = engine.collect_duration_pairs(dist, n, seed, step_cap=cap)
        assert _pairs_digest(tau_p, tau_m, info) == PAIRS_DIGESTS[seed]
        assert info["restarts"] > 0


def test_collect_duration_pairs_replays_each_lane(monkeypatch):
    # with no restart, lane i's harvest is the crossing decomposition of the
    # walk on its own stream: its leading negative stretch dropped, then its
    # first quota stretches of each sign, in order
    lanes, n = 4, 48
    quota = n // lanes
    monkeypatch.setattr(engine, "_LANES", lanes)
    for dist, seed, cap in ((UNIT_UP, 596, 1 << 16), (LAZY, 600, 1 << 18)):
        tau_p, tau_m, info = engine.collect_duration_pairs(dist, n, seed, step_cap=cap)
        assert info["restarts"] == 0
        tau_p, tau_m = tau_p.reshape(lanes, quota), tau_m.reshape(lanes, quota)
        # a lane ends within its harvest, a leading stretch below the cap
        # and the step after its last crossing
        t_max = int((tau_p + tau_m).sum(axis=1).max()) + cap + 64
        paths = brute_paths(dist, t_max, lanes, seed,
                            trial_offset=engine._SENTINEL_STREAM)
        for i, path in enumerate(paths):
            dec = walk.decompose(path)
            stretches = list(zip(dec.stretch_signs, dec.durations))
            if stretches[0][0] < 0:
                stretches = stretches[1:]
            for want, got in ((1, tau_p[i]), (-1, tau_m[i])):
                durs = [d for sign, d in stretches if sign == want][:quota]
                assert durs == got.tolist(), (dist, i, want)


def _digest(*parts):
    """SHA-256 over int64 arrays and JSON-able values, in order."""
    h = hashlib.sha256()
    for a in parts:
        if isinstance(a, np.ndarray):
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
        else:
            h.update(json.dumps(a).encode())
    return h.hexdigest()


def _xi_digest(res):
    return _digest(res.alive_counts, res.neg_counts,
                   [res.decided, res.negative_final, res.undecided,
                    res.capped_draws, res.retries_used])


X_PINNED = [Fraction(0), Fraction(1, 2), X_WIDE[0]]

# digests of the simple-walk engines from the commit that ran the time and
# excursion events in two separate stretch loops and replayed cap retries
# trial by trial; the shared loops must keep every output bit for bit
STRETCH_DIGESTS = {
    ("time", "0", "strict"):
        "204db739200ec14ca337890a9b0885160239c6e23a061995948451ba9eb0bcd7",
    ("excursion", "0", "strict"):
        "5bc01b977ece4a7ac657225a2e91089712c51c22b208e2e58e28ff7bc33f3e67",
    ("time", "0", "weak"):
        "836ec10bacc7ea51635208326dc4f5666fa689ef668314765ef6067151c4f26a",
    ("excursion", "0", "weak"):
        "48d9c7eaa36b24647e08c36fa4fe68766002a1ad5bc2da54eaf6ec0b44bd3e10",
    ("time", "1/2", "strict"):
        "0fd48de76ed5fc07cd282a974852c8c7add0ffc19179f4c0fdd06df71fc21b8f",
    ("excursion", "1/2", "strict"):
        "d8e69d8ebcd3260b8b87391d662ec54e85c045e815807914dca914104d7c5b2b",
    ("time", "1/2", "weak"):
        "0c6c2f5fa7b892c66b6267918ecfdca82f16affb7c183eabbdbe78723bc16f9a",
    ("excursion", "1/2", "weak"):
        "fddb449e7c63f2dc7eba2e78b5aa5d35b8638db9d41f38bd3e4f2cba863b965b",
    ("time", "1/3037000000", "strict"):
        "204db739200ec14ca337890a9b0885160239c6e23a061995948451ba9eb0bcd7",
    ("excursion", "1/3037000000", "strict"):
        "5bc01b977ece4a7ac657225a2e91089712c51c22b208e2e58e28ff7bc33f3e67",
    ("time", "1/3037000000", "weak"):
        "204db739200ec14ca337890a9b0885160239c6e23a061995948451ba9eb0bcd7",
    ("excursion", "1/3037000000", "weak"):
        "5bc01b977ece4a7ac657225a2e91089712c51c22b208e2e58e28ff7bc33f3e67",
    ("time", "cap", "strict"):
        "bb877170f67f81ef33e5c484caf64ed1c84c9338dbaf9614c1b5bad525ea0989",
    ("excursion", "cap", "weak"):
        "4e2710ed8060b71fdaaa60ac261f2cdafe728d2cff61468cdead86af5ebf8223",
}

XI_DIGESTS = {
    "0": "1022100fd381b4a7b0ee67b90455359cca2348652728aa915f2b3ebb709e87cd",
    "1/2": "87209f21b076345f83bf07d61490136d5736db04f69afc02c8ff765d0cb3e207",
    "1/3037000000": "38b176c7fd4f74d3296cb23d55d61a62fd37f5898050ac9ef9a72908f71852c3",
    "retry": "7fd8f93695a747a73e7622c55cd889907c39df370f0e2d49ef2ff4255a8e3928",
}

# the ξ pair loop on the tables at x = 1/3; the loop that summed W in floats
# gave unit-up 16aa2b4e…, tg 38c6df5a… and lazy 7f565ec3…, where float
# noise misread exact ties W = 0 (the simple walk has none at this seed)
TABLE_XI_DIGESTS = {
    "simple": "bee7ff52c3f0478912b9abb20c8dd3fbb55c5e2464f363a84f16634a616e841c",
    "unit-up": "eb2bd2b9d494d596b1d90dd4f6f3c867eb131ed70929e840777f5ce4870ee532",
    "tg": "fc7a719f3fd53875a32a7d026795bd5fca7627f1c95ccf2af81c8256f589eeb2",
    "lazy": "35d8ef17c3d34768a97234fa8d0e2ad328ff94d8c580cd3285ff769db7204559",
    "pm1,pm2": "eead4ab7381aa0738dad2f6bcdd45d83c073ed5a2bd39fcef2c087abecf407da",
}
# {−2, −1, +1, +2} at ¼ each ("pm1,pm2") enters both sides at two states,
# so its table stretches are drawn one at a time; its digest comes from
# the loop that drew every walk's that way.  Its tables stop at 2^11, since at
# the default 2^15 they take seconds to build
PM12 = validate([(v, Fraction(1, 4)) for v in (-2, -1, 1, 2)])


@pytest.mark.parametrize("x", X_PINNED, ids=str)
@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_exact_stretch_engines_pinned(x, mode):
    tstar, capped = engine.srw_excursion_first_violation(
        x, 3000, 2000, 591, mode=mode, trial_offset=1234)
    assert _digest(tstar, capped) == STRETCH_DIGESTS["time", str(x), mode]
    _, kstar, _, capped = engine._stretches(SIMPLE, x, 2000, 592, mode, 1234,
                                            engine._NO_LIMIT, 120)
    assert _digest(kstar // 2, capped) == STRETCH_DIGESTS["excursion", str(x), mode]


def test_exact_stretch_engines_pinned_with_caps():
    # a tiny passage cap makes capped draws common; their count is pinned too
    tstar, _, _, capped = engine._stretches(SIMPLE, Fraction(1, 2), 2000, 593, "strict",
                                            77, 3000, engine._NO_LIMIT,
                                            source=durations.PassageLaw(6))
    assert capped > 0
    assert _digest(tstar, capped) == STRETCH_DIGESTS["time", "cap", "strict"]
    _, kstar, _, capped = engine._stretches(SIMPLE, Fraction(1, 2), 2000, 594, "weak",
                                            77, engine._NO_LIMIT, 120,
                                            source=durations.PassageLaw(6))
    assert capped > 0
    assert _digest(kstar // 2, capped) == STRETCH_DIGESTS["excursion", "cap", "weak"]


@pytest.mark.parametrize("x", X_PINNED, ids=str)
def test_srw_xi_chunk_pinned(x):
    res = engine._srw_xi_chunk(x, 50, 2000, 595, (10, 50), 321)
    assert _xi_digest(res) == XI_DIGESTS[str(x)]


def test_srw_xi_chunk_retry_pinned():
    res = engine._xi_chunk(SIMPLE, durations.PassageLaw(), Fraction(1, 2), 10, 4000, 571,
                           (10,), 0, cap_exp=12)
    assert res.retries_used >= 1 and res.undecided > 0
    assert _xi_digest(res) == XI_DIGESTS["retry"]


@pytest.mark.parametrize("name,dist", [("simple", SIMPLE),
                                       ("unit-up", UNIT_UP),
                                       ("tg", TG), ("lazy", LAZY)])
def test_table_xi_chunk_pinned(name, dist):
    res = engine._table_xi_chunk(dist, Fraction(1, 3), 30, 2000, 596,
                                 (10, 30), 321)
    assert _xi_digest(res) == TABLE_XI_DIGESTS[name]


def test_table_xi_chunk_pinned_drawn_pair_by_pair():
    res = engine._xi_chunk(PM12, durations.excursion_tables(PM12, 2 ** 11),
                           Fraction(1, 3), 30, 2000, 596, (10, 30), 321)
    assert _xi_digest(res) == TABLE_XI_DIGESTS["pm1,pm2"]


def test_runs_refuse_trials_below_one():
    # the ξ runs returned empty counts for zero trials, ran a negative count
    # as zero and 2.5 trials as 3, and 1.5 workers ended in a TypeError; the
    # front door refuses each for every run
    for trials in (0, -3, 2.5):
        for run in (lambda: engine.run_xi_trials(UNIT_UP, 0, 5, trials, 1),
                    lambda: engine.atilde_counts(SIMPLE, 0, 10, trials, 1, (5,)),
                    lambda: engine.a_counts(UNIT_UP, 0, 3, trials, 1, (2,)),
                    lambda: montecarlo.survival_atilde(SIMPLE, 0, 10, trials, 1),
                    lambda: montecarlo.survival_a(UNIT_UP, 0, 3, trials, 1)):
            with pytest.raises(OutOfRange, match=f"trials={trials} must be >= 1"):
                run()
    for run in (lambda: engine.run_xi_trials(UNIT_UP, 0, 5, 10, 1, workers=1.5),
                lambda: montecarlo.survival_atilde(SIMPLE, 0, 10, 10, 1, workers=1.5)):
        with pytest.raises(OutOfRange, match="workers=1.5 must be >= 1"):
            run()


def test_runs_reach_the_benchmark_spans(monkeypatch):
    # the benchmark times these entry points as its engine.stretch and
    # engine.xi spans; a run routed round them would leave the spans empty
    calls = []
    for name in ("srw_excursion_first_violation", "_srw_xi_chunk", "_table_xi_chunk"):
        def counted(*args, _fn=getattr(engine, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    montecarlo.survival_atilde(SIMPLE, 0, 100, 50, 1)
    assert calls == ["srw_excursion_first_violation"]
    engine.run_xi_trials(SIMPLE, 0, 10, 50, 1)
    assert calls[1:] == ["_srw_xi_chunk"]
    exponent.estimate_q(UNIT_UP, 0, 10, 50, 1)
    assert calls[2:] == ["_table_xi_chunk"]


def test_table_runs_draw_through_the_tables_block_draw(monkeypatch):
    # the table time event and the table ξ run draw every block of
    # stretches through ExcursionTables.stretches: the opening's one
    # stretch, then the blocks (here one of 2·20 stretches for the ξ run)
    calls = []
    stretches = durations.ExcursionTables.stretches

    def counted(self, u, *args):
        calls.append(u.shape[0])
        return stretches(self, u, *args)

    def runs():
        return (engine.atilde_counts(UNIT_UP, Fraction(1, 3), 1000, 50, 3, (10, 1000)),
                engine.run_xi_trials(UNIT_UP, Fraction(1, 5), 20, 50, 3))

    want = runs()
    monkeypatch.setattr(durations.ExcursionTables, "stretches", counted)
    atilde = engine.atilde_counts(UNIT_UP, Fraction(1, 3), 1000, 50, 3, (10, 1000))
    assert calls[0] == 1 and len(calls) > 1
    calls.clear()
    xi = engine.run_xi_trials(UNIT_UP, Fraction(1, 5), 20, 50, 3)
    assert calls == [1, 40]
    assert atilde.survivors.tolist() == want[0].survivors.tolist()
    assert _xi_digest(xi) == _xi_digest(want[1])


def test_runs_check_seed_and_mode_before_tables_or_pool(monkeypatch):
    # an unknown mode and a seed that is not an integer started a 2-process
    # pool before the refusal, and the ξ run built the tables first; every
    # run kind now refuses both before either
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(durations, "_one_sided_tables", None)
    fresh = validate([(5, Fraction(1, 6)), (-1, Fraction(5, 6))])  # no tables cached
    for dist in (SIMPLE, fresh):
        for run, error, match in (
                (lambda: engine.atilde_counts(dist, 0, 10, 100, 1, (5,), mode="bogus",
                                              workers=2), ValueError, "mode"),
                (lambda: montecarlo.survival_a(dist, 0, 5, 100, 1, mode="Weak",
                                               workers=2), ValueError, "mode"),
                (lambda: engine.atilde_counts(dist, 0, 10, 100, 1.5, (5,), workers=2),
                 OutOfRange, "seed="),
                (lambda: engine.a_counts(dist, 0, 5, 100, 1.5, (5,), workers=2),
                 OutOfRange, "seed="),
                (lambda: engine.run_xi_trials(dist, 0, 10, 100, 1.5), OutOfRange,
                 "seed="),
                (lambda: engine.run_xi_trials(dist, 0, 10, 100, "1", workers=2),
                 OutOfRange, "seed=")):
            with pytest.raises(error, match=match):
                run()
    assert _InProcessPool.sizes == []


# ---------------------------------------------------------------------------
# the stretch loop on the duration tables (every walk but the simple one)
# ---------------------------------------------------------------------------

UP23 = preset("unit-up", negatives=[-2, -3])
TABLE_WALKS = {"unit-up": UNIT_UP, "unit-up-2-3": UP23, "tg": TG, "lazy": LAZY}


@pytest.mark.parametrize("name", sorted(TABLE_WALKS))
@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2)], ids=str)
@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_table_time_event_matches_exact_dp(name, x, mode):
    dist = TABLE_WALKS[name]
    grid = (5, 20, 60, 181)
    c = engine.atilde_counts(dist, x, 181, 20_000, 611, grid, mode=mode)
    assert c.engine == "duration-table" and c.capped == c.tail_draws == 0
    for i, t in enumerate(grid):
        p = float(oracle.exact_atilde(dist, x, t, mode=mode))
        sigma = math.sqrt(p * (1 - p) / c.trials)
        assert abs(c.survivors[i] / c.trials - p) <= 5 * sigma, f"t={t}"


@pytest.mark.parametrize("name", sorted(TABLE_WALKS))
def test_table_time_event_matches_stepped(name):
    dist = TABLE_WALKS[name]
    grid = tuple(int(g) for g in 2 ** np.arange(12))
    for x, mode in ((Fraction(0), "strict"), (Fraction(1, 2), "weak")):
        tb = engine.atilde_counts(dist, x, 2048, 10_000, 621, grid, mode=mode)
        st = stepped_counts(dist, x, 2048, 10_000, 622, grid, mode=mode)
        assert (tb.engine, st.engine) == ("duration-table", "stepped")
        assert _proportions_close(tb, st, z=4.0)


@pytest.mark.parametrize("name", ["unit-up", "tg", "lazy"])
def test_table_excursion_event_matches_stepped_and_dp(name):
    # both engines count a trial whose stretch outgrows the step cap as a
    # survivor, so the two samples share one law; against the DP bracket the
    # tables run at the default cap, which censors next to nothing
    dist, grid = TABLE_WALKS[name], (1, 2, 4)
    for x, mode in ((Fraction(0), "weak"), (Fraction(1, 2), "strict")):
        # at a cap of 3 steps most trials end censored, at 2000 a few
        for step_cap in (3, 2000):
            kw = dict(mode=mode, step_cap=step_cap)
            tb = engine.a_counts(dist, x, 4, 8000, 631, grid, **kw)
            st = stepped_counts(dist, x, 4, 8000, 632, grid, excursions=True, **kw)
            assert tb.capped > 0 and st.capped > 0
            assert _proportions_close(tb, st, z=4.0)
            assert abs(tb.capped - st.capped) <= 4 * math.sqrt(tb.capped + st.capped)
        c = engine.a_counts(dist, x, 4, 20_000, 633, grid, mode=mode)
        assert c.capped <= 5
        for i, k in enumerate(grid):
            lo, hi = (float(v) for v in oracle.exact_a(dist, x, k, 60, mode=mode))
            sigma = math.sqrt(max(hi * (1 - hi), lo * (1 - lo)) / c.trials)
            p_hat = c.survivors[i] / c.trials
            assert lo - 4 * sigma <= p_hat <= hi + 4 * sigma + c.capped / c.trials


def test_table_tail_draws_counted_only_where_they_decide():
    n = durations.DEFAULT_TABLE_SIZE
    # a tail τ is longer than N, so no time event to N + 1 can use its value
    near = engine.atilde_counts(UNIT_UP, Fraction(0), n + 1, 20_000, 641, (n + 1,))
    far = engine.atilde_counts(UNIT_UP, Fraction(0), 4 * n, 20_000, 641, (4 * n,))
    assert near.tail_draws == 0 < far.tail_draws
    exc = engine.a_counts(UNIT_UP, Fraction(0), 200, 2000, 642, (200,))
    assert exc.tail_draws > 0


# outside the domain x ∈ [0, 1) of φ; at x = 2^40 the ξ runs wrapped p·s₁
# in int64 and counted 1 trial alive where every W_m < 0
X_OUTSIDE = [Fraction(-1, 2), Fraction(1), Fraction(2 ** 40)]


def test_xi_runs_refuse_wrapping_inputs():
    # the tables used to run this x with W in floats
    x = Fraction(2 ** 40 - 1, 2 ** 41)
    for dist in (SIMPLE, UNIT_UP):
        with pytest.raises(OutOfDomain, match="2\\^63"):
            engine.run_xi_trials(dist, x, 10, 50, 1)
    with pytest.raises(OutOfDomain, match="2\\^63"):
        engine._table_xi_chunk(UNIT_UP, x, 10, 50, 1, (10,), 0)
    runs = (lambda x: engine.run_xi_trials(SIMPLE, x, 50, 500, 3, record_ns=(1, 50)),
            lambda x: engine.run_xi_trials(UNIT_UP, x, 10, 50, 1),
            lambda x: montecarlo.skew_diagnostic(SIMPLE, x, (2, 10), 50, 1),
            lambda x: exponent.estimate_q(UNIT_UP, x, 10, 50, 1))
    for x in X_OUTSIDE:
        for run in runs:
            with pytest.raises(OutOfDomain, match="outside"):
                run(x)


def test_table_stretches_refuse_wrapping_inputs():
    # x = (2^40 - 1)/2^41 passes q·(p + q) ≥ 2^63; the tables refuse it and
    # point to the rational DP, and only the stepped reference runs it
    x = Fraction(2 ** 40 - 1, 2 ** 41)
    with pytest.raises(OutOfDomain, match="oracle-dp"):
        engine.atilde_counts(UNIT_UP, x, 100, 50, 651, (100,))
    with pytest.raises(OutOfDomain):
        engine.a_counts(UNIT_UP, x, 2, 50, 651, (2,))
    c = stepped_counts(UNIT_UP, x, 100, 50, 651, (100,))
    assert 0 <= c.survivors[0] <= c.trials == 50
    # outside [0, 1) every run refuses, the stepped reference too
    for x in X_OUTSIDE:
        for dist in (SIMPLE, UNIT_UP):
            with pytest.raises(OutOfDomain, match="outside"):
                montecarlo.survival_atilde(dist, x, 100, 50, 651)
            with pytest.raises(OutOfDomain, match="outside"):
                montecarlo.survival_a(dist, x, 2, 50, 651)
            with pytest.raises(OutOfDomain, match="outside"):
                stepped_counts(dist, x, 100, 50, 651, (100,))
        with pytest.raises(OutOfDomain, match="outside"):
            walk.first_violation_time([0, 1, 2], x)
    # t could pass 2^62 steps: a horizon that long, or 2·k_max stretches of
    # up to step_cap steps each
    with pytest.raises(OutOfDomain, match="2\\^62"):
        engine.atilde_counts(UNIT_UP, Fraction(0), 2 ** 62, 50, 651, (10,))
    with pytest.raises(OutOfDomain, match="2\\^62"):
        engine.a_counts(UNIT_UP, Fraction(0), 2 ** 31, 50, 651, (2,),
                        step_cap=2 ** 30)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, "abc", None, "1/0"],
                         ids=repr)
def test_every_entry_refuses_an_x_that_is_no_finite_rational(x):
    # Fraction(x) ran before the range check: nan ended in ValueError, ±inf
    # in OverflowError, "abc" and None in untyped errors
    runs = (lambda: montecarlo.survival_atilde(SIMPLE, x, 10, 10, 1),
            lambda: montecarlo.survival_a(UNIT_UP, x, 2, 10, 1),
            lambda: engine.run_xi_trials(SIMPLE, x, 5, 10, 1),
            lambda: engine.atilde_counts(UNIT_UP, x, 10, 10, 1, (5,)),
            lambda: engine.a_counts(SIMPLE, x, 2, 10, 1, (1,)),
            lambda: exponent.estimate_q(UNIT_UP, x, 5, 10, 1),
            lambda: exponent.estimate_b_q(SIMPLE, x, 5, 10, 1),
            lambda: oracle.exact_atilde(SIMPLE, x, 4),
            lambda: oracle.exact_a(SIMPLE, x, 1, 4))
    for run in runs:
        with pytest.raises(OutOfDomain, match="not a finite rational"):
            run()


# digests of (violation time, stretch index, censored, tail draws) of the
# stretch loop on the duration tables, both events, caps and tails included
TABLE_STRETCH_DIGESTS = {
    "unit-up": "d1cbdd6510e78a530df75bac97db8bfb053f57e4b6c6bd8e9de73721b8214c5f",
    "tg": "49aaec8620a16c4dc49b5b133e340ff7f900b6f7522b59346985a6f8256246be",
    "lazy": "5f4b634581538e977c258c67eee89e0e320169e073e578d9b9bfefaa3f12d225",
}


@pytest.mark.parametrize("name", ["unit-up", "tg", "lazy"])
def test_table_stretches_pinned(name):
    dist = TABLE_WALKS[name]
    tables = durations.excursion_tables(dist)
    time_ = engine._stretches(dist, Fraction(1, 3), 2000, 661, "strict", 1234,
                              3000, engine._NO_LIMIT, source=tables)
    exc = engine._stretches(dist, Fraction(1, 3), 2000, 662, "weak", 1234,
                            engine._NO_LIMIT, 120, source=tables, step_cap=1000)
    assert exc[2] > 0 and exc[3] > 0
    assert _digest(*time_, *exc) == TABLE_STRETCH_DIGESTS[name]


# walks whose steps share a factor g = 2 and 3, so every position they visit
# is a multiple of g; digests of both stretch-loop events and of the ξ pair
# loop (at the default cap and at cap_exp = 6, with retries) from the tables
# that also held the entries such walks never reach
LATTICE_WALKS = {
    "+2,-2": validate([(2, Fraction(1, 2)), (-2, Fraction(1, 2))]),
    "lazy:+3,0,-3": validate([(3, Fraction(1, 4)), (0, Fraction(1, 2)),
                              (-3, Fraction(1, 4))]),
}
LATTICE_DIGESTS = {
    "+2,-2": (
        "3f4dc00b230c3850c58aa427f3330020483cde4fb8f2f9428d4cdbdf593724bd",
        "826bb85b7e05f223737a9541192ef8b520a51a4a47bb862112060b951c5cacc7",
        "4f9aa3f482d710a7dffcb155c4301aa496be5ed133409dd2b4ad6c8e4923b4da"),
    "lazy:+3,0,-3": (
        "e2cc1cf2716aec5ca29dd3b71fcb5f98d575261e59cdf74b886e858011320186",
        "480df887215e81349b3b12634f08b6ba2e02208f2a5e4f291890d07ed8557430",
        "30bf71477eead16c2a31d43ee592742e32e34041909f086578afdfcb94866437"),
}


@pytest.mark.parametrize("name", list(LATTICE_WALKS))
def test_lattice_walk_runs_pinned(name):
    dist = LATTICE_WALKS[name]
    tables = durations.excursion_tables(dist)
    x = Fraction(1, 3)
    time_ = engine._stretches(dist, x, 2000, 663, "strict", 1234, 3000,
                              engine._NO_LIMIT, source=tables)
    exc = engine._stretches(dist, x, 2000, 664, "weak", 1234, engine._NO_LIMIT,
                            120, source=tables, step_cap=1000)
    assert exc[2] > 0 and exc[3] > 0
    xi = engine._xi_chunk(dist, tables, x, 30, 2000, 665, (10, 30), 321)
    retried = engine._xi_chunk(dist, tables, x, 30, 2000, 665, (10, 30), 321, 6)
    assert retried.retries_used == 3 and retried.undecided > 0
    assert (_digest(*time_, *exc), _xi_digest(xi), _xi_digest(retried)) == \
        LATTICE_DIGESTS[name]


@pytest.mark.parametrize("name,dist", [("simple", SIMPLE), ("unit-up", UNIT_UP),
                                       ("lazy", LAZY), ("tg", TG), ("pm1,pm2", PM12)])
@pytest.mark.parametrize("cap_exp", [CAP_EXP, 6])
def test_xi_blocks_and_tiles_keep_every_count(monkeypatch, name, dist, cap_exp):
    # a pass of one pair per tile of one trial; blocks of 3 pairs, so the
    # records 1, 3, 4, 10 fall at a block's start, on its edge and past it,
    # and the last block holds 1 pair; tiles of 7 trials, which split 17 as
    # 7, 7, 3 with blocks of 1, 1 and 2 pairs; the default, one block of all
    # 10 pairs.  On the tables the positive side leads on unit-up, the
    # negative side on lazy and tg, and ±1, ±2 draws stretch by stretch.  At
    # cap_exp = 6 table τ are clamped and the cap retries run.
    x, n_pairs, trials, seed, record_ns = Fraction(1, 3), 10, 17, 597, (1, 3, 4, 10)
    source = (durations.PassageLaw() if dist.is_simple else
              durations.excursion_tables(dist, 2 ** 11) if dist is PM12 else
              durations.excursion_tables(dist))
    keys = trial_keys(seed, np.arange(trials, dtype=np.uint64))
    want = int_xi_result(dist, source, x, n_pairs, keys, cap_exp, record_ns)
    runs = []
    for draws in (4, 12 * trials, 28, engine._DRAWS):
        monkeypatch.setattr(engine, "_DRAWS", draws)
        res = engine._xi_chunk(dist, source, x, n_pairs, trials, seed, record_ns, 0,
                               cap_exp)
        assert _xi_fields(res) == want
        runs.append([np.asarray(getattr(res, f.name)).tolist() for f in fields(res)])
    assert all(run == runs[0] for run in runs)
    assert (want[-1] > 0) == (cap_exp == 6)


# (t_max, n_stretches, step_cap) of the stretch loop's edges: horizons 1
# and 2, where a positive start can end on its first stretch too, and limits
# of 1 and 2 stretches, where a negative start's stretch is the last counted
_NL = engine._NO_LIMIT
STRETCH_EDGES = ((1, _NL, _NL), (2, _NL, _NL), (_NL, 1, 30), (_NL, 2, 30), (1, 1, _NL),
                 (2, 2, 1), (1, 2, 1), (2, 1, 30))

# digests of every run of test_stretch_blocks_keep_every_count, edges
# included, from the loop that drew a negative start's first block beside
# the positive starts', with a sign per trial
STRETCH_BLOCK_DIGESTS = {
    "simple": "84236c955f5f0d24a760a1335909658c3cedf1fadaa6f96f2b1db320a093cd96",
    "unit-up": "afa873c5209ec380960270228a2d9074359be9da9208d7bd8929fb903d90fcf0",
    "lazy": "c693631e4d5440a49aac6054f5c126991f47e594899dd6838f2ad0e54b74f97c",
    "tg": "7acce9f3b01dadfcc32bb125b67dcb2230a47e1b4ccd963536873341e71f4ec4",
    "pm1,pm2": "1d5dc59dd793b2eb21e54136bc521e43792c66dc52ac31b0a9c82784240a3baa",
}


@pytest.mark.parametrize("name,dist", [("simple", SIMPLE), ("unit-up", UNIT_UP),
                                       ("lazy", LAZY), ("tg", TG), ("pm1,pm2", PM12)])
def test_stretch_blocks_keep_every_count(monkeypatch, name, dist):
    # blocks of one stretch, the order the loop once settled them in; a first
    # block of 3 stretches, so that trials end on a block's first, middle and
    # last stretch; the default.  The excursion event stops at 10 stretches,
    # so its last block is partial, and at a cap of 20 steps it censors; the
    # third run has a horizon, a stretch limit and a cap; then the edges
    trials = 300
    source = (durations.PassageLaw() if dist.is_simple else
              durations.excursion_tables(dist, 2 ** 11) if dist is PM12 else
              durations.excursion_tables(dist))
    runs = {}
    for draws in (2, 6 * trials, engine._DRAWS):
        monkeypatch.setattr(engine, "_DRAWS", draws)
        runs[draws] = [engine._stretches(dist, Fraction(1, 3), trials, 598, mode, 0,
                                         t_max, n_stretches, source=source,
                                         step_cap=step_cap)
                       for mode in ("strict", "weak")
                       for t_max, n_stretches, step_cap in (
                           (500, _NL, _NL), (_NL, 10, 20), (200, 10, 30),
                           *STRETCH_EDGES)]
    want = runs.pop(2)
    assert any(run[2] > 0 for run in want)  # the cap censors
    assert _digest(*(a for run in want for a in run)) == STRETCH_BLOCK_DIGESTS[name]
    for got in runs.values():
        for (tstar, kstar, censored, flagged), w in zip(got, want):
            np.testing.assert_array_equal(tstar, w[0])
            np.testing.assert_array_equal(kstar, w[1])
            assert (censored, flagged) == w[2:]


def checked(closed_form):
    """A closed form that first asserts its inputs are stretch starts no
    wrapped sum gave: 0 ≤ t < 2^62 and |G| ≤ t on every element."""
    def run(g, t, p, q, strict):
        assert ((0 <= t) & (t < 2 ** 62) & (np.abs(g) <= t)).all()
        return closed_form(g, t, p, q, strict)
    return run


def test_stretch_block_sums_never_wrap(monkeypatch):
    # a block sums τ past the stretch that ends a trial.  Every start time the
    # closed forms see must stay below 2^62, at blocks of one stretch and at
    # the default: at the longest horizon the tables accept (no step cap,
    # √-tail τ clamped at 2^62), at a step cap of 2^58 (tail τ clamped past
    # it, several stretches to a block), on the path of
    # test_exact_excursion_int64_range, and at a horizon of 2^60 with every τ
    # stretched to a multiple of 2^56, where blocks of 3 stretches are the
    # most that cannot pass 2^62
    for name in ("_up_entry_violation", "_down_first_violation"):
        monkeypatch.setattr(engine, name, checked(getattr(engine, name)))
    draw = engine._draw

    def stretched(*args):
        tau, capped, flag, entry = draw(*args)
        return np.minimum(tau, 16) << 56, capped, flag, entry

    tables = durations.excursion_tables(UNIT_UP)
    runs = (lambda: engine._stretches(UNIT_UP, Fraction(1, 3), 300, 599, "weak", 0,
                                      engine._NO_LIMIT - 2, engine._NO_LIMIT,
                                      source=tables),
            lambda: engine._stretches(UNIT_UP, Fraction(1, 3), 300, 599, "weak", 0,
                                      engine._NO_LIMIT, 10, source=tables,
                                      step_cap=2 ** 58),
            lambda: engine._stretches(SIMPLE, X_WIDE[0], 20_000, 5, "weak", 0,
                                      engine._NO_LIMIT, 400),
            lambda: engine._stretches(UNIT_UP, Fraction(1, 3), 300, 599, "strict", 0,
                                      2 ** 60, engine._NO_LIMIT, source=tables))
    default = engine._DRAWS
    results = []
    for i, run in enumerate(runs):
        if i == 3:
            monkeypatch.setattr(engine, "_draw", stretched)
        monkeypatch.setattr(engine, "_DRAWS", 2)
        want = run()
        monkeypatch.setattr(engine, "_DRAWS", default)
        got = run()
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        results.append(got)
    assert results[0][3] > 0 and results[1][3] > 0  # tail draws, clamped
    assert (results[3][0] <= 2 ** 60).sum() > 0  # violations among τ of 2^56 up
