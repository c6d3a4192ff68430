"""Event engines: stepped vs exact-excursion vs duration-table agreement."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistwalk import durations, engine, walk
from persistwalk.errors import OutOfDomain
from persistwalk.increments import preset, steps_from_uniforms, validate
from persistwalk.rng import trial_keys, uniform_at

SIMPLE = preset("simple")
UNIT_UP = preset("unit-up", negatives=[-2])
TG = preset("truncated-geometric", p="1/2", cutoff=3)
LAZY = validate([(-1, Fraction(1, 4)), (0, Fraction(1, 2)), (1, Fraction(1, 4))])


def test_pick_engine():
    assert engine.pick_engine(SIMPLE) == "exact-excursion"
    assert engine.pick_engine(UNIT_UP) == "duration-table"
    assert engine.pick_engine(SIMPLE, "exact") == "exact-excursion"
    assert engine.pick_engine(UNIT_UP, "table") == "duration-table"
    assert engine.pick_engine(UNIT_UP, "stepped") == "stepped"
    with pytest.raises(ValueError):
        engine.pick_engine(UNIT_UP, "exact")
    with pytest.raises(ValueError):
        engine.pick_engine(SIMPLE, "warp")


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


def brute_first_violation_times(dist, x, t_max, trials, seed, mode,
                                trial_offset=0):
    """Recompute stepped_first_violation from raw paths, trial by trial,
    with the barrier q·G_s vs p·s in Python integers."""
    p, q = x.numerator, x.denominator
    keys = trial_keys(seed, np.arange(trial_offset, trial_offset + trials,
                                      dtype=np.uint64))
    out = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        u = uniform_at(np.full(t_max, keys[i], dtype=np.uint64),
                       np.arange(t_max, dtype=np.uint64))
        path = np.concatenate([[0], np.cumsum(steps_from_uniforms(dist, u))])
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
    """stepped_a_progress one step per pass, as the engine ran before it
    advanced trials in blocks, with the barrier in Python integers.

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


def test_stepped_barrier_exact_for_wide_x():
    # q·G_s was formed in int64, which wraps at x = (2^60 - 1)/2^61 once
    # G_s ≥ 4: P(no violation by t = 20) read 0.0 where x = 1/2 reads 0.2095
    x = Fraction(2 ** 60 - 1, 2 ** 61)
    for mode in ("strict", "weak"):
        got = engine.stepped_first_violation(SIMPLE, x, 20, 2000, 7, mode=mode)
        want = brute_first_violation_times(SIMPLE, x, 20, 2000, 7, mode)
        np.testing.assert_array_equal(got, want)
        assert np.mean(got > 20) > 0.2
    got, capped = engine.stepped_a_progress(SIMPLE, x, 2, 300, 7, step_cap=64)
    want, want_capped, _ = reference_stepped_a_progress(SIMPLE, x, 2, 300, 7,
                                                        step_cap=64)
    np.testing.assert_array_equal(got, want)
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
                    got, capped = engine.stepped_a_progress(
                        dist, x, k_max, trials, 8883, mode=mode,
                        step_cap=step_cap, trial_offset=17)
                    want, want_capped, seen = reference_stepped_a_progress(
                        dist, x, k_max, trials, 8883, mode=mode,
                        step_cap=step_cap, trial_offset=17)
                    np.testing.assert_array_equal(got, want)
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
    got, _ = engine.srw_excursion_a_progress(x, 200, 20_000, seed=5)
    monkeypatch.setattr(engine, "_up_entry_violation", int_up_entry_violation)
    monkeypatch.setattr(engine, "_down_first_violation",
                        int_down_first_violation)
    want, _ = engine.srw_excursion_a_progress(x, 200, 20_000, seed=5)
    np.testing.assert_array_equal(got, want)
    monkeypatch.undo()
    with pytest.raises(OutOfDomain):
        engine.srw_excursion_a_progress(X_REFUSED, 200, 20_000, seed=5)
    with pytest.raises(OutOfDomain):
        engine.srw_excursion_first_violation(X_REFUSED, 100, 10, seed=5)
    with pytest.raises(OutOfDomain):
        engine._srw_xi_chunk(X_REFUSED, 10, 10, 5, (10,), 0)


def int_xi_counts(x, n_pairs, trials, seed, record_ns):
    """alive/neg counts of _srw_xi_chunk with W summed in Python integers."""
    p, q = x.numerator, x.denominator
    keys = trial_keys(seed, np.arange(trials, dtype=np.uint64))
    ctr = np.zeros(trials, dtype=np.uint64)
    ctr += np.where(uniform_at(keys, ctr) < 0.5, 3, 1).astype(np.uint64)
    w = np.zeros(trials, dtype=object)
    alive = np.ones(trials, dtype=bool)
    alive_counts, neg_counts = [], []
    for m in range(1, n_pairs + 1):
        tp, _ = durations.srw_tau_from_uniform_pairs(uniform_at(keys, ctr),
                                                     uniform_at(keys, ctr + 1))
        tm, _ = durations.srw_tau_from_uniform_pairs(uniform_at(keys, ctr + 2),
                                                     uniform_at(keys, ctr + 3))
        ctr += 4
        w = w + (q - p) * tp.astype(object) - (q + p) * tm.astype(object)
        neg = np.asarray(w < 0, dtype=bool)
        alive &= ~neg
        if m in record_ns:
            alive_counts.append(int(alive.sum()))
            neg_counts.append(int(neg.sum()))
    return alive_counts, neg_counts


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2)] + X_WIDE)
def test_srw_xi_w_is_exact(x):
    # (q ± p)·τ passed 2^63 for x = 1/3037000000 at seed 1 and flipped signs
    res = engine._srw_xi_chunk(x, 50, 2000, 1, (10, 50), 0)
    alive_counts, neg_counts = int_xi_counts(x, 50, 2000, 1, (10, 50))
    assert res.alive_counts.tolist() == alive_counts
    assert res.neg_counts.tolist() == neg_counts


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
    fast = engine.atilde_counts(SIMPLE, x, 512, 30_000, 515, grid,
                                mode=mode, engine_kind="exact")
    slow = engine.atilde_counts(SIMPLE, x, 512, 30_000, 516, grid,
                                mode=mode, engine_kind="stepped")
    assert fast.engine == "exact-excursion" and slow.engine == "stepped"
    assert _proportions_close(fast, slow)


def test_a_counts_exact_vs_stepped():
    # Stepping to the 2k-th crossing has infinite expected cost (E[tau] is
    # infinite), so the stepped reference run needs a modest per-stretch cap
    # and small k; capped trials are counted as survivors (documented upward
    # bias), so caps must stay rare next to the comparison tolerance.
    grid = (1, 2)
    fast = engine.a_counts(SIMPLE, Fraction(1, 2), 2, 6000, 525, grid,
                           engine_kind="exact")
    slow = engine.a_counts(SIMPLE, Fraction(1, 2), 2, 6000, 526, grid,
                           engine_kind="stepped", step_cap=100_000)
    assert fast.engine == "exact-excursion" and slow.engine == "stepped"
    assert slow.capped <= 0.008 * slow.trials
    assert _proportions_close(fast, slow, z=4.0)
    # survivors can only decrease along the grid
    assert np.all(np.diff(fast.survivors) <= 0)


def test_worker_splits_are_bit_identical():
    for kind in ("exact", "stepped"):
        one = engine.atilde_counts(SIMPLE, Fraction(1, 2), 200, 5000, 531,
                                   (10, 200), engine_kind=kind, workers=1)
        many = engine.atilde_counts(SIMPLE, Fraction(1, 2), 200, 5000, 531,
                                    (10, 200), engine_kind=kind, workers=3)
        np.testing.assert_array_equal(one.survivors, many.survivors)
        assert one.capped == many.capped
    # each chunk picks its own block lengths; the counts must not move
    one = engine.atilde_counts(UNIT_UP, Fraction(0), 2000, 3000, 533,
                               (10, 100, 2000), workers=1)
    two = engine.atilde_counts(UNIT_UP, Fraction(0), 2000, 3000, 533,
                               (10, 100, 2000), workers=2)
    assert one.engine == two.engine == "stepped"
    np.testing.assert_array_equal(one.survivors, two.survivors)
    kw = dict(step_cap=20_000)  # keep the stepped reference runs short
    one = engine.a_counts(UNIT_UP, Fraction(0), 4, 1500, 532, (2, 4), **kw)
    many = engine.a_counts(UNIT_UP, Fraction(0), 4, 1500, 532, (2, 4),
                           workers=4, **kw)
    np.testing.assert_array_equal(one.survivors, many.survivors)


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


def test_xi_exact_vs_table_on_simple_walk():
    # the two engines implement the same event with independent machinery
    ns = (10, 100)
    ex = engine.run_xi_trials(SIMPLE, Fraction(1, 2), 100, 20_000, 551,
                              record_ns=ns, engine_kind="exact")
    tb = engine.run_xi_trials(SIMPLE, Fraction(1, 2), 100, 20_000, 552,
                              record_ns=ns, engine_kind="table")
    assert ex.engine == "exact-excursion" and tb.engine == "duration-table"
    for j in range(len(ns)):
        p1, p2 = ex.alive_counts[j] / ex.trials, tb.alive_counts[j] / tb.trials
        pbar = (ex.alive_counts[j] + tb.alive_counts[j]) / (2 * 20_000)
        sigma = math.sqrt(max(pbar * (1 - pbar), 1e-12) * 2 / 20_000)
        assert abs(p1 - p2) <= 3 * sigma
    assert np.all(np.diff(ex.alive_counts) <= 0)


def test_xi_record_ns_validation():
    with pytest.raises(ValueError):
        engine.run_xi_trials(SIMPLE, Fraction(0), 10, 100, 561,
                             record_ns=(5, 11))
    r = engine.run_xi_trials(SIMPLE, Fraction(0), 10, 500, 561,
                             record_ns=(10, 5, 5))
    assert r.record_ns == (5, 10)
    assert r.decided + r.undecided == r.trials
    # an entry below 1 was never reached and zeroed every count after it
    for bad in ((0, 10), (-3, 10)):
        with pytest.raises(ValueError):
            engine.run_xi_trials(SIMPLE, Fraction(0), 10, 500, 561,
                                 record_ns=bad)
    for n in (0, -1):
        with pytest.raises(ValueError):
            engine.run_xi_trials(SIMPLE, Fraction(0), n, 500, 561)
    ref = engine.run_xi_trials(SIMPLE, Fraction(0), 10, 500, 561,
                               record_ns=(10,))
    r = engine.run_xi_trials(SIMPLE, Fraction(0), 10, 500, 561,
                             record_ns=(1, 10))
    assert r.alive_counts[0] >= r.alive_counts[1] == ref.alive_counts[0] > 0


def test_engines_refuse_unknown_mode():
    # a misspelt mode used to run the weak barrier silently
    runs = ((engine.stepped_first_violation, (SIMPLE, Fraction(0), 10, 5, 1)),
            (engine.stepped_a_progress, (SIMPLE, Fraction(0), 2, 5, 1)),
            (engine.srw_excursion_first_violation, (Fraction(0), 10, 5, 1)),
            (engine.srw_excursion_a_progress, (Fraction(0), 2, 5, 1)))
    for fn, args in runs:
        for mode in ("Strict", "weak ", ""):
            with pytest.raises(ValueError, match="mode"):
                fn(*args, mode=mode)


def test_srw_xi_cap_retry_resolution():
    # a tiny passage cap forces many censored draws; retries must resolve
    # most final signs and what remains is flagged, not guessed
    res = engine._srw_xi_chunk(Fraction(1, 2), 10, 4000, 571, (10,), 0,
                               cap_exp=12)
    assert res.capped_draws > 0
    assert res.decided + res.undecided == 4000
    assert res.retries_used >= 1
    ref = engine._srw_xi_chunk(Fraction(1, 2), 10, 4000, 572, (10,), 0)
    p1 = res.alive_counts[0] / 4000
    p2 = ref.alive_counts[0] / 4000
    assert abs(p1 - p2) <= 4 * math.sqrt(p2 * (1 - p2) * 2 / 4000)


def int_xi_final(x, n_pairs, keys, cap_exp):
    """Final sign of W (summed in Python integers) and the undecided mask
    per trial, at one passage cap."""
    p, q = x.numerator, x.denominator
    ctr = np.zeros(keys.size, dtype=np.uint64)
    ctr += np.where(uniform_at(keys, ctr) < 0.5, 3, 1).astype(np.uint64)
    w = np.zeros(keys.size, dtype=object)
    cap_pos = np.zeros(keys.size, dtype=bool)
    cap_neg = np.zeros(keys.size, dtype=bool)
    for _ in range(n_pairs):
        tp, cp = durations.srw_tau_from_uniform_pairs(
            uniform_at(keys, ctr), uniform_at(keys, ctr + 1), cap_exp=cap_exp)
        tm, cm = durations.srw_tau_from_uniform_pairs(
            uniform_at(keys, ctr + 2), uniform_at(keys, ctr + 3), cap_exp=cap_exp)
        ctr += 4
        w = w + (q - p) * tp.astype(object) - (q + p) * tm.astype(object)
        cap_pos |= cp
        cap_neg |= cm
    neg = np.asarray(w < 0, dtype=bool)
    return neg, (neg & cap_pos) | (~neg & cap_neg)


def test_srw_xi_retry_matches_integer_replay():
    # retry r settles a trial left undecided by the rounds before it from
    # its whole replay at cap_exp + 2r; here every trial is replayed at
    # every cap, in Python integers, and only the undecided ones take it
    x, n_pairs, trials, seed = Fraction(1, 2), 10, 4000, 571
    keys = trial_keys(seed, np.arange(trials, dtype=np.uint64))
    neg, undecided = int_xi_final(x, n_pairs, keys, 12)
    for r in (1, 2, 3):
        neg_r, undecided_r = int_xi_final(x, n_pairs, keys, 12 + 2 * r)
        neg = np.where(undecided, neg_r, neg)
        undecided &= undecided_r
    res = engine._srw_xi_chunk(x, n_pairs, trials, seed, (10,), 0, cap_exp=12)
    assert res.undecided == int(undecided.sum()) > 0
    assert res.decided == trials - res.undecided
    assert res.negative_final == int((neg & ~undecided).sum())


def _pairs_digest(tau_p, tau_m, info):
    h = hashlib.sha256()
    for a in (tau_p, tau_m):
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    h.update(json.dumps(info, sort_keys=True).encode())
    return h.hexdigest()


# digests of (tau_plus, tau_minus, info) from the engine that stepped lanes
# with its own inline block code; the shared block helper must keep them
PAIRS_DIGESTS = {
    581: "a67dde90e4964f7d55a8aa1145936b476d4222c1d62d5228966daf2b2be1a5a0",
    582: "0115f0f39ebeb28f3185a91e31d54c4a1da445bd3c72aea705afbb7a9f390d73",
    583: "cee061fc673921fc82a547eba3d4cc92a942943d1e0f63b6175a49385c24841f",
    584: "0d1eab4125d924254c42bcd36b617c1e0c5993b3d54669ec79a25ec470a72541",
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


def test_collect_duration_pairs_lane_invariance():
    # the stepped harvest must not depend on how trials are laned; a modest
    # cap keeps the slowest lane short (the censored tail is identical in law
    # for both runs, so the survival comparison is still like-for-like)
    n = 4000
    kw = dict(step_cap=1 << 16)
    a_p, a_m, info_a = engine.collect_duration_pairs(UNIT_UP, n, 582, lanes=5,
                                                     **kw)
    b_p, b_m, info_b = engine.collect_duration_pairs(UNIT_UP, n, 583,
                                                     lanes=101, **kw)
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


def test_collect_duration_pairs_censoring():
    # a small step cap right-censors at cap + 1 and restarts the lane; the
    # cap is enforced at 64-step block ends, so a stretch that completes
    # mid-block can be recorded at its true length up to cap + 63
    tau_p, tau_m, info = engine.collect_duration_pairs(UNIT_UP, 4000, 584,
                                                       step_cap=256, lanes=32)
    assert _pairs_digest(tau_p, tau_m, info) == PAIRS_DIGESTS[584]
    assert tau_p.max() <= 256 + 63 and tau_m.max() <= 256 + 63
    assert info["censored_pos"] + info["censored_neg"] > 0
    assert info["restarts"] > 0
    assert info["cap"] == 257
    # censored stretches really are written with the sentinel value
    assert np.any(tau_p == 257) or np.any(tau_m == 257)


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

TABLE_XI_DIGESTS = {
    "simple": "bee7ff52c3f0478912b9abb20c8dd3fbb55c5e2464f363a84f16634a616e841c",
    "unit-up": "16aa2b4e4ffde2bfaf810d56b14c2a557223677de475af725845b9ee81e71c4b",
    "tg": "38c6df5a78fa578033429d4557e455f08ebb77fbad354ddcd9ea6a4e65dd6d3d",
    "lazy": "7f565ec33bfd1caeb3fde4a242e8354170b65ccda9d819c0a0c4d3d0a003d326",
}


@pytest.mark.parametrize("x", X_PINNED, ids=str)
@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_exact_stretch_engines_pinned(x, mode):
    tstar, capped = engine.srw_excursion_first_violation(
        x, 3000, 2000, 591, mode=mode, trial_offset=1234)
    assert _digest(tstar, capped) == STRETCH_DIGESTS["time", str(x), mode]
    mstar, capped = engine.srw_excursion_a_progress(
        x, 60, 2000, 592, mode=mode, trial_offset=1234)
    assert _digest(mstar, capped) == STRETCH_DIGESTS["excursion", str(x), mode]


def test_exact_stretch_engines_pinned_with_caps():
    # a tiny passage cap makes capped draws common; their count is pinned too
    tstar, capped = engine.srw_excursion_first_violation(
        Fraction(1, 2), 3000, 2000, 593, trial_offset=77, cap_exp=6)
    assert capped > 0
    assert _digest(tstar, capped) == STRETCH_DIGESTS["time", "cap", "strict"]
    mstar, capped = engine.srw_excursion_a_progress(
        Fraction(1, 2), 60, 2000, 594, trial_offset=77, cap_exp=6)
    assert capped > 0
    assert _digest(mstar, capped) == STRETCH_DIGESTS["excursion", "cap", "weak"]


@pytest.mark.parametrize("x", X_PINNED, ids=str)
def test_srw_xi_chunk_pinned(x):
    res = engine._srw_xi_chunk(x, 50, 2000, 595, (10, 50), 321)
    assert _xi_digest(res) == XI_DIGESTS[str(x)]


def test_srw_xi_chunk_retry_pinned():
    res = engine._srw_xi_chunk(Fraction(1, 2), 10, 4000, 571, (10,), 0,
                               cap_exp=12)
    assert res.retries_used >= 1 and res.undecided > 0
    assert _xi_digest(res) == XI_DIGESTS["retry"]


@pytest.mark.parametrize("name,dist", [("simple", SIMPLE),
                                       ("unit-up", UNIT_UP),
                                       ("tg", TG), ("lazy", LAZY)])
def test_table_xi_chunk_pinned(name, dist):
    res = engine._table_xi_chunk(dist, Fraction(1, 3), 30, 2000, 596,
                                 (10, 30), 321)
    assert _xi_digest(res) == TABLE_XI_DIGESTS[name]
