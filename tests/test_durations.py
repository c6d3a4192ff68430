"""Half-excursion duration laws: exact SRW inversion and general tables."""

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from persistwalk import durations, walk
from persistwalk.increments import preset, validate
from persistwalk.rng import RandomStream


def brute_unit_passage_pmf(n_max: int) -> dict:
    """P(first hit of +1 at step n) for the simple walk, by enumeration."""
    pmf = {}
    for steps in product((-1, 1), repeat=n_max):
        s = 0
        for i, d in enumerate(steps, start=1):
            s += d
            if s == 1:
                pmf[i] = pmf.get(i, Fraction(0)) + Fraction(1, 2 ** i) * \
                    Fraction(1, 2 ** (n_max - i))
                break
    return pmf


def test_unit_passage_small_values_exact():
    # inversion boundaries: u in (q_{j+1}, q_j] maps to T = 2j+1
    u = np.array([0.75, 0.5, 0.45, 0.375, 0.3751])
    t, capped = durations.unit_passage_from_uniforms(u)
    np.testing.assert_array_equal(t, [1, 3, 3, 5, 3])
    assert not capped.any()


def test_unit_passage_pmf_matches_enumeration():
    pmf = brute_unit_passage_pmf(9)
    assert pmf[1] == Fraction(1, 2)
    assert pmf[3] == Fraction(1, 8)
    assert pmf[9] == Fraction(7, 256)
    # q_j = C(2j, j) 4^-j gives P(T = 2j+1) = q_j - q_{j+1}
    for j in range(5):
        qj = Fraction(math.comb(2 * j, j), 4 ** j)
        qj1 = Fraction(math.comb(2 * j + 2, j + 1), 4 ** (j + 1))
        assert pmf[2 * j + 1] == qj - qj1


def test_unit_passage_frequencies():
    n = 200_000
    u = RandomStream(401, 0).uniforms(n)
    t, capped = durations.unit_passage_from_uniforms(u)
    assert not capped.any()
    assert np.all(t % 2 == 1)
    for value, p in ((1, 0.5), (3, 0.125), (5, 0.0625)):
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(t == value) - p) <= 3 * sigma
    # tail: P(T > 99) = q_50 exactly
    q50 = math.comb(100, 50) / 4 ** 50
    sigma = math.sqrt(q50 * (1 - q50) / n)
    assert abs(np.mean(t > 99) - q50) <= 3 * sigma


def test_unit_passage_deep_tail_inversion():
    # beyond the table, the inversion must land on j ~ 1/(pi u^2)
    t, capped = durations.unit_passage_from_uniforms(np.array([1e-6]))
    assert not capped[0]
    j = (int(t[0]) - 1) // 2
    assert abs(j * math.pi * 1e-12 - 1.0) < 1e-3


def reference_unit_passage(u, cap_exp):
    """Inversion by full search: a binary search of the whole q-table, then
    an integer bisection on the Wallis expansion for draws past it."""
    q = durations._q_table()
    jmax = 1 << cap_exp
    j = np.searchsorted(-q, -u, side="right").astype(np.int64) - 1
    if jmax <= len(q) - 1:
        return 2 * np.minimum(j, jmax) + 1, j >= jmax
    capped = np.zeros(u.shape, dtype=bool)
    in_tail = j >= len(q) - 1
    log_ut = np.log(u[in_tail])
    deep = durations._log_q(jmax) >= log_ut
    lo = np.full(log_ut.shape, len(q) - 1, dtype=np.int64)
    hi = np.full(log_ut.shape, jmax, dtype=np.int64)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        ge = durations._log_q(mid) >= log_ut
        lo = np.where(ge, mid, lo)
        hi = np.where(ge, hi, mid)
    j[in_tail] = np.where(deep, jmax, lo)
    capped[in_tail] = deep
    return 2 * j + 1, capped


def test_unit_passage_matches_full_search():
    q = durations._q_table()
    edge = q[1:]
    lo = 2.0 ** -54  # the extreme uniforms of rng.uniform_at
    # log-uniform over the tail, where the expansion takes over
    deep = np.exp(np.log(lo) + np.log(q[-1] / lo)
                  * RandomStream(406, 0).uniforms(1_000_000))
    u = np.concatenate([edge, np.nextafter(edge, 0), np.nextafter(edge, 2),
                        [lo, 1 - lo], deep])
    # 43 and 45 are the caps the ξ pair loop's retries reach
    for cap_exp in (10, 19, 20, 39, 41, 43, 45):
        # with the uniforms exp(ln q_j) at j = jmax - 1, jmax, jmax + 1 and
        # their neighbours, jmax = 2^cap_exp
        at_cap = np.exp(durations._log_q((1 << cap_exp) + np.arange(-1, 2)))
        v = np.concatenate([u, at_cap, np.nextafter(at_cap, 0),
                            np.nextafter(at_cap, 2)])
        t, capped = durations.unit_passage_from_uniforms(v, cap_exp=cap_exp)
        t_ref, capped_ref = reference_unit_passage(v, cap_exp)
        np.testing.assert_array_equal(t, t_ref)
        np.testing.assert_array_equal(capped, capped_ref)


def test_unit_passage_cap():
    t, capped = durations.unit_passage_from_uniforms(np.array([1e-12, 0.3]))
    assert capped.tolist() == [True, False]
    assert t[0] == 2 * (1 << durations.DEFAULT_PASSAGE_CAP_EXP) + 1
    # a cap inside the exact table range clamps and flags as well
    t, capped = durations.unit_passage_from_uniforms(
        np.array([1e-3, 0.9]), cap_exp=10)
    assert t.tolist() == [2049, 1] and capped.tolist() == [True, False]


def test_tau_is_even_sum_of_two_passages():
    s = RandomStream(402, 0)
    tau, capped = durations.srw_tau_from_uniform_pairs(s.uniforms(1000),
                                                       s.uniforms(1000))
    assert np.all(tau % 2 == 0) and np.all(tau >= 2)
    assert not capped.any()
    # capping either leg flags the pair
    tau, capped = durations.srw_tau_from_uniform_pairs(
        np.array([1e-12]), np.array([0.4]))
    assert capped[0] and tau[0] > 1 << 40


def test_halfexcursion_survival_small_values():
    surv = durations.srw_halfexcursion_survival(np.array([2, 4, 10]))
    assert abs(surv[0] - 3 / 4) < 1e-15          # 1 - P(T=1)^2
    assert abs(surv[1] - 5 / 8) < 1e-15          # minus 2*P(1)P(3)
    assert abs(surv[2] - 231 / 512) < 1e-15      # enumeration over 2^9 paths


def test_halfexcursion_survival_matches_sampler():
    n = 200_000
    s = RandomStream(403, 0)
    tau, _ = durations.srw_tau_from_uniform_pairs(s.uniforms(n), s.uniforms(n))
    for h in (2, 4, 10, 20, 100):
        p = float(durations.srw_halfexcursion_survival(np.array([h]))[0])
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(tau > h) - p) <= 3 * sigma


def test_halfexcursion_tail_constant():
    # sqrt(n) * P(tau > n) climbs toward 2*sqrt(2/pi) = 1.5958
    n = np.array([100, 10_000])
    scaled = np.sqrt(n) * durations.srw_halfexcursion_survival(n)
    assert abs(scaled[0] - 1.57618) < 1e-4
    assert abs(scaled[1] - 1.59557) < 1e-4
    assert scaled[0] < scaled[1] < 2 * math.sqrt(2 / math.pi)


def test_entry_closure():
    assert durations._entry_closure(preset("simple")) == ([1], [-1])
    assert durations._entry_closure(preset("unit-up", negatives=[-2])) == \
        ([1], [-2, -1])
    tg = preset("truncated-geometric", p="1/2", cutoff=3)
    assert durations._entry_closure(tg) == ([1, 2, 3], [-1])
    lazy = validate([(-1, Fraction(1, 4)), (0, Fraction(1, 2)),
                     (1, Fraction(1, 4))])
    assert durations._entry_closure(lazy) == ([0, 1], [-1])


def test_tables_cache_and_shape():
    d = preset("simple")
    t = durations.excursion_tables(d, 4096)
    assert durations.excursion_tables(d, 4096) is t
    assert t.pos.entries == [1] and t.neg.entries == [1]
    assert t.pos.exit_values == [-1]
    assert durations.DEFAULT_TABLE_SIZE == 1 << 15
    # arrays are stacked over entries: (E, N+1), (E, N+1, K), (E, K), (E,)
    assert t.pos.neg_surv.shape == (1, 4097)
    assert t.pos.exit_cum.shape == (1, 4097, 1)
    assert t.pos.tail_cum.shape == (1, 1) and t.pos.tail_p.shape == (1,)


# SHA-256 of every table array and of sample_tau/sample_exit on fixed
# uniforms, from the build that stepped absorption inside the DP loop, kept
# one array per entry and sampled exits entry by entry; none of that may
# move a bit
TABLE_DIGESTS = {
    "unit-up:-2": "71966fa558e4dc9d6214ce81ca8f734ad72b3f125f9ef01159fc537b938bc8ca",
    "unit-up:-2,-3": "87850318d4fa99b9ee3976385476fcbde57654dfed4cc9f5e2138f1733730d84",
    "lazy": "7983bb78ea2b8492bd755fb12b65d3c154869fc7e069afefa95de91c44f0c07a",
    "unit-up:-17,-2": "fe4d6776c24bb83da016c0355b36571d35c7ac8daceadcff5b9889960618f9bb",
}


@pytest.mark.parametrize("name,dist", [
    ("unit-up:-2", preset("unit-up", negatives=[-2])),
    ("unit-up:-2,-3", preset("unit-up", negatives=[-2, -3])),
    ("lazy", validate([(-1, Fraction(1, 4)), (0, Fraction(1, 2)),
                       (1, Fraction(1, 4))])),
    # 17 landing depths: row sums over more than 8 columns
    ("unit-up:-17,-2", preset("unit-up", negatives=[-17, -2])),
])
def test_tables_and_draws_pinned(name, dist):
    t = durations.excursion_tables(dist, 2048)
    h = hashlib.sha256()
    for side in ("pos", "neg"):
        st = getattr(t, side)
        for e in range(len(st.entries)):
            for a in (st.neg_surv[e], st.exit_cum[e], st.tail_cum[e], st.tail_p[e]):
                h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        n = 50_000
        ei = (RandomStream(406, 0).uniforms(n) * len(st.entries)).astype(np.int64)
        u = RandomStream(406, 1).uniforms(n) ** 3  # many draws past the table
        tau, tail = t.sample_tau(side, ei, u)
        ex = t.sample_exit(side, ei, tau, tail, RandomStream(406, 2).uniforms(n))
        assert tail.sum() > 10_000
        h.update(np.ascontiguousarray(tau, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(ex, dtype="<i8").tobytes())
    assert h.hexdigest() == TABLE_DIGESTS[name]


def reference_sample_tau(tables, side, entry_idx, u):
    """Inversion by a binary search of each entry's whole survival row, one
    entry state at a time, with the √-tail formula past the table."""
    st = getattr(tables, side)
    tau = np.empty(u.shape, dtype=np.float64)
    tail = np.zeros(u.shape, dtype=bool)
    for e in range(len(st.entries)):
        m = entry_idx == e
        um = u[m]
        t = np.searchsorted(st.neg_surv[e], -um, side="right").astype(np.float64)
        pt = st.tail_p[e]
        deep = um <= pt
        t[deep] = np.ceil(tables.n_table * (pt / um[deep]) ** 2)
        tau[m] = t
        tail[m] = deep
    return tau, tail


def reference_sample_exit(tables, side, entry_idx, tau, tail, u):
    """Exit by gathering each draw's whole cumulative row and counting the
    columns below u (an index past the last column raises)."""
    st = getattr(tables, side)
    other = tables.neg_index if side == "pos" else tables.pos_index
    sign = -1 if side == "pos" else 1
    trans = np.array([other[sign * d] for d in range(1, len(st.exit_values) + 1)],
                     dtype=np.int64)
    cums = st.exit_cum[entry_idx, np.where(tail, 0, tau).astype(np.int64)]
    cums[tail] = st.tail_cum[entry_idx[tail]]
    return trans[(u > cums.T.copy()).sum(axis=0)]


SAMPLER_WALKS = {
    "simple": preset("simple"),
    "unit-up:-2": preset("unit-up", negatives=[-2]),
    "unit-up:-2,-3": preset("unit-up", negatives=[-2, -3]),
    "lazy": validate([(-1, Fraction(1, 4)), (0, Fraction(1, 2)),
                      (1, Fraction(1, 4))]),
    "unit-up:-17,-2": preset("unit-up", negatives=[-17, -2]),
}


@pytest.mark.parametrize("n_table", [2048, durations.DEFAULT_TABLE_SIZE])
@pytest.mark.parametrize("name", list(SAMPLER_WALKS))
def test_samplers_match_full_search(name, n_table):
    # every survival value of every row, its neighbours toward 0 and 1, the
    # tail edge P(τ > N) with its neighbours and the largest uniform; then
    # exits at one cumulative of each draw's row, cycling over the columns,
    # with its neighbours
    t = durations.excursion_tables(SAMPLER_WALKS[name], n_table)
    for side in ("pos", "neg"):
        st = getattr(t, side)
        us, es = [], []
        for e in range(len(st.entries)):
            s = -st.neg_surv[e]
            pt = st.tail_p[e]
            u = np.concatenate([s, np.nextafter(s, 0), np.nextafter(s, 1),
                                [pt, np.nextafter(pt, 0), np.nextafter(pt, 1),
                                 1 - 2.0 ** -53]])
            u = u[(u > 0) & (u < 1)]
            us.append(u)
            es.append(np.full(u.size, e, dtype=np.int64))
        u, ei = np.concatenate(us), np.concatenate(es)
        tau, tail = t.sample_tau(side, ei, u)
        tau_ref, tail_ref = reference_sample_tau(t, side, ei, u)
        np.testing.assert_array_equal(tau, tau_ref)
        np.testing.assert_array_equal(tail, tail_ref)
        assert tail.any() and not tail.all()

        kcols = len(st.exit_values)
        rows = np.where(tail, 0, tau).astype(np.int64)
        cums = st.exit_cum[ei, rows]
        cums[tail] = st.tail_cum[ei[tail]]
        k = np.arange(u.size) % kcols
        at = cums[np.arange(u.size), k]
        for ue in (at, np.nextafter(at, 0), np.nextafter(at, 1)):
            ue = np.clip(ue, 2.0 ** -54, 1 - 2.0 ** -53)
            ex = t.sample_exit(side, ei, tau, tail, ue)
            ok = ue <= cums[:, -1]
            np.testing.assert_array_equal(
                ex[ok], reference_sample_exit(t, side, ei[ok], tau[ok], tail[ok],
                                              ue[ok]))
            # past a last cumulative that rounded below 1.0: the last exit
            assert np.all(ex[~ok] == t.exit_entry[side][-1])


def test_sample_exit_past_a_last_cumulative_below_one():
    # on unit-up:-2,-3 the pos row e = 0, n = 6 sums to 1 - 2^-52; a u
    # above that once counted one column past the last exit
    t = durations.excursion_tables(preset("unit-up", negatives=[-2, -3]), 2048)
    assert t.pos.exit_cum[0, 6, -1] == 1 - 2.0 ** -52
    args = ("pos", np.array([0]), np.array([6.0]), np.array([False]),
            np.array([1 - 2.0 ** -53]))
    assert t.sample_exit(*args).tolist() == [t.neg_index[-3]]
    with pytest.raises(IndexError):
        reference_sample_exit(t, *args)
    assert t.sample_exit(*args[:-1], np.array([1.0])).tolist() == [t.neg_index[-3]]


def test_srw_table_matches_convolution():
    # the per-entry DP and the passage-time convolution are independent
    # derivations of the same survival curve
    t = durations.excursion_tables(preset("simple"), 4096)
    n = np.arange(1, 4001)
    dp = -t.pos.neg_surv[0][n]
    conv = durations.srw_halfexcursion_survival(n)
    assert np.max(np.abs(dp - conv)) < 1e-12
    mirrored = -t.neg.neg_surv[0][n]
    assert np.max(np.abs(mirrored - conv)) < 1e-12


def test_sample_tau_matches_table_and_tail():
    t = durations.excursion_tables(preset("simple"), 4096)
    n = 100_000
    u = RandomStream(404, 0).uniforms(n)
    idx = np.zeros(n, dtype=np.int64)
    tau, tail = t.sample_tau("pos", idx, u)
    for h in (2, 10, 100):
        p = float(durations.srw_halfexcursion_survival(np.array([h]))[0])
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(tau > h) - p) <= 3 * sigma
    # tail draws sit beyond the table and follow the sqrt extension
    pt = t.pos.tail_p[0]
    sigma = math.sqrt(pt * (1 - pt) / n)
    assert abs(np.mean(tail) - pt) <= 3 * sigma
    assert np.all(tau[tail] >= t.n_table)
    # P(tau > 4*N | tail) = 1/2 under the sqrt law
    frac = np.mean(tau[tail] > 4 * t.n_table)
    assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / max(tail.sum(), 1))
    # simple walk always re-enters at the opposite unit level
    exits = t.sample_exit("pos", idx, tau, tail, RandomStream(404, 1).uniforms(n))
    assert np.all(exits == 0)


def test_first_stretch_survival_unit_up_tables_vs_paths():
    # table mixture for the first stretch vs direct path simulation
    d = preset("unit-up", negatives=[-2])
    t = durations.excursion_tables(d, 4096)
    horizon, n = 64, 20_000
    first = np.zeros(n, dtype=np.int64)
    tau1 = np.zeros(n, dtype=np.int64)
    for i in range(n):
        path = walk.simulate_path(d, horizon, RandomStream(405, i))
        dec = walk.decompose(path)
        first[i] = path[1]
        tau1[i] = dec.durations[0] if dec.durations else horizon + 1
    p_plus = 2 / 3
    for h in (1, 2, 4, 8, 16, 32):
        mix = (p_plus * -t.pos.neg_surv[t.pos_index[1]][h]
               + (1 - p_plus) * -t.neg.neg_surv[t.neg_index[-2]][h])
        emp = np.mean(tau1 > h)
        sigma = math.sqrt(mix * (1 - mix) / n)
        assert abs(emp - mix) <= 4 * sigma
    # entry states are the first-step values with the right frequencies
    assert set(np.unique(first)) == {-2, 1}
    assert abs(np.mean(first == 1) - p_plus) <= 3 * math.sqrt(p_plus / 3 / n)
