"""Half-excursion duration laws: exact SRW inversion and general tables."""

import dataclasses
import hashlib
import math
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from persistwalk import durations, walk
from persistwalk.errors import OutOfRange
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


@pytest.mark.parametrize("cap_exp", [5, durations.DEFAULT_PASSAGE_CAP_EXP])
def test_unit_passage_keeps_shape(cap_exp):
    # a (4, 2) batch raised IndexError in the upward pass, after the
    # downward pass had moved guesses by flat index along the rows
    u = np.r_[RandomStream(612, 0).uniforms(22),
              [1e-4, 1e-7, 3e-13, 1e-15, 2.0 ** -54, 0.5, 1 - 2.0 ** -53, 1.0]]
    flat_t, flat_c = durations.unit_passage_from_uniforms(u, cap_exp=cap_exp)
    assert flat_c.any() and not flat_c.all()
    for shape in ((3, 5, 2), (30, 1), (2, 15)):
        t, c = durations.unit_passage_from_uniforms(u.reshape(shape), cap_exp=cap_exp)
        assert np.array_equal(t, flat_t.reshape(shape))
        assert np.array_equal(c, flat_c.reshape(shape))
        tau, capped = durations.srw_tau_from_uniform_pairs(
            u.reshape(shape), u[::-1].reshape(shape), cap_exp=cap_exp)
        assert np.array_equal(tau, (flat_t + flat_t[::-1]).reshape(shape))
        assert np.array_equal(capped, (flat_c | flat_c[::-1]).reshape(shape))
    # a strided view inverts as its copy does
    t, c = durations.unit_passage_from_uniforms(u.reshape(3, 5, 2)[:, ::2, 1],
                                                cap_exp=cap_exp)
    assert np.array_equal(t, flat_t.reshape(3, 5, 2)[:, ::2, 1])
    for shape in ((0,), (3, 0, 2)):
        t, c = durations.unit_passage_from_uniforms(np.empty(shape), cap_exp=cap_exp)
        assert t.shape == c.shape == shape and c.dtype == bool


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


@pytest.mark.parametrize("make", [
    lambda: durations.PassageLaw(), lambda: durations.PassageLaw(6),
    lambda: durations.excursion_tables(preset("unit-up", negatives=[-2]))],
    ids=["passage", "passage-cap-6", "unit-up-tables"])
def test_duration_sources_share_one_draw_contract(make):
    # the engine's exact loops read a source only through these members,
    # from (stretch, 2, trial) uniforms; u = 2^-60 caps both passages, and
    # on the tables takes a √-tail τ past 2^62, the tables' clamp
    source = make()
    u = RandomStream(403, 0).uniforms(5 * 2 * 64).reshape(5, 2, 64)
    u[0, :, :4] = 2.0 ** -60
    entry = source.first_entries(np.ones(64, dtype=np.int64))
    tau, capped, flagged, after = source.stretches(u, True, entry)
    assert tau.shape == capped.shape == flagged.shape == (5, 64)
    assert after.shape == (64,)
    assert tau.dtype == np.int64 and ((1 <= tau) & (tau <= source.longest)).all()
    assert (tau[0, :4] == source.longest).all() and capped[0, :4].all()
    if isinstance(source, durations.PassageLaw):
        want = durations.srw_tau_from_uniform_pairs(u[:, 0], u[:, 1],
                                                    cap_exp=source.cap_exp)
        for got, w in zip((tau, capped, flagged), (*want, want[1])):
            np.testing.assert_array_equal(got, w)
        assert after is entry and source.at_cap(4) == durations.PassageLaw(4)
    else:
        assert source.at_cap(4) is source


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
    # steps sharing a factor g reach only its multiples: {+2, -2} and the
    # lazy {+3, 0, -3} built tables for heights and depths 1 (and 2) too
    for atoms, want in (([(2, 1, 2), (-2, 1, 2)], ([2], [-2])),
                        ([(3, 1, 4), (0, 1, 2), (-3, 1, 4)], ([0, 3], [-3])),
                        ([(4, 1, 3), (-2, 2, 3)], ([2, 4], [-2])),
                        ([(6, 1, 4), (-2, 3, 4)], ([2, 4, 6], [-2]))):
        dist = validate([(v, Fraction(a, b)) for v, a, b in atoms])
        assert durations._entry_closure(dist) == want


def dense_tables(st):
    """The per-row arrays of one side, rebuilt from its slots: per entry,
    ``neg_surv`` (E, N+1) holds -P(τ > n), which repeats the last slot at or
    before row n; ``exit_cum`` (E, N+1, K) the slot's split at a row where
    mass leaves and 1.0 at every other row; and ``tail_cum`` (E, K) the
    split at the block's +1 sentinel."""
    n_table = int(st.search_tau[-1]) - 1  # the +1 sentinel's τ is N + 1
    ends = np.flatnonzero(st.search == 1.0)
    starts = np.r_[0, ends[:-1] + 1]
    neg_surv = np.empty((len(st.entries), n_table + 1))
    exit_cum = np.ones((len(st.entries), n_table + 1, st.exit_entry.size))
    for e, (a, b) in enumerate(zip(starts, ends)):
        rows = st.search_tau[a:b].astype(np.int64)
        last = np.searchsorted(rows, np.arange(n_table + 1), side="right") - 1
        neg_surv[e] = st.search[a:b][last]
        exit_cum[e, rows[1:]] = st.exit_cum[a + 1:b]
    return SimpleNamespace(neg_surv=neg_surv, exit_cum=exit_cum,
                           tail_cum=st.exit_cum[ends])


# walks whose steps share a factor g > 1
GCD_WALKS = {
    "+2,-2": validate([(2, Fraction(1, 2)), (-2, Fraction(1, 2))]),
    "lazy:+3,0,-3": validate([(3, Fraction(1, 4)), (0, Fraction(1, 2)),
                              (-3, Fraction(1, 4))]),
    "+4,-2": validate([(4, Fraction(1, 3)), (-2, Fraction(2, 3))]),
}


@pytest.mark.parametrize("n_table", [1, 2, 64, 2048])
@pytest.mark.parametrize("name", list(GCD_WALKS))
def test_unreachable_landings_are_never_drawn(name, n_table):
    # the walk lands only at the depths g, 2g, .., max_down: a side keeps
    # an exit column for each of them and no other, each maps to a real
    # entry of the other side, those columns hold all the mass (every split
    # past row 0 ends at 1), and every draw returns one
    dist = GCD_WALKS[name]
    t = durations.excursion_tables(dist, n_table)
    g = math.gcd(*(int(v) for v in dist.values()))
    uniforms = RandomStream(611, 0).uniforms(20_000)
    edges = np.array([2.0 ** -54, 0.5, 1 - 2.0 ** -53])  # the smallest and largest u
    u_exit = np.r_[uniforms[edges.size:], edges]
    for side, tables, other, walk_side in (("pos", t.pos, t.neg, dist),
                                           ("neg", t.neg, t.pos, dist.mirrored())):
        max_down = -int(min(walk_side.values()))
        assert tables.exit_cum.shape[1] == tables.exit_entry.size == max_down // g
        assert [other.entries[i] for i in tables.exit_entry] == list(
            range(g, max_down + 1, g))
        assert all(e % g == 0 for e in tables.entries)
        split_end = tables.exit_cum[tables.search_tau > 0, -1]
        np.testing.assert_allclose(split_end, 1.0, rtol=0, atol=1e-12)
        for e in range(len(tables.entries)):
            entry = np.full(uniforms.size, e)
            _, _, slot = t.sample_tau(side, entry, uniforms)
            nxt = t.sample_exit(side, slot, u_exit)
            assert np.isin(nxt, tables.exit_entry).all()


def test_tables_cache_and_shape():
    d = preset("simple")
    t = durations.excursion_tables(d, 4096)
    assert durations.excursion_tables(d, 4096) is t
    assert t.pos.entries == [1] and t.neg.entries == [1]
    assert t.pos.exit_entry.tolist() == [0] and t.neg.exit_entry.tolist() == [0]
    assert durations.DEFAULT_TABLE_SIZE == 1 << 15
    # only what a draw reads, stacked over entries: per landing the other
    # side's entry, per slot τ and the exit split, per entry P(τ > N), per
    # (entry, guess) a start slot; the horizon is kept once, for both
    # sides, and both classes are plain data with no index dicts or
    # post-init map
    assert [f.name for f in dataclasses.fields(durations.SideTables)] == [
        "entries", "exit_entry", "search", "search_tau", "exit_cum", "tail_p",
        "guide"]
    assert [f.name for f in dataclasses.fields(durations.ExcursionTables)] == [
        "dist", "pos", "neg", "n_table"]
    for cls in (durations.SideTables, durations.ExcursionTables):
        assert not hasattr(cls, "__post_init__")
    # the walk's τ is even, so the slots are row 0, rows 2, 4, .., 4096 and
    # the +1 sentinel
    slots = 2 + 4096 // 2
    assert t.pos.search.shape == t.pos.search_tau.shape == (slots,)
    assert np.array_equal(t.pos.search_tau[1:-1], np.arange(2, 4097, 2))
    assert t.pos.exit_cum.shape == (slots, 1)
    assert t.pos.tail_p.shape == (1,) and t.pos.guide.shape == (4097,)


def test_tables_hold_no_per_row_copies():
    # the slots and the guide only: the dense survival rows and per-row
    # exit splits took this walk's tables to 20.8 MiB at the default N
    t = durations.excursion_tables(preset("unit-up", negatives=[-17, -2]))
    arrays = [getattr(side, f.name) for side in (t.pos, t.neg)
              for f in dataclasses.fields(side)]
    assert sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) < 15 * 2 ** 20


def test_table_size_refused(monkeypatch):
    # tables of horizon 0 drew every τ as 0 with the tail flag set
    d = preset("unit-up", negatives=[-2])
    t = durations.excursion_tables(d, np.int64(1))
    assert type(t.n_table) is int and t.n_table == 1
    assert durations.excursion_tables(d, 1) is t
    # a whole number of any type is the int's cached table
    four = durations.excursion_tables(d, 4)
    for n_table in (4.0, np.int64(4), Fraction(4)):
        assert durations.excursion_tables(d, n_table) is four
    # every other size is refused before any table is built
    monkeypatch.setattr(durations, "_one_sided_tables", None)
    for n_table in (0, -1, "2048", None, "10", 2.5, math.nan, math.inf):
        with pytest.raises(OutOfRange, match="n_table="):
            durations.excursion_tables(d, n_table)


# SHA-256 of every table array and of sample_tau/sample_exit on fixed
# uniforms, from the build that stepped absorption inside the DP loop, kept
# one array per entry and sampled exits entry by entry; none of that may
# move a bit
TABLE_DIGESTS = {
    "unit-up:-2": "71966fa558e4dc9d6214ce81ca8f734ad72b3f125f9ef01159fc537b938bc8ca",
    "unit-up:-2,-3": "87850318d4fa99b9ee3976385476fcbde57654dfed4cc9f5e2138f1733730d84",
    "lazy": "7983bb78ea2b8492bd755fb12b65d3c154869fc7e069afefa95de91c44f0c07a",
    "unit-up:-17,-2": "fe4d6776c24bb83da016c0355b36571d35c7ac8daceadcff5b9889960618f9bb",
    "+6,-1": "84542ad832774b60150daa0cf808ecbba3c7541707dd4e9c160c20cce3d51efe",
    "+3,-1": "9127298bfe30b14ef8d1d1c8bf227c1986d25dc1bc0f3e66671b3ed0c51ea2b3",
}


@pytest.mark.parametrize("name,dist", [
    ("unit-up:-2", preset("unit-up", negatives=[-2])),
    ("unit-up:-2,-3", preset("unit-up", negatives=[-2, -3])),
    ("lazy", validate([(-1, Fraction(1, 4)), (0, Fraction(1, 2)),
                       (1, Fraction(1, 4))])),
    # 17 landing depths: row sums over more than 8 columns
    ("unit-up:-17,-2", preset("unit-up", negatives=[-17, -2])),
    # steps on lattices of span 7 and 4, where most positions stay empty
    ("+6,-1", validate([(6, Fraction(1, 7)), (-1, Fraction(6, 7))])),
    ("+3,-1", validate([(3, Fraction(1, 4)), (-1, Fraction(3, 4))])),
])
def test_tables_and_draws_pinned(name, dist):
    t = durations.excursion_tables(dist, 2048)
    h = hashlib.sha256()
    for side in ("pos", "neg"):
        st = getattr(t, side)
        rows = dense_tables(st)
        for e in range(len(st.entries)):
            for a in (rows.neg_surv[e], rows.exit_cum[e], rows.tail_cum[e], st.tail_p[e]):
                h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        n = 50_000
        ei = (RandomStream(406, 0).uniforms(n) * len(st.entries)).astype(np.int64)
        u = RandomStream(406, 1).uniforms(n) ** 3  # many draws past the table
        tau, tail, slot = t.sample_tau(side, ei, u)
        ex = t.sample_exit(side, slot, RandomStream(406, 2).uniforms(n))
        assert tail.sum() > 10_000
        h.update(np.ascontiguousarray(tau, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(ex, dtype="<i8").tobytes())
    assert h.hexdigest() == TABLE_DIGESTS[name]


def reference_sample_tau(tables, side, entry_idx, u):
    """Inversion by a binary search of each entry's whole survival row, one
    entry state at a time, with the √-tail formula past the table."""
    st = getattr(tables, side)
    neg_surv = dense_tables(st).neg_surv
    tau = np.empty(u.shape, dtype=np.float64)
    tail = np.zeros(u.shape, dtype=bool)
    for e in range(len(st.entries)):
        m = entry_idx == e
        um = u[m]
        t = np.searchsorted(neg_surv[e], -um, side="right").astype(np.float64)
        pt = st.tail_p[e]
        deep = um <= pt
        t[deep] = np.ceil(tables.n_table * (pt / um[deep]) ** 2)
        tau[m] = t
        tail[m] = deep
    return tau, tail


def reference_landings(tables, side):
    """The other side's entry index of each of a side's exit columns, from
    the entries: column k is the landing depth (k + 1)·g, g the gcd of the
    steps."""
    g = math.gcd(*(int(v) for v in tables.dist.values()))
    other = tables.neg if side == "pos" else tables.pos
    k = getattr(tables, side).exit_cum.shape[1]
    return np.array([other.entries.index(g * (j + 1)) for j in range(k)])


def reference_sample_exit(tables, side, entry_idx, tau, tail, u):
    """Exit by gathering each draw's whole cumulative row, read by its τ and
    tail flag, and counting the columns below u (an index past the last
    column raises)."""
    rows = dense_tables(getattr(tables, side))
    trans = reference_landings(tables, side)
    cums = rows.exit_cum[entry_idx, np.where(tail, 0, tau).astype(np.int64)]
    cums[tail] = rows.tail_cum[entry_idx[tail]]
    return trans[(u > cums.T.copy()).sum(axis=0)]


SAMPLER_WALKS = {
    "simple": preset("simple"),
    "unit-up:-2": preset("unit-up", negatives=[-2]),
    "unit-up:-2,-3": preset("unit-up", negatives=[-2, -3]),
    "lazy": validate([(-1, Fraction(1, 4)), (0, Fraction(1, 2)),
                      (1, Fraction(1, 4))]),
    "unit-up:-17,-2": preset("unit-up", negatives=[-17, -2]),
}


def reference_one_sided_tables(dist, entries, n_table):
    """The tables by dynamic programming over positions 0..p_max, one entry
    at a time: each step scatters the mass into a zeroed buffer, value by
    value, and copies the low positions out before it."""
    values = [int(v) for v in dist.values()]
    probs = [float(p) for p in dist.probabilities()]
    max_down = -min(values)
    p_max = int(np.ceil(durations._SIGMA_PAD * float(dist.variance()) ** 0.5
                        * n_table ** 0.5))
    p_max = max(p_max, max(entries) + 1, dist.max_step + 1)

    # the tail split where nothing is absorbed: even over the reachable
    # depths, the multiples of the steps' gcd g
    g = math.gcd(*values)
    k = max_down // g
    even = np.r_[0.0, np.linspace(1.0 / k, 1.0, k)][np.arange(1, max_down + 1) // g]

    n_entries = len(entries)
    neg_surv = np.empty((n_entries, n_table + 1), dtype=np.float64)
    exit_cum = np.zeros((n_entries, n_table + 1, max_down), dtype=np.float64)
    tail_cum = np.empty((n_entries, max_down), dtype=np.float64)
    tail_p = np.empty(n_entries, dtype=np.float64)
    for e, entry in enumerate(entries):
        alive = np.zeros(p_max + 1, dtype=np.float64)
        alive[entry] = 1.0
        buf = np.zeros(p_max + 1, dtype=np.float64)
        # low[n] = the mass at 0 .. max_down - 1 before step n, the only
        # positions a step down can take below zero
        low = np.zeros((n_table + 1, max_down), dtype=np.float64)
        for n in range(1, n_table + 1):
            low[n] = alive[:max_down]
            buf[:] = 0.0
            for v, p in zip(values, probs):
                if v == 0:
                    buf += p * alive
                elif v > 0:
                    buf[v:] += p * alive[:p_max + 1 - v]
                else:
                    buf[:p_max + 1 + v] += p * alive[-v:]
            alive, buf = buf, alive
        absorb = exit_cum[e]  # mass absorbed per (n, depth - 1), split below
        for v, p in zip(values, probs):
            if v < 0:
                # position j < d = -v lands at j - d, depth d - j
                absorb[:, :-v] += p * low[:, -v - 1::-1]
        # the walk never lands at a depth that is not a multiple of g
        assert not absorb[:, np.arange(1, max_down + 1) % g != 0].any()
        row_tot = absorb.sum(axis=1, keepdims=True)
        surv = neg_surv[e]
        surv[0] = 1.0
        surv[1:] = row_tot[1:, 0]
        np.subtract.accumulate(surv, out=surv)  # P(τ > n), summed in step order
        tail_p[e] = surv[n_table]
        np.negative(surv, out=surv)
        # tail split: absorptions over the second half of the table
        tail_counts = absorb[n_table // 2:].sum(axis=0)
        tot = tail_counts.sum()
        tail_cum[e] = np.cumsum(tail_counts / tot) if tot > 0 else even
        # exit split given τ = n (rows with no mass are never sampled)
        safe = np.where(row_tot > 0, row_tot, 1.0)
        np.cumsum(absorb / safe, axis=1, out=absorb)
        absorb[row_tot[:, 0] == 0] = 1.0
    # the reachable landings' columns: the depths g, 2g, .., max_down
    return SimpleNamespace(entries=entries, depths=list(range(g, max_down + 1, g)),
                           neg_surv=neg_surv, exit_cum=exit_cum[..., g - 1::g],
                           tail_cum=tail_cum[:, g - 1::g], tail_p=tail_p,
                           n_table=n_table)


# the sampler walks (steps on lattices of span d = 2, 3, 1, 1, 3) and walks
# of span 1, 7, 4, 4, 3 and 6; {+2, -2}, the lazy {+3, 0, -3} and {+4, -2}
# step by a common factor g = 2, 3 and 2 and land only at its multiples (at
# N = 1 the entry 2 of {+2, -2} absorbs nothing, so its tail split is the
# even one), and the lazy walks hold the entry 0
TABLE_WALKS = {
    **SAMPLER_WALKS,
    "tg:1/2,3": preset("truncated-geometric", p="1/2", cutoff=3),
    "+6,-1": validate([(6, Fraction(1, 7)), (-1, Fraction(6, 7))]),
    "+3,-1": validate([(3, Fraction(1, 4)), (-1, Fraction(3, 4))]),
    "+2,-2": validate([(2, Fraction(1, 2)), (-2, Fraction(1, 2))]),
    "lazy:+3,0,-3": validate([(3, Fraction(1, 4)), (0, Fraction(1, 2)),
                              (-3, Fraction(1, 4))]),
    "+4,-2": GCD_WALKS["+4,-2"],
}


def reference_search(tables):
    """The slot arrays and the guide, compressed slot by slot from a side's
    reference rows: per entry, row 0 and every row n with
    P(τ > n) < P(τ > n - 1), then a +1 sentinel, each slot with its τ and
    exit split (zeros at row 0, the row's split at n, the tail split at the
    sentinel); ``guide[e, g]`` for g ≥ 2 is the first slot past row 0 whose
    -P(τ > n) exceeds -P(τ > N)·√(N/(g - 1)), and the first slot past row 0
    for g = 0, 1.  The bound rises with g (P(τ > N) > 0), so one pointer
    moves up only."""
    n_table = tables.n_table
    search, search_tau, exit_cum, guide = [], [], [], []
    for e in range(len(tables.entries)):
        row = tables.neg_surv[e].tolist()
        assert row[0] == -1.0 and tables.tail_p[e] > 0
        first = len(search) + 1
        search.append(row[0])
        search_tau.append(0.0)
        exit_cum.append(np.zeros(len(tables.depths)))
        for n in range(1, n_table + 1):
            if row[n] > row[n - 1]:
                search.append(row[n])
                search_tau.append(float(n))
                exit_cum.append(tables.exit_cum[e, n])
        search.append(1.0)
        search_tau.append(n_table + 1.0)
        exit_cum.append(tables.tail_cum[e])
        at = first
        guide += [first, first]
        for g in range(2, n_table + 1):
            bound = -tables.tail_p[e] * math.sqrt(n_table / (g - 1))
            while search[at] <= bound:
                at += 1
            guide.append(at)
    return (np.array(search), np.array(search_tau), np.array(exit_cum),
            np.array(guide, dtype=np.int64))


@pytest.mark.parametrize("n_table", [1, 2, 3, 64, 2048])
@pytest.mark.parametrize("name", list(TABLE_WALKS))
def test_tables_match_position_dp(name, n_table):
    # every table array bit for bit on both sides: the per-row arrays
    # rebuilt from the slots against the reference DP's, and the slot
    # arrays and guide against the reference rows compressed slot by slot
    dist = TABLE_WALKS[name]
    pos_entries, neg_entries = durations._entry_closure(dist)
    neg_entries = [-e for e in neg_entries]
    for side, entries, landings in ((dist, pos_entries, neg_entries),
                                    (dist.mirrored(), neg_entries, pos_entries)):
        got = durations._one_sided_tables(side, entries, landings, n_table)
        ref = reference_one_sided_tables(side, entries, n_table)
        assert got.entries == ref.entries
        assert [landings[i] for i in got.exit_entry] == ref.depths
        rows = dense_tables(got)
        for a in ("neg_surv", "exit_cum", "tail_cum"):
            assert np.array_equal(getattr(rows, a), getattr(ref, a)), a
        assert np.array_equal(got.tail_p, ref.tail_p)
        for a, want in zip(("search", "search_tau", "exit_cum", "guide"),
                           reference_search(ref)):
            have = getattr(got, a)
            assert have.dtype == want.dtype and np.array_equal(have, want), a


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
        rows = dense_tables(st)
        for e in range(len(st.entries)):
            s = -rows.neg_surv[e]
            pt = st.tail_p[e]
            u = np.concatenate([s, np.nextafter(s, 0), np.nextafter(s, 1),
                                [pt, np.nextafter(pt, 0), np.nextafter(pt, 1),
                                 1 - 2.0 ** -53]])
            u = u[(u > 0) & (u < 1)]
            us.append(u)
            es.append(np.full(u.size, e, dtype=np.int64))
        u, ei = np.concatenate(us), np.concatenate(es)
        tau, tail, slot = t.sample_tau(side, ei, u)
        tau_ref, tail_ref = reference_sample_tau(t, side, ei, u)
        np.testing.assert_array_equal(tau, tau_ref)
        np.testing.assert_array_equal(tail, tail_ref)
        assert tail.any() and not tail.all()

        kcols = st.exit_cum.shape[1]
        cums = rows.exit_cum[ei, np.where(tail, 0, tau).astype(np.int64)]
        cums[tail] = rows.tail_cum[ei[tail]]
        k = np.arange(u.size) % kcols
        at = cums[np.arange(u.size), k]
        for ue in (at, np.nextafter(at, 0), np.nextafter(at, 1)):
            ue = np.clip(ue, 2.0 ** -54, 1 - 2.0 ** -53)
            ex = t.sample_exit(side, slot, ue)
            ok = ue <= cums[:, -1]
            np.testing.assert_array_equal(
                ex[ok], reference_sample_exit(t, side, ei[ok], tau[ok], tail[ok],
                                              ue[ok]))
            # past a last cumulative that rounded below 1.0: the last exit
            assert np.all(ex[~ok] == reference_landings(t, side)[-1])


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_searches_land_from_the_worst_start(monkeypatch, last):
    # every duration search must land where a full search does when each
    # draw starts at its row's first or last index, not at its guess; a
    # 256-entry q-table, a cap at 2^10 and a 64-step table keep rows short
    search, rows = durations._step_to_crossing, []

    def from_worst(at, down, up):
        at[:] = rows.pop(0)[last]  # (first, last) of the next search's rows
        search(at, down, up)

    monkeypatch.setattr(durations, "_step_to_crossing", from_worst)
    q = durations._q_table()[:257]
    monkeypatch.setattr(durations, "_TABLE_LEN", 256)
    monkeypatch.setattr(durations, "_q_table", lambda: q)
    u = np.exp(durations._log_q(np.arange(257, 1100)))
    u = np.concatenate([q[1:], u, np.nextafter(q[1:], 0), np.nextafter(u, 0),
                        np.nextafter(q[1:], 1), np.nextafter(u, 1)])
    rows[:] = [(0, 256), (256, 1024)]  # the table, then the Wallis tail
    t, capped = durations.unit_passage_from_uniforms(u, cap_exp=10)
    t_ref, capped_ref = reference_unit_passage(u, 10)
    np.testing.assert_array_equal(t, t_ref)
    np.testing.assert_array_equal(capped, capped_ref)
    assert capped.any() and not rows

    n = 64
    tables = durations.excursion_tables(SAMPLER_WALKS["unit-up:-2,-3"], n)
    st = tables.pos
    ei = np.repeat(np.arange(len(st.entries)), n + 1)
    u = np.clip(-dense_tables(st).neg_surv.reshape(-1), 2.0 ** -54, 1 - 2.0 ** -53)
    u = np.concatenate([u, np.nextafter(u, 0), np.nextafter(u, 1)])
    ei = np.tile(ei, 3)
    tau_ref, tail_ref = reference_sample_tau(tables, "pos", ei, u)
    # every draw is searched, from the first slot past its block's row 0
    # or from the block's +1 sentinel, where the draws past the table land
    ends = np.flatnonzero(st.search == 1.0)
    starts = np.r_[0, ends[:-1] + 1]
    rows[:] = [(starts[ei] + 1, ends[ei])]
    tau, tail, _ = tables.sample_tau("pos", ei, u)
    np.testing.assert_array_equal(tau, tau_ref)
    np.testing.assert_array_equal(tail, tail_ref)
    assert tail.any() and not rows


def test_sample_exit_past_a_last_cumulative_below_one():
    # on unit-up:-2,-3 the pos row e = 0, n = 6 sums to 1 - 2^-52; a u
    # above that once counted one column past the last exit
    t = durations.excursion_tables(preset("unit-up", negatives=[-2, -3]), 2048)
    slot = np.flatnonzero(t.pos.search_tau == 6.0)[:1]  # entry 0's block comes first
    assert t.pos.exit_cum[slot[0], -1] == 1 - 2.0 ** -52
    u = np.array([1 - 2.0 ** -53])
    assert t.sample_exit("pos", slot, u).tolist() == [t.neg.entries.index(3)]
    with pytest.raises(IndexError):
        reference_sample_exit(t, "pos", np.array([0]), np.array([6.0]),
                              np.array([False]), u)
    assert t.sample_exit("pos", slot, np.array([1.0])).tolist() == [t.neg.entries.index(3)]


def test_srw_table_matches_convolution():
    # the per-entry DP and the passage-time convolution are independent
    # derivations of the same survival curve
    t = durations.excursion_tables(preset("simple"), 4096)
    n = np.arange(1, 4001)
    dp = -dense_tables(t.pos).neg_surv[0][n]
    conv = durations.srw_halfexcursion_survival(n)
    assert np.max(np.abs(dp - conv)) < 1e-12
    mirrored = -dense_tables(t.neg).neg_surv[0][n]
    assert np.max(np.abs(mirrored - conv)) < 1e-12


def test_sample_tau_matches_table_and_tail():
    t = durations.excursion_tables(preset("simple"), 4096)
    n = 100_000
    u = RandomStream(404, 0).uniforms(n)
    idx = np.zeros(n, dtype=np.int64)
    tau, tail, slot = t.sample_tau("pos", idx, u)
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
    exits = t.sample_exit("pos", slot, RandomStream(404, 1).uniforms(n))
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
    pos, neg = dense_tables(t.pos).neg_surv, dense_tables(t.neg).neg_surv
    for h in (1, 2, 4, 8, 16, 32):
        mix = (p_plus * -pos[t.pos.entries.index(1)][h]
               + (1 - p_plus) * -neg[t.neg.entries.index(2)][h])
        emp = np.mean(tau1 > h)
        sigma = math.sqrt(mix * (1 - mix) / n)
        assert abs(emp - mix) <= 4 * sigma
    # entry states are the first-step values with the right frequencies
    assert set(np.unique(first)) == {-2, 1}
    assert abs(np.mean(first == 1) - p_plus) <= 3 * math.sqrt(p_plus / 3 / n)
