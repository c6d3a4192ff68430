"""Half-excursion duration laws.

Simple walk (exact)
-------------------
Under the carried-sign rule a half-excursion of the ±1 walk starts one unit
past zero and ends when the walk first reaches the opposite unit, so its
duration is the sum of two independent unit passage times T with

    P(T > 2j - 1) = P(T > 2j) = q_j = (2j-1)!!/(2j)!!  (q_0 = 1).

``q_j`` obeys q_j = q_{j-1}·(2j-1)/(2j); a cumulative-product table covers
j ≤ 2^19 and the Wallis expansion

    ln q_j = -½·ln(πj) + ln1p(-1/(8j) + 1/(128j²))

takes over beyond it (relative error ~ (1/j)³, far below float precision at
the table edge).  Draws are inverse-CDF in O(1) per draw: the expansion's
leading terms, q_j² ≈ 1/(π(j + 1/4)), give the guess j ≈ 1/(πu²) − 1/4,
and exact steps against the table (against the expansion past it) move
the guess to the crossing, the index a search of the whole table or a
bisection on the expansion returns.  Draws are capped at j = 2^39
(T = 2^40 + 1) with capped draws flagged — their probability per draw is
about 7.6e-7, and callers account for them explicitly.

General walks (tables)
----------------------
For other step laws the duration of a stretch depends on its entry position
(the first value past zero), and E[τ] = ∞ makes per-step simulation of long
excursion sequences infeasible.  :class:`ExcursionTables` builds, for every
reachable entry state on each side, the exact (float, deterministic) law of
(τ, exit value) up to a table horizon N by dynamic programming over
positions, then extends the tail by the exact √-law shape:
u = P(τ > n) ≈ P(τ > N)·(N/n)^(1/2) inverts to n = N·(P(τ > N)/u)².  The
exit-value split in the tail uses the empirical split over the second half
of the table, which has converged to the tail limit at the table's accuracy.
Tail draws are counted so consumers can report how much of a run leaned on
the extension.

The tables drive every general-walk run that moves stretch by stretch:
the ξ pair runs and both barrier events (the engine's stretch loop), each
stretch taking one uniform for τ and one for its exit, which is the next
stretch's entry.  :meth:`ExcursionTables.sample_stretches` draws a batch
whose stretches lie on both sides at once.

Sampling has no loop over entry states.  A duration draw indexes the
survival rows stacked over entries as one flat array: the √-law guess picks
a start row from a guide table (Chen & Asau 1974; Devroye 1986, §III.2)
built once with the tables, at or a few rows before the crossing, and exact
steps move it to the row a binary search of the entry's row returns.  An
exit draw gathers the first K - 1 cumulatives of its row by flat index and
counts those below u; the map from exit column to the other side's entry
index is also built once with the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .increments import IncrementDistribution

_TABLE_BITS = 19
_TABLE_LEN = 1 << _TABLE_BITS
DEFAULT_PASSAGE_CAP_EXP = 39  # cap j at 2^39, i.e. T at 2^40 + 1
DEFAULT_TABLE_SIZE = 1 << 15
_SIGMA_PAD = 8.0  # table range in standard deviations of an n_table-step walk


@lru_cache(maxsize=1)
def _q_table() -> np.ndarray:
    """q_j for j = 0..2^19 by cumulative product (exactly monotone)."""
    j = np.arange(1, _TABLE_LEN + 1, dtype=np.float64)
    q = np.empty(_TABLE_LEN + 1, dtype=np.float64)
    q[0] = 1.0
    np.cumprod((2.0 * j - 1.0) / (2.0 * j), out=q[1:])
    q.setflags(write=False)
    return q


def _log_q(j) -> np.ndarray:
    """ln q_j by the Wallis expansion (valid for large j; used past the table)."""
    j = np.asarray(j, dtype=np.float64)
    return -0.5 * np.log(np.pi * j) + np.log1p(-1.0 / (8.0 * j) + 1.0 / (128.0 * j * j))


def unit_passage_from_uniforms(u: np.ndarray, *, cap_exp: int = DEFAULT_PASSAGE_CAP_EXP
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Invert uniforms u in (0, 1] to unit passage times T (odd ints), vectorized.

    T = 2j + 1 with j the largest index such that q_j ≥ u.  Each draw
    starts from the guess j₀ = ⌊1/(πu²) − 1/4⌋ and steps to the exact
    crossing: down while q_j < u, then up while q_{j+1} ≥ u.  In the table
    range q is non-increasing, so the crossing found is the one a binary
    search of the table finds.  Past the table the same steps test
    ln q_j ≥ ln u on the Wallis expansion, which is strictly decreasing in
    floating point there (consecutive values differ by about 1/(2j), at
    least hundreds of ulps up to j = 2^41), so they land where a bisection
    on the expansion lands.  The guess is usually off by at most one step,
    but the loops run until nothing moves, so the result never depends on
    how good it is.

    Returns ``(T, capped)``; where ``capped`` is True the true T exceeds
    2^(cap_exp + 1) and the reported value is that cap + 1.
    """
    u = np.asarray(u, dtype=np.float64)
    q = _q_table()
    jmax = 1 << cap_exp
    # q_j² ≈ 1/(π(j + 1/4)) puts the crossing at j ≈ 1/(πu²) − 1/4
    guess = np.floor(1.0 / (np.pi * u * u) - 0.25)
    j = np.clip(guess, 0, _TABLE_LEN).astype(np.int64)
    # largest j ≤ 2^19 with q_j ≥ u; q_0 = 1 stops the downward steps
    move = np.flatnonzero(q[j] < u)
    while move.size:
        j[move] -= 1
        move = move[q[j[move]] < u[move]]
    move = np.flatnonzero(q[np.minimum(j + 1, _TABLE_LEN)] >= u)
    move = move[j[move] < _TABLE_LEN]
    while move.size:
        j[move] += 1
        move = move[j[move] < _TABLE_LEN]
        move = move[q[j[move] + 1] >= u[move]]

    tail = np.flatnonzero(j >= _TABLE_LEN)
    if tail.size:
        log_ut = np.log(u[tail])
        # largest j in [2^19, jmax] with ln q_j ≥ ln u (jmax for a cap below
        # 2^19); j = 2^19 needs no test, the table already put q_j ≥ u there
        jt = np.clip(guess[tail], _TABLE_LEN, jmax).astype(np.int64)
        move = np.flatnonzero((jt > _TABLE_LEN) & (_log_q(jt) < log_ut))
        while move.size:
            jt[move] -= 1
            move = move[(jt[move] > _TABLE_LEN) & (_log_q(jt[move]) < log_ut[move])]
        move = np.flatnonzero((jt < jmax) & (_log_q(jt + 1) >= log_ut))
        while move.size:
            jt[move] += 1
            move = move[(jt[move] < jmax) & (_log_q(jt[move] + 1) >= log_ut[move])]
        j[tail] = jt
    return 2 * np.minimum(j, jmax) + 1, j >= jmax


def srw_tau_from_uniform_pairs(u1: np.ndarray, u2: np.ndarray, *,
                               cap_exp: int = DEFAULT_PASSAGE_CAP_EXP
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Half-excursion durations τ = T + T' from two uniform banks."""
    t1, c1 = unit_passage_from_uniforms(u1, cap_exp=cap_exp)
    t2, c2 = unit_passage_from_uniforms(u2, cap_exp=cap_exp)
    return t1 + t2, c1 | c2


def srw_halfexcursion_survival(n) -> np.ndarray:
    """Exact P(τ > n) for the simple walk (n within the table range).

    τ = T + T' with the unit-passage law above; computed by convolving the
    exact pmf, for use as a reference curve in tests and diagnostics.
    """
    n = np.asarray(n, dtype=np.int64)
    nmax = int(n.max())
    q = _q_table()
    if nmax // 2 + 2 >= len(q):
        raise ValueError("n beyond the exact table range")
    # pmf of T at odd arguments: P(T = 2j+1) = q_j - q_{j+1}
    jmax = nmax // 2 + 1
    pmf_t = q[:jmax + 1] - q[1:jmax + 2]
    # τ = T + T' is even; P(τ = 2m+2) = Σ_j pmf_t[j]·pmf_t[m-j]
    pmf_tau = np.convolve(pmf_t, pmf_t)[:jmax + 1]
    surv = 1.0 - np.cumsum(pmf_tau)
    # τ = 2m+2 for m = 0..; P(τ > n) = P(τ > 2⌊n/2⌋) = surv at m = ⌊n/2⌋ - 1
    m = np.maximum(n // 2, 1) - 1
    out = np.where(n < 2, 1.0, surv[m])
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# duration tables for general walks
# ---------------------------------------------------------------------------

@dataclass
class SideTables:
    """Per-entry-state duration/exit tables for one side of zero.

    ``entries`` are entry positions as *distances from zero* (always
    positive here; the caller mirrors the negative side).  The arrays are
    stacked over the entry index e, C-contiguous, so flat index
    e·(N+1) + n reads row e at n: ``neg_surv[e, n] = -P(τ > n)``, shape
    (E, N+1), negated so each row ascends and -u compares against it
    directly (as searchsorted would);
    ``exit_cum[e, n, k]``, shape (E, N+1, K), the cumulative split over the
    K ``exit_values`` given τ = n; ``tail_cum[e]``, shape (E, K), the split
    given τ > N; and ``tail_p[e] = P(τ > N)``, shape (E,).

    ``guide``, derived from these on construction, is a guide table over the
    √-tail guess g = ⌈N·(P(τ > N)/u)²⌉ ∈ [0, N]: ``guide[e·(N+1) + g]`` is
    the flat index into ``neg_surv`` of the first n ≥ 1 with P(τ > n) < u
    at the largest u whose guess is g, so the draws with that guess start
    there or a few rows before their crossing.
    """

    entries: list[int]
    exit_values: list[int]  # signed landing positions on the other side
    neg_surv: np.ndarray
    exit_cum: np.ndarray
    tail_cum: np.ndarray
    tail_p: np.ndarray
    n_table: int
    guide: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_table = self.n_table
        rows = self.neg_surv.shape[0]
        # guess g ≥ 2 takes u in [p·√(N/g), p·√(N/(g - 1))), p = P(τ > N),
        # and the crossing at its largest u is the earliest; guesses 0 and 1
        # take u ≥ p·√N, and every u < 1 crosses at n ≥ 1
        top = np.sqrt(n_table / np.arange(1.0, n_table))
        guide = np.ones((rows, n_table + 1), dtype=np.int64)
        for e in range(rows):
            guide[e, 2:] = np.searchsorted(self.neg_surv[e], -self.tail_p[e] * top,
                                           side="right")
        np.maximum(guide, 1, out=guide)
        guide += (n_table + 1) * np.arange(rows)[:, None]
        self.guide = guide.reshape(-1)


def _one_sided_tables(dist: IncrementDistribution, entries: list[int],
                      n_table: int) -> SideTables:
    """DP tables for stretches on the nonnegative side of ``dist``.

    The stretch lives on positions ≥ 0 (zero carries the stretch's sign) and
    ends the step it lands strictly below 0; the landing position is the
    next stretch's entry on the other side.  Mass pushed past the padded
    range p_max is dropped: it cannot come back below zero within the
    horizon at any relevant rate.
    """
    values = [int(v) for v in dist.values()]
    probs = [float(p) for p in dist.probabilities()]
    max_down = -min(values)
    exit_values = [-d for d in range(1, max_down + 1)]  # signed landings -1..-max
    p_max = int(np.ceil(_SIGMA_PAD * float(dist.variance()) ** 0.5 * n_table ** 0.5))
    p_max = max(p_max, max(entries) + 1, dist.max_step + 1)

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
        tail_cum[e] = (np.cumsum(tail_counts / tot) if tot > 0
                       else np.linspace(1.0 / max_down, 1.0, max_down))
        # exit split given τ = n (rows with no mass are never sampled)
        safe = np.where(row_tot > 0, row_tot, 1.0)
        np.cumsum(absorb / safe, axis=1, out=absorb)
        absorb[row_tot[:, 0] == 0] = 1.0
    return SideTables(entries=entries, exit_values=exit_values,
                      neg_surv=neg_surv, exit_cum=exit_cum,
                      tail_cum=tail_cum, tail_p=tail_p, n_table=n_table)


@dataclass
class ExcursionTables:
    """Both sides' tables plus the entry-state indexing for chain sampling."""

    dist: IncrementDistribution
    pos: SideTables              # stretches above zero; entries are +values
    neg: SideTables              # stretches below zero, mirrored; entries are |values|
    pos_index: dict[int, int]    # entry position (> 0) -> index into pos tables
    neg_index: dict[int, int]    # entry position (< 0) -> index into neg tables
    n_table: int
    exit_entry: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        # exit column k of a side (landing depth k + 1) -> entry index on
        # the other side
        self.exit_entry = {
            side: np.array([other[sign * d] for d in
                            range(1, len(tables.exit_values) + 1)], dtype=np.int64)
            for side, tables, other, sign in (("pos", self.pos, self.neg_index, -1),
                                              ("neg", self.neg, self.pos_index, 1))}

    def first_entries(self, first: np.ndarray) -> np.ndarray:
        """Entry index of the stretch each first step opens: a step v ≥ 0 on
        the positive side (0 at height 0), v < 0 on the negative side."""
        entry = np.zeros(first.shape, dtype=np.int64)
        for v in self.dist.values():
            index = self.pos_index if v >= 0 else self.neg_index
            entry[first == v] = index[int(v)]
        return entry

    def sample_stretches(self, up: np.ndarray, entry_idx: np.ndarray,
                         u_tau: np.ndarray, u_exit: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(τ, tail flags, next entry) for stretches on both sides at once:
        positive where ``up`` is set, entered at ``entry_idx`` on that side;
        the next entry indexes the other side's tables."""
        if up.all() or not up.any():  # one side: no gathers
            side = "pos" if up.all() else "neg"
            tau, tail = self.sample_tau(side, entry_idx, u_tau)
            return tau, tail, self.sample_exit(side, entry_idx, tau, tail, u_exit)
        tau = np.empty(up.shape)
        tail = np.empty(up.shape, dtype=bool)
        nxt = np.empty_like(entry_idx)
        for side, rows in (("pos", up), ("neg", ~up)):
            e = entry_idx[rows]
            tau[rows], tail[rows] = self.sample_tau(side, e, u_tau[rows])
            nxt[rows] = self.sample_exit(side, e, tau[rows], tail[rows], u_exit[rows])
        return tau, tail, nxt

    def sample_tau(self, side: str, entry_idx: np.ndarray, u: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Durations for a batch of stretches (float64), plus tail-draw flags.

        τ is the first n with P(τ > n) < u in the entry's row, the index
        ``searchsorted(neg_surv[e], -u, "right")`` returns.  The √-tail
        n = N·(P(τ > N)/u)² is the draw itself where u ≤ P(τ > N); elsewhere
        its ceiling g picks the start row ``guide[e, g]`` in the flat stacked
        rows, and exact steps move it down while P(τ > n - 1) < u and up
        while P(τ > n) ≥ u, until nothing moves.  Each row is non-increasing
        from P(τ > 0) = 1 to P(τ > N) < u, so the steps stay in the row and
        the result never depends on how good the start is.
        """
        tables = self.pos if side == "pos" else self.neg
        pt = tables.tail_p[entry_idx]
        tau = np.ceil(self.n_table * (pt / u) ** 2)
        tail = u <= pt
        rows = np.flatnonzero(~tail)
        if rows.size:
            flat = tables.neg_surv.reshape(-1)
            neg_u = -u[rows]
            base = entry_idx[rows] * (self.n_table + 1)
            at = tables.guide[base + np.minimum(tau[rows], self.n_table).astype(np.int64)]
            move = np.flatnonzero(flat[at - 1] > neg_u)
            while move.size:
                at[move] -= 1
                move = move[flat[at[move] - 1] > neg_u[move]]
            move = np.flatnonzero(flat[at] <= neg_u)
            while move.size:
                at[move] += 1
                move = move[flat[at[move]] <= neg_u[move]]
            tau[rows] = at - base
        return tau, tail

    def sample_exit(self, side: str, entry_idx: np.ndarray, tau: np.ndarray,
                    tail: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next entry indices (on the opposite side) for a batch of stretches.

        The exit is the first column whose cumulative reaches u.  Only the
        first K - 1 columns are compared: past them the exit is the last
        column, also where that column's cumulative rounded below 1.0.
        """
        tables = self.pos if side == "pos" else self.neg
        trans = self.exit_entry[side]
        kcols = trans.size
        if kcols == 1:
            return np.full(u.shape, trans[0])
        head = np.arange(kcols - 1)[:, None]
        # a tail draw's τ lies past the table: read row 0, then overwrite
        row = entry_idx * (self.n_table + 1) + np.where(tail, 0, tau).astype(np.int64)
        cums = tables.exit_cum.reshape(-1)[row * kcols + head]  # (K - 1, n)
        deep = np.flatnonzero(tail)
        if deep.size:
            cums[:, deep] = tables.tail_cum.reshape(-1)[entry_idx[deep] * kcols + head]
        return trans[(u > cums).sum(axis=0)]


def _entry_closure(dist: IncrementDistribution) -> tuple[list[int], list[int]]:
    """All reachable entry positions: initial steps plus cross-side landings."""
    pos = {int(v) for v in dist.values() if v > 0}
    neg = {int(v) for v in dist.values() if v < 0}
    max_up = max(pos)
    max_down = -min(neg)
    pos |= set(range(1, max_up + 1))
    neg |= {-d for d in range(1, max_down + 1)}
    if 0 in (int(v) for v in dist.values()):
        pos.add(0)  # a first step of 0 starts a positive stretch at height 0
    return sorted(pos), sorted(neg)


_TABLE_CACHE: dict = {}


def excursion_tables(dist: IncrementDistribution, n_table: int = DEFAULT_TABLE_SIZE
                     ) -> ExcursionTables:
    """Build (or fetch cached) duration tables for a general walk."""
    key = (dist.atoms, n_table)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    pos_entries, neg_entries = _entry_closure(dist)
    pos_tables = _one_sided_tables(dist, pos_entries, n_table)
    # the negative side is the positive side of the mirrored walk
    neg_tables = _one_sided_tables(dist.mirrored(), [-e for e in neg_entries], n_table)
    tables = ExcursionTables(
        dist=dist,
        pos=pos_tables,
        neg=neg_tables,
        pos_index={e: i for i, e in enumerate(pos_entries)},
        neg_index={e: i for i, e in enumerate(neg_entries)},
        n_table=n_table,
    )
    _TABLE_CACHE[key] = tables
    return tables
