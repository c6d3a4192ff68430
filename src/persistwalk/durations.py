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
which the search below moves to the crossing on the table, then on the
expansion past it.  Draws are capped at j = 2^39
(T = 2^40 + 1) with capped draws flagged — their probability per draw is
about 7.6e-7, and callers account for them explicitly.

Duration sources
----------------
The engine's exact loops read durations from one of two sources with the
same members (``name``, ``longest``, ``n_table``, ``first_entries``,
``stretches`` and ``at_cap``): :class:`PassageLaw`, this law at a passage
cap, on the simple walk, and :class:`ExcursionTables` on any walk.

General walks (tables)
----------------------
For other step laws the duration of a stretch depends on its entry position
(the first value past zero), and E[τ] = ∞ makes per-step simulation of long
excursion sequences infeasible.  :class:`ExcursionTables` builds, for every
reachable entry state on each side (a multiple of the gcd g of the step
values: the walk visits no other position), the exact (float,
deterministic) law of (τ, exit value) up to a table horizon N by dynamic
programming on the walk's own lattice: every step is the lowest step plus
a multiple of the span d (the gcd of the gaps between step values), so
each entry steps one array of cells d apart.  The window of positions
0..p_max slides up that array in place, and the cells it leaves behind,
each holding the mass it had just before it dropped below zero, are the
absorption table.  The tail is extended by the exact √-law shape:
u = P(τ > n) ≈ P(τ > N)·(N/n)^(1/2) inverts to n = N·(P(τ > N)/u)².  The
exit-value split in the tail uses the empirical split over the second half
of the table, which has converged to the tail limit at the table's accuracy.
Tail draws are counted so consumers can report how much of a run leaned on
the extension.

The tables are the duration source of every general-walk run that moves
stretch by stretch: the ξ pair runs and both barrier events (the engine's
stretch loop).  :meth:`ExcursionTables.stretches` draws a block of stretches per trial,
signs alternating, each from one uniform for τ and one for its exit, the
next stretch's entry.  A side with one entry state (the positive side of
every ``unit-up`` walk, the negative side of ``tg`` and the lazy ±1 walk)
has every entry known before any draw, so its stretches in the block take
one ``sample_tau`` and one ``sample_exit`` call, and the other side's one
more each, entered at its exits; a walk with several entry states on both
sides draws stretch by stretch.

Sampling has no loop over entry states, and the tables hold only what a
draw reads: one array per side, stacked over entries, that every draw
searches.  Each entry's block holds -P(τ > n) at row 0, a -1 sentinel, and
at the rows where mass leaves (on a lattice walk most rows hold none, and
P(τ > n) is flat across them), then a +1 sentinel; each slot also holds its
τ and its exit split over the landings the walk can reach, the depths g,
2g, .., max_down (given τ > N, the tail split, at the +1 sentinel).
The √-law guess picks a start slot from a guide table (Chen & Asau 1974;
Devroye 1986, §III.2) built with the tables, at or a slot before the
crossing, and the search below moves it there; a draw past the table stops
on the +1 sentinel and takes the √-tail.  An exit draw gathers the first
K - 1 cumulatives of its landing slot and counts those below u.

Search
------
A duration draw is set by the crossing of its uniform u with a
non-increasing row (q_j, ln q_j, or the rows of P(τ > n) where mass
leaves), the last index whose value is at least u.
:func:`_step_to_crossing` steps a guess there, so every draw lands where a
full search does, whatever its guess.  On the tables a draw lands on the
first slot of its block with P(τ > n) < u, and that slot's τ is the first
row with P(τ > n) < u, since the rows a block skips repeat the value before
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRange
from .increments import IncrementDistribution
from .walk import _whole

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


def _step_to_crossing(at: np.ndarray, down, up) -> None:
    """Step each start index in ``at`` to its row's crossing c, in place:
    down by one while ``down(rows, at[rows])`` holds, then up while ``up``
    does (``rows`` a slice or index array into ``at``; both return masks).
    Where ``down`` holds exactly past c and ``up`` exactly before it, the
    downward steps stop at min(start, c) and the upward ones at c, so every
    start lands on c."""
    for test, step in ((down, -1), (up, 1)):
        move = np.flatnonzero(test(slice(None), at))
        while move.size:
            at[move] += step
            move = move[test(move, at[move])]


def unit_passage_from_uniforms(u: np.ndarray, *, cap_exp: int = DEFAULT_PASSAGE_CAP_EXP
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Invert uniforms u in (0, 1], of any shape, to unit passage times T
    (odd ints), vectorized over a flat view.

    T = 2j + 1 with j the largest index such that q_j ≥ u, searched from
    the guess j₀ = ⌊1/(πu²) − 1/4⌋ (the module's Search section): on the
    table, which is non-increasing, then past it on ln q_j ≥ ln u by the
    Wallis expansion, which is strictly decreasing in floating point there
    (consecutive values differ by about 1/(2j), at least hundreds of ulps
    up to j = 2^41).  The guess is usually off by at most one step.

    Returns ``(T, capped)`` in the shape of ``u``; where ``capped`` is True
    the true T exceeds 2^(cap_exp + 1) and the reported value is that cap + 1.
    """
    u = np.asarray(u, dtype=np.float64)
    shape = u.shape
    u = u.reshape(-1)
    q = _q_table()
    jmax = 1 << cap_exp
    # q_j² ≈ 1/(π(j + 1/4)) puts the crossing at j ≈ 1/(πu²) − 1/4, which is
    # above 0 for every u ≤ 1, so truncation takes its floor
    guess = 1.0 / (np.pi * u * u) - 0.25
    j = np.minimum(guess, _TABLE_LEN).astype(np.int64)
    # largest j ≤ 2^19 with q_j ≥ u; q_0 = 1 stops the downward steps, and
    # searching for u raised above q_{2^19} stops the upward ones before
    # they read past the table, so each draw with u ≤ q_{2^19} goes on to
    # the tail with its crossing at 2^19 or past it
    above = np.maximum(u, math.nextafter(q[-1], 1.0))
    _step_to_crossing(j, lambda r, i: q[i] < above[r],
                      lambda r, i: q[i + 1] >= above[r])

    tail = np.flatnonzero(u <= q[-1])
    capped = np.zeros(u.shape, dtype=bool)
    if tail.size:
        log_ut = np.log(u[tail])
        # largest j in [2^19, jmax] with ln q_j ≥ ln u (jmax for a cap below
        # 2^19); j = 2^19 needs no test, the table already put q_j ≥ u there
        jt = np.clip(guess[tail], _TABLE_LEN, jmax).astype(np.int64)
        _step_to_crossing(jt, lambda r, i: (i > _TABLE_LEN) & (_log_q(i) < log_ut[r]),
                          lambda r, i: (i < jmax) & (_log_q(i + 1) >= log_ut[r]))
        j[tail] = jt
        capped[tail] = jt == jmax
    if jmax < _TABLE_LEN:  # else only the tail reaches the cap
        capped |= j >= jmax
        np.minimum(j, jmax, out=j)
    j *= 2
    j += 1
    return j.reshape(shape), capped.reshape(shape)


def srw_tau_from_uniform_pairs(u1: np.ndarray, u2: np.ndarray, *,
                               cap_exp: int = DEFAULT_PASSAGE_CAP_EXP
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Half-excursion durations τ = T + T' from two uniform banks of one
    shape, returned in that shape; both banks are inverted in one call."""
    t, c = unit_passage_from_uniforms(np.stack((u1, u2)), cap_exp=cap_exp)
    return t[0] + t[1], c[0] | c[1]


@dataclass(frozen=True)
class PassageLaw:
    """The simple walk's duration source, with the members of
    :class:`ExcursionTables` that the engine's exact loops read: a stretch
    is two unit passages, each capped at j = 2^cap_exp, and its flagged
    draws are its cap hits."""

    cap_exp: int = DEFAULT_PASSAGE_CAP_EXP
    name = "exact-excursion"
    # no draw is extrapolated, so every cap hit counts: the stretch loop
    # keeps a flag only at starts below t_max - n_table - 1, here t_max, and
    # every stretch it counts starts below t_max
    n_table = -1

    @property
    def longest(self) -> int:
        """The longest τ a draw returns: two capped passages of
        2^(cap_exp + 1) + 1 steps each."""
        return (4 << self.cap_exp) + 2

    def at_cap(self, cap_exp: int) -> PassageLaw:
        """This law with its passages capped at j = 2^cap_exp."""
        return PassageLaw(cap_exp)

    def first_entries(self, first: np.ndarray) -> np.ndarray:
        """Every stretch is entered one unit past zero, entry 0."""
        return np.zeros_like(first)

    def stretches(self, u: np.ndarray, up: bool, entry: np.ndarray) -> tuple:
        """τ = T + T' per stretch from uniforms ``u`` shaped (stretch, 2,
        trial), its cap hits twice, as the capped and the flagged draws, and
        ``entry``, which no stretch changes; ``up`` changes nothing either."""
        tau, capped = srw_tau_from_uniform_pairs(u[:, 0], u[:, 1], cap_exp=self.cap_exp)
        return tau, capped, capped, entry


def srw_halfexcursion_survival(n) -> np.ndarray:
    """Exact P(τ > n) for the simple walk, 1.0 for n < 2; an n that is nan,
    infinite or past the table range is refused with :class:`OutOfRange`.

    τ = T + T' with the unit-passage law above; computed by convolving the
    exact pmf, for use as a reference curve in tests and diagnostics.
    """
    q = _q_table()
    top = 2 * len(q) - 5  # the largest n with q_{⌊n/2⌋ + 1} in the table
    n = np.asarray(n)
    ok = np.isfinite(n) & (n <= top)
    if not ok.all():
        raise OutOfRange(f"n={n[~ok].flat[0]} must be finite and at most {top}")
    n = n.astype(np.int64)
    # pmf of T at odd arguments: P(T = 2j+1) = q_j - q_{j+1}
    jmax = max(int(n.max()), 0) // 2 + 1
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
    """Per-entry-state duration/exit tables for one side of zero, kept only
    in the layout a draw reads.

    ``entries`` are entry positions as *distances from zero* (always
    positive here; the caller mirrors the negative side).  The K landings
    are the depths the walk can reach, the multiples of its steps' gcd up to
    max_down; ``exit_entry[k]`` is the other side's entry index of the k-th.
    ``search`` stacks one block per entry: -P(τ > n), negated so each block
    ascends and -u compares against it directly, for row 0 (-1, a sentinel
    that stops every downward step, since u ≤ 1) and for every row n where
    mass leaves, P(τ > n) < P(τ > n - 1), then a +1 sentinel that stops
    every upward step, on which exactly the draws with u ≤ P(τ > N) land.
    Each block ascends strictly.  Per slot, ``search_tau`` holds its τ (the
    +1 sentinel's, N + 1, is never returned) and ``exit_cum``, shape
    (slots, K), the cumulative split over the landings: given τ = n at a
    row where mass leaves, given τ > N at the +1 sentinel, and zeros at row
    0, where no draw lands.  ``tail_p[e] = P(τ > N)``, shape (E,).
    ``guide`` is a guide table over the √-tail guess g = ⌈N·(P(τ > N)/u)²⌉
    ∈ [0, N]: ``guide[e·(N+1) + g]`` is the index into ``search`` of the
    first slot past row 0 of entry e's block whose P(τ > n) < u at the
    largest u whose guess is g, so the draws with that guess start there or
    a slot or so before their crossing.
    """

    entries: list[int]
    exit_entry: np.ndarray
    search: np.ndarray
    search_tau: np.ndarray
    exit_cum: np.ndarray
    tail_p: np.ndarray
    guide: np.ndarray


def _one_sided_tables(dist: IncrementDistribution, entries: list[int],
                      landings: list[int], n_table: int) -> SideTables:
    """DP tables for stretches on the nonnegative side of ``dist``.

    The stretch lives on positions ≥ 0 (zero carries the stretch's sign) and
    ends the step it lands strictly below 0; the landing depth is the next
    stretch's entry on the other side, whose entries, as distances from
    zero, are ``landings``.  Mass pushed past the padded range p_max is
    dropped: it cannot come back below zero within the horizon at any
    relevant rate.

    Every step is the lowest value v0 = -s plus a multiple of the span d,
    the gcd of the gaps between values, so after m steps from entry e the
    walk is only ever at positions e - m·s + d·i.  Each entry steps one
    array of such lattice cells: cell i holds position r - m·s + d·i,
    r = e mod d, so a step of v0 leaves mass in its cell and a step of v
    moves it up k_v = (v - v0)/d cells.  The window of cells on positions
    0..p_max slides up the array as m grows.  A step multiplies the window
    by p_{v0} in place, then adds p_v·(the previous window, k_v cells down)
    for the other values in value order: every cell sums the same products
    in the same order as a DP over all positions would, and an absent term
    adds +0.0 or is skipped, so the tables are that DP's bit for bit.  A
    cell that falls below the window is never read or written again: it
    keeps the mass it held at a position 0..s - 1 before the step that took
    it below zero, and these frozen cells, read once after the loop, are the
    mass each step down can absorb.
    """
    values = [int(v) for v in dist.values()]
    probs = [float(p) for p in dist.probabilities()]
    max_down = -min(values)
    p_max = int(np.ceil(_SIGMA_PAD * float(dist.variance()) ** 0.5 * n_table ** 0.5))
    p_max = max(p_max, max(entries) + 1, dist.max_step + 1)
    span = math.gcd(*(v + max_down for v in values))
    p_low = probs[0]
    # (p_v, k_v) for the values above the lowest, in value order
    ups = [(p, (v + max_down) // span) for v, p in zip(values[1:], probs[1:])]
    # the depths the walk can land at, the multiples of the steps' gcd g,
    # are the absorption columns g - 1, 2g - 1, ..; the others hold no mass
    g = math.gcd(*values)
    live = slice(g - 1, None, g)

    # guess g ≥ 2 takes u in [p·√(N/g), p·√(N/(g - 1))), p = P(τ > N),
    # and the crossing at its largest u is the earliest; guesses 0 and 1
    # take u ≥ p·√N, and every u ≤ 1 crosses past row 0
    top_u = np.sqrt(n_table / np.arange(1.0, n_table))
    guide = np.ones((len(entries), n_table + 1), dtype=np.int64)
    tail_p = np.empty(len(entries), dtype=np.float64)
    blocks, taus, splits = [], [], []
    for e, entry in enumerate(entries):
        r = entry % span
        cells = np.zeros((p_max - r + n_table * max_down) // span + 1, dtype=np.float64)
        cells[entry // span] = 1.0
        lo = 0  # the window's first cell
        for shift in range(max_down - r, n_table * max_down - r + 1, max_down):
            # after step m, shift = m·max_down - r, cell i is at position
            # span·i - shift and the window, positions 0..p_max, is cells
            # ⌈shift/span⌉ .. top - 1
            new_lo = -(-shift // span)
            top = (p_max + shift) // span + 1
            # cells above the previous window hold 0.0, cells below it
            # frozen mass: no source starts below lo
            moved = [(p * cells[max(new_lo - k, lo):top - k], max(new_lo, lo + k))
                     for p, k in ups]
            # in place through views: a slice assignment would copy back
            window = cells[new_lo:top]
            window *= p_low
            for add, at in moved:
                into = cells[at:top]
                into += add
            lo = new_lo
        # low[n] = the mass at 0 .. max_down - 1 before step n, the only
        # positions a step down can take below zero: frozen cell i was at
        # j = span·i - (n - 1)·max_down + r before its step n, flat index
        # n·max_down + j = max_down + r + span·i
        low = np.zeros((n_table + 1, max_down), dtype=np.float64)
        low.reshape(-1)[max_down + r::span] = cells[:lo]
        # mass absorbed per (n, depth - 1)
        absorb = np.zeros((n_table + 1, max_down), dtype=np.float64)
        for v, p in zip(values, probs):
            if v < 0:
                # position j < d = -v lands at j - d, depth d - j
                absorb[:, :-v] += p * low[:, -v - 1::-1]
        row_tot = absorb.sum(axis=1)
        surv = np.empty(n_table + 1, dtype=np.float64)
        surv[0] = 1.0
        surv[1:] = row_tot[1:]
        np.subtract.accumulate(surv, out=surv)  # P(τ > n), summed in step order
        tail_p[e] = surv[n_table]
        n = np.flatnonzero(surv[1:] < surv[:-1]) + 1  # the rows where mass leaves
        blocks.append(np.concatenate(([-1.0], -surv[n], [1.0])))
        taus.append(np.concatenate(([0], n, [n_table + 1])))
        guide[e, 2:] = np.searchsorted(blocks[-1], -tail_p[e] * top_u, side="right")
        # the totals sum whole rows, the splits only the live columns
        split = np.zeros((n.size + 2, max_down // g), dtype=np.float64)
        np.cumsum(absorb[n, live] / row_tot[n, None], axis=1, out=split[1:-1])
        # tail split: absorptions over the second half of the table, if any
        tail_counts = absorb[n_table // 2:].sum(axis=0)
        tot = tail_counts.sum()
        split[-1] = (np.cumsum(tail_counts[live] / tot) if tot > 0 else
                     np.linspace(1.0 / (max_down // g), 1.0, max_down // g))
        splits.append(split)
    np.maximum(guide, 1, out=guide)
    guide += np.cumsum([0] + [b.size for b in blocks[:-1]])[:, None]
    exit_entry = [landings.index(d) for d in range(g, max_down + 1, g)]
    return SideTables(entries=entries, exit_entry=np.array(exit_entry, dtype=np.int64),
                      search=np.concatenate(blocks),
                      search_tau=np.concatenate(taus).astype(np.float64),
                      exit_cum=np.concatenate(splits), tail_p=tail_p,
                      guide=guide.reshape(-1))


@dataclass
class ExcursionTables:
    """Both sides' tables and the block draw of stretches over them: the
    duration source of every walk but the simple one, with the members of
    :class:`PassageLaw`."""

    dist: IncrementDistribution
    pos: SideTables              # stretches above zero; entries are +values
    neg: SideTables              # stretches below zero, mirrored; entries are |values|
    n_table: int
    name = "duration-table"
    longest = 1 << 62  # a √-tail τ is clamped here

    def at_cap(self, cap_exp: int) -> ExcursionTables:
        """The tables have no passage cap: themselves."""
        return self

    def first_entries(self, first: np.ndarray) -> np.ndarray:
        """Entry index of the stretch each first step opens: a step v ≥ 0 on
        the positive side (0 at height 0), v < 0 on the negative side."""
        entry = np.zeros(first.shape, dtype=np.int64)
        for v in self.dist.values():
            entry[first == v] = (self.pos if v >= 0 else self.neg).entries.index(abs(v))
        return entry

    def stretches(self, u: np.ndarray, up: bool, entry: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A block of stretches per trial, as in the module's General walks
        section, from uniforms ``u`` shaped (stretch, 2, trial): τ (int64)
        clamped at ``longest``, the clamp hits and the √-tail draws, shaped
        (stretch, trial), and the entry after the block.  Stretch 0 is
        positive if ``up`` and entered at ``entry``."""
        tau, tail, exits = (np.empty(u[:, 0].shape, t) for t in (float, bool, np.int64))
        sides = ("pos", "neg") if up else ("neg", "pos")  # of the even and odd rows

        def draw(rows, side, entries):
            shape = entries.shape
            t, flags, slot = self.sample_tau(side, entries.ravel(), u[rows, 0].ravel())
            tau[rows], tail[rows] = t.reshape(shape), flags.reshape(shape)
            exits[rows] = self.sample_exit(side, slot, u[rows, 1].ravel()).reshape(shape)

        pos_lead = len(self.pos.entries) == 1
        if pos_lead or len(self.neg.entries) == 1:
            j0 = int(up != pos_lead)  # the first row of the side with one entry state
            lead, other = slice(j0, None, 2), slice(1 - j0, None, 2)
            draw(lead, sides[j0], np.zeros(tau[lead].shape, dtype=np.int64))
            draw(other, sides[1 - j0], np.concatenate((entry[None], exits[:-1]))[other])
        else:
            for j in range(len(u)):
                draw(j, sides[j % 2], entry)
                entry = exits[j]
        capped = tau > self.longest
        return np.minimum(tau, self.longest, out=tau).astype(np.int64), capped, tail, exits[-1]

    def sample_tau(self, side: str, entry_idx: np.ndarray, u: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Durations for a batch of stretches (float64), their tail-draw
        flags and the ``search`` slots they landed on.

        τ is the first n with P(τ > n) < u in the entry's row.  Every draw's
        guess g = ⌈N·(P(τ > N)/u)²⌉ picks its start slot ``guide[e, g]``
        (g clipped at N) in the stacked ``search`` blocks, searched from
        there (the module's Search section): the block's -1 and +1 sentinels
        keep the steps in it, the crossing is the τ of the slot it lands on,
        and a draw with u ≤ P(τ > N) lands on the +1 sentinel and takes the
        √-tail n = N·(P(τ > N)/u)², its guess, instead.
        """
        tables = self.pos if side == "pos" else self.neg
        pt = tables.tail_p[entry_idx]
        guess = np.ceil(self.n_table * (pt / u) ** 2)
        tail = u <= pt
        at = tables.guide[entry_idx * (self.n_table + 1)
                          + np.minimum(guess, self.n_table).astype(np.int64)]
        search, neg_u = tables.search, -u
        _step_to_crossing(at, lambda r, i: search[i - 1] > neg_u[r],
                          lambda r, i: search[i] <= neg_u[r])
        return np.where(tail, guess, tables.search_tau[at]), tail, at

    def sample_exit(self, side: str, slot: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next entry indices (on the opposite side) for a batch of
        stretches whose durations landed on ``slot``.

        The exit is the first column of the slot's split whose cumulative
        reaches u.  Only the first K - 1 columns are compared: past them the
        exit is the last column, also where that column's cumulative rounded
        below 1.0.
        """
        tables = self.pos if side == "pos" else self.neg
        trans = tables.exit_entry
        kcols = trans.size
        if kcols == 1:
            return np.full(u.shape, trans[0])
        head = np.arange(kcols - 1)[:, None]
        cums = tables.exit_cum.reshape(-1)[slot * kcols + head]  # (K - 1, n)
        return trans[(u > cums).sum(axis=0)]


def _entry_closure(dist: IncrementDistribution) -> tuple[list[int], list[int]]:
    """All reachable entry positions: initial steps plus cross-side landings.
    Every position the walk visits is a multiple of g, the gcd of its step
    values, so a landing is one of g, 2g, .. up to the largest step."""
    g = math.gcd(*(int(v) for v in dist.values()))
    pos = {int(v) for v in dist.values() if v > 0}
    neg = {int(v) for v in dist.values() if v < 0}
    max_up = max(pos)
    max_down = -min(neg)
    pos |= set(range(g, max_up + 1, g))
    neg |= {-d for d in range(g, max_down + 1, g)}
    if 0 in (int(v) for v in dist.values()):
        pos.add(0)  # a first step of 0 starts a positive stretch at height 0
    return sorted(pos), sorted(neg)


_TABLE_CACHE: dict = {}


def keep_tables(*tables: ExcursionTables) -> None:
    """Put built tables in this process's cache, where
    :func:`excursion_tables` finds them: a pool worker's initializer, so
    that no worker builds the tables its parent built."""
    for t in tables:
        _TABLE_CACHE[(t.dist.atoms, t.n_table)] = t


def excursion_tables(dist: IncrementDistribution, n_table: int = DEFAULT_TABLE_SIZE
                     ) -> ExcursionTables:
    """Build (or fetch cached) duration tables for a general walk.

    ``n_table``, the table horizon N, follows :func:`~.walk._whole`.
    """
    n_table = _whole("n_table", n_table)
    hit = _TABLE_CACHE.get((dist.atoms, n_table))
    if hit is not None:
        return hit
    pos_entries, neg_entries = _entry_closure(dist)
    neg_entries = [-e for e in neg_entries]
    # the negative side is the positive side of the mirrored walk
    tables = ExcursionTables(
        dist=dist,
        pos=_one_sided_tables(dist, pos_entries, neg_entries, n_table),
        neg=_one_sided_tables(dist.mirrored(), neg_entries, pos_entries, n_table),
        n_table=n_table,
    )
    keep_tables(tables)
    return tables
