"""Survival curves, binomial intervals, exponent fits, skew diagnostic, CSV."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from persistwalk import engine, increments, montecarlo as mc, oracle
from persistwalk.errors import (HorizonOverflow, InsufficientData, OutOfRange)

SIMPLE = increments.preset("simple")
UNIT_UP = increments.preset("unit-up", negatives=[-2])
TG = increments.preset("truncated-geometric", p=F(1, 2), cutoff=3)
# sizes the package-wide size rule refuses, and whole numbers of other types
# it accepts as the int 4
BAD_SIZES = (None, "10", 2.5, 0, math.nan, math.inf)
WHOLE_FOURS = (4.0, np.int64(4), F(4))


def test_geometric_grid():
    g = mc.geometric_grid(100)
    assert g[0] == 1 and g[-1] == 100
    assert np.all(np.diff(g) > 0)
    assert g.dtype == np.int64
    coarse = mc.geometric_grid(100, ratio=4.0)
    assert len(coarse) < len(g)
    assert np.array_equal(mc.geometric_grid(5, h_min=5), [5])
    assert np.array_equal(mc.geometric_grid(10.0, h_min=np.int32(2)),
                          mc.geometric_grid(10, h_min=2))
    with pytest.raises(OutOfRange):
        mc.geometric_grid(4, h_min=10)
    # h_min = 0 used to loop forever; inf and nan used to escape as
    # OverflowError and ValueError from int(round(h)), and fractional
    # bounds were truncated without a word
    for kw in ({"ratio": 1.0}, {"ratio": math.inf}, {"ratio": math.nan},
               {"ratio": 2.0, "h_min": 0}, {"h_min": math.nan}, {"h_min": math.inf},
               {"h_min": 2.5}):
        with pytest.raises(OutOfRange):
            mc.geometric_grid(10, **kw)
    for h_max in (10.5, *BAD_SIZES):
        with pytest.raises(OutOfRange, match="h_max="):
            mc.geometric_grid(h_max)
    for h_min in BAD_SIZES:
        with pytest.raises(OutOfRange, match="h_min="):
            mc.geometric_grid(10, h_min=h_min)
    for v in WHOLE_FOURS:
        assert np.array_equal(mc.geometric_grid(v), mc.geometric_grid(4))
        assert np.array_equal(mc.geometric_grid(10, h_min=v),
                              mc.geometric_grid(10, h_min=4))
    # a ratio of 1 + 2^-40 used to loop for some 2.5·10^12 steps; near 1
    # the grid is every horizon
    np.testing.assert_array_equal(mc.geometric_grid(10, ratio=1 + 2 ** -40),
                                  np.arange(1, 11))
    np.testing.assert_array_equal(mc.geometric_grid(1000, ratio=1.0004, h_min=7),
                                  np.arange(7, 1001))
    # the default grid of a survival curve is built before the engine sees
    # t_max or k_max; an infinite horizon used to end in OverflowError
    # after some 4 000 loop steps
    with pytest.raises(OutOfRange):
        mc.survival_atilde(SIMPLE, 0, math.inf, 100, 1)
    with pytest.raises(OutOfRange):
        mc.survival_a(SIMPLE, 0, math.inf, 100, 1)


def test_clopper_pearson_boundaries_and_interior():
    n = 100
    lo, hi = mc.clopper_pearson([0], n)
    assert lo[0] == 0.0
    assert hi[0] == pytest.approx(1.0 - 0.05 ** (1 / n))  # ~ rule of three
    assert hi[0] == pytest.approx(3.0 / n, rel=0.05)
    lo, hi = mc.clopper_pearson([n], n)
    assert hi[0] == 1.0
    assert lo[0] == pytest.approx(0.05 ** (1 / n))
    # interior case against the direct beta-quantile definition
    k, n = 37, 120
    lo, hi = mc.clopper_pearson([k], n)
    assert lo[0] == pytest.approx(beta_dist.ppf(0.025, k, n - k + 1), rel=1e-12)
    assert hi[0] == pytest.approx(beta_dist.ppf(0.975, k + 1, n - k), rel=1e-12)
    assert lo[0] < k / n < hi[0]


def test_survival_atilde_matches_exact_dp():
    grid = (1, 2, 3, 4, 6)
    curve = mc.survival_atilde(SIMPLE, 0, 6, 20_000, seed=701, grid=grid)
    assert curve.kind == "time"
    assert curve.engine == "exact-excursion"
    assert np.all(np.diff(curve.survivors) <= 0)
    for i, t in enumerate(grid):
        p = float(oracle.exact_atilde(SIMPLE, 0, t))
        sigma = math.sqrt(p * (1 - p) / curve.trials)
        assert abs(curve.p_hat[i] - p) <= 3 * sigma, f"t={t}"
    cfg = curve.config
    assert cfg["command"] == "estimate-atilde"
    assert cfg["x"] == "0/1" and cfg["t_max"] == 6 and cfg["seed"] == 701


def test_survival_atilde_stepped_dist_matches_exact_dp():
    grid = (1, 3, 6)
    # the stepped reference, then the duration tables that auto picks
    for kind, engine in (("stepped", "stepped"), ("auto", "duration-table")):
        curve = mc.survival_atilde(TG, F(1, 2), 6, 8000, seed=702, grid=grid,
                                   engine_kind=kind)
        assert curve.engine == engine
        for i, t in enumerate(grid):
            p = float(oracle.exact_atilde(TG, F(1, 2), t))
            sigma = math.sqrt(p * (1 - p) / curve.trials)
            assert abs(curve.p_hat[i] - p) <= 3 * sigma, f"{kind} t={t}"


def test_survival_a_within_certified_bracket():
    curve = mc.survival_a(SIMPLE, 0, 2, 20_000, seed=703, grid=(1, 2))
    assert curve.kind == "excursion"
    for i, k in enumerate((1, 2)):
        lo, hi = oracle.exact_a(SIMPLE, 0, k, 120)
        sigma = math.sqrt(float(hi) * (1 - float(hi)) / curve.trials)
        assert float(lo) - 3 * sigma <= curve.p_hat[i] <= float(hi) + 3 * sigma
    assert curve.config["command"] == "estimate-a"


def test_survival_a_cap_handling():
    kw = dict(grid=(1, 2), step_cap=64, engine_kind="stepped")
    curve = mc.survival_a(UNIT_UP, 0, 2, 500, seed=704, **kw)
    assert curve.capped > 0  # upward-bias convention, carried on the curve
    with pytest.raises(HorizonOverflow):
        mc.survival_a(UNIT_UP, 0, 2, 500, seed=704, on_cap="raise", **kw)


def test_survival_refuses_horizons_the_run_cannot_answer(monkeypatch):
    # trials are followed to t_max (k_max) only; a horizon past it used to
    # report 0 survivors, one below 1 reported p = 1, and 2.5 was read as 2
    for grid in ((50, 100, 200), (0, -3, 50), (), (2.5, 10), (math.nan, 10),
                 (math.inf,)):
        with pytest.raises(OutOfRange, match="grid"):
            mc.survival_atilde(SIMPLE, 0, 100, 200, seed=1, grid=grid)
    with pytest.raises(OutOfRange, match="grid"):
        mc.survival_a(SIMPLE, 0, 10, 200, seed=1, grid=(5, 10, 20))
    with pytest.raises(OutOfRange, match="grid"):
        mc.survival_a(SIMPLE, 0, 10, 200, seed=1, grid=(2.5, 10))
    curve = mc.survival_a(SIMPLE, 0, 10, 200, seed=1,
                          grid=(10.0, np.int32(1), F(10)))
    assert curve.horizons.tolist() == [1, 10]
    # a whole t_max of any type runs as the int; None and "10" used to end
    # in TypeError, and every bad t_max is refused before any draw
    ref = mc.survival_atilde(SIMPLE, 0, 4, 100, 1)
    for v in WHOLE_FOURS:
        curve = mc.survival_atilde(SIMPLE, 0, v, 100, 1)
        assert np.array_equal(curve.survivors, ref.survivors)
        assert curve.config == ref.config
    monkeypatch.setattr(engine, "uniform_at", None)
    monkeypatch.setattr(engine, "trial_keys", None)
    for t_max in (1, *BAD_SIZES):
        with pytest.raises(OutOfRange, match="t_max="):
            mc.survival_atilde(SIMPLE, 0, t_max, 100, 1)


def test_survival_refuses_unknown_mode_and_on_cap():
    # "Strict" used to give the weak curve and "rasie" used to count caps
    with pytest.raises(ValueError, match="mode"):
        mc.survival_atilde(SIMPLE, 0, 100, 100, seed=705, mode="Strict")
    with pytest.raises(ValueError, match="mode"):
        mc.survival_a(SIMPLE, 0, 2, 100, seed=705, mode="Weak")
    with pytest.raises(ValueError, match="on_cap"):
        mc.survival_a(SIMPLE, 0, 2, 100, seed=705, on_cap="rasie")


def test_fit_exponent_recovers_exact_power_law():
    grid = mc.geometric_grid(4096)
    p = 0.9 * grid.astype(float) ** -0.37
    curve = mc.SurvivalCurve.from_probabilities(grid, p, trials=10 ** 6)
    fit = mc.fit_exponent(curve)
    assert fit.slope == pytest.approx(-0.37, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr > 0
    assert fit.fit_range == (1, 4096)
    assert fit.n_points == len(grid)
    sub = mc.fit_exponent(curve, fit_range=(8, 512))
    assert sub.slope == pytest.approx(-0.37, abs=1e-12)
    assert sub.n_points == int(np.sum((grid >= 8) & (grid <= 512)))


def test_fit_exponent_insufficient_data():
    # four usable points is one short of the minimum
    curve = mc.SurvivalCurve.from_probabilities([1, 2, 4, 8], [1, .8, .6, .5],
                                                trials=1000)
    with pytest.raises(InsufficientData):
        mc.fit_exponent(curve)
    # plenty of points, but the survivor floor disqualifies all but three
    grid = mc.geometric_grid(256)
    p = np.full(len(grid), 20 / 1000.0)
    p[:3] = 0.5
    sparse = mc.SurvivalCurve.from_probabilities(grid, p, trials=1000)
    with pytest.raises(InsufficientData):
        mc.fit_exponent(sparse)
    # one usable point is no fit whatever min_points says; it used to end
    # in ZeroDivisionError
    with pytest.raises(InsufficientData, match="need 2"):
        mc.fit_exponent(sparse, (1, 1), min_points=1)
    # a survivor floor of 0 kept a point with no survivors and gave
    # slope=nan, r2=1
    six = mc.SurvivalCurve(kind="time", horizons=[1, 2, 4, 8, 16, 32],
                           survivors=[50, 30, 20, 10, 5, 0], trials=100)
    for bad in BAD_SIZES:
        with pytest.raises(OutOfRange, match="min_survivors="):
            mc.fit_exponent(six, min_survivors=bad)
        with pytest.raises(OutOfRange, match="min_points="):
            mc.fit_exponent(six, min_points=bad)
    fit = mc.fit_exponent(six, min_survivors=1)
    assert fit.n_points == 5 and math.isfinite(fit.slope)
    for v in WHOLE_FOURS:
        assert mc.fit_exponent(six, min_survivors=v, min_points=v) == \
            mc.fit_exponent(six, min_survivors=4, min_points=4)


def test_skew_from_xi_trivial_sequences():
    n_grid = (4, 16)
    ones = np.ones((50, 16))
    d = mc.skew_diagnostic_from_xi(ones, n_grid)
    assert not d.degenerate
    np.testing.assert_array_equal(d.d, 0.0)
    np.testing.assert_array_equal(d.d_err, 0.0)
    np.testing.assert_array_equal(d.alive_counts, [50, 50])
    dead = mc.skew_diagnostic_from_xi(-ones, n_grid)
    assert dead.degenerate
    assert np.all(np.isinf(dead.d))
    np.testing.assert_array_equal(dead.neg_counts, [50, 50])
    with pytest.raises(OutOfRange):
        mc.skew_diagnostic_from_xi(ones, (4, 32))


def test_skew_from_xi_mixed_population():
    # 3/4 of rows survive forever, 1/4 die at the first step, so at every n
    # p = 3/4 and q = 1/4 exactly and the defect has a closed form
    xi = np.ones((80, 16))
    xi[:20] = -1.0
    n_grid = (4, 16)
    d = mc.skew_diagnostic_from_xi(xi, n_grid)
    for j, n in enumerate(n_grid):
        expect = abs(math.log(0.75) / math.log(n) + 0.25)
        assert d.d[j] == pytest.approx(expect, rel=1e-12)
        # delta-method error with the disjoint-event covariance term
        N, p, q, ln = 80, 0.75, 0.25, math.log(n)
        var = ((1 - p) / (N * p * ln ** 2) + q * (1 - q) / N
               - 2 * q / (N * ln))
        assert d.d_err[j] == pytest.approx(math.sqrt(var), rel=1e-12)
    flipped = mc.skew_diagnostic_from_xi(xi, n_grid, printed_sign=True)
    assert flipped.d[0] == pytest.approx(
        abs(math.log(0.75) / math.log(4) - 0.25), rel=1e-12)


def test_skew_diagnostic_simulated(monkeypatch):
    d = mc.skew_diagnostic(SIMPLE, F(1, 2), (4, 8, 16), 4000, seed=705)
    assert d.trials == 4000
    assert np.all(np.diff(d.alive_counts) <= 0)
    assert np.all(np.isfinite(d.d))
    assert np.all(d.d_err > 0)
    with pytest.raises(InsufficientData):
        mc.skew_diagnostic(SIMPLE, F(1, 2), (4, 400), 50, seed=706)
    with pytest.raises(OutOfRange):
        mc.skew_diagnostic(SIMPLE, 0, (1, 8), 100, seed=707)
    # 20.7 used to run as n = 20, and None ended in TypeError; every entry
    # is refused before any draw
    with pytest.raises(OutOfRange, match="20.7"):
        mc.skew_diagnostic(SIMPLE, 0, (10, 20.7), 100, seed=707)
    same = mc.skew_diagnostic(SIMPLE, F(1, 2), (F(16), 4.0, np.int64(8), 4), 4000,
                              seed=705)
    assert same.n_grid == d.n_grid
    np.testing.assert_array_equal(same.alive_counts, d.alive_counts)
    np.testing.assert_array_equal(same.neg_counts, d.neg_counts)
    monkeypatch.setattr(engine, "uniform_at", None)
    monkeypatch.setattr(engine, "trial_keys", None)
    for bad in BAD_SIZES:
        with pytest.raises(OutOfRange, match="n_grid"):
            mc.skew_diagnostic(SIMPLE, 0, (bad, 10), 100, seed=707)


def test_csv_round_trip(tmp_path):
    curve = mc.survival_atilde(SIMPLE, 0, 16, 2000, seed=708)
    path = tmp_path / "surv.csv"
    mc.write_survival_csv(curve, path)
    text = path.read_text()
    first, second = text.splitlines()[:2]
    assert first.startswith("# persistwalk ")
    assert second.startswith("# config: ")
    assert json.loads(second[len("# config: "):]) == curve.config
    assert "horizon,survivors,trials,p_hat,ci_low,ci_high" in text
    back = mc.read_survival_csv(path)
    np.testing.assert_array_equal(back.horizons, curve.horizons)
    np.testing.assert_array_equal(back.survivors, curve.survivors)
    assert back.trials == curve.trials
    assert back.config == curve.config
    assert back.kind == "time"
    fit = mc.fit_exponent(curve, fit_range=(1, 16), min_points=3)
    mc.append_fit_csv(path, fit)
    tail = path.read_text().splitlines()[-2:]
    assert tail[0] == "# fit: slope,stderr,r2,fit_lo,fit_hi"
    assert f"{fit.slope:.10g}" in tail[1]
    again = mc.read_survival_csv(path)  # fit lines must not break ingestion
    np.testing.assert_array_equal(again.survivors, curve.survivors)


def test_csv_float_survivors_and_cap_comment(tmp_path):
    grid = np.array([1, 4, 16])
    curve = mc.SurvivalCurve.from_probabilities(grid, [0.5, 0.21, 0.0817],
                                                trials=3000, capped=3)
    path = tmp_path / "ref.csv"
    mc.write_survival_csv(curve, path, extra_comments=("reference curve",))
    text = path.read_text()
    assert "# capped_trials: 3" in text
    assert "# reference curve" in text
    assert "tail_draws" not in text  # written only when some were counted
    back = mc.read_survival_csv(path)
    assert back.survivors.dtype == np.float64
    np.testing.assert_allclose(back.survivors, curve.survivors, rtol=0, atol=0)


def test_read_survival_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha,beta\n1,2\n")
    with pytest.raises(InsufficientData):
        mc.read_survival_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("# persistwalk 0\n")
    with pytest.raises(InsufficientData):
        mc.read_survival_csv(empty)


def test_read_survival_csv_refuses_malformed_curves(tmp_path):
    # each body has one bad row, on line 4 under a comment and the column row
    head = "# persistwalk 0\nhorizon,survivors,trials,p_hat,ci_low,ci_high\n1,30,40\n"
    for row, problem in (("2,50,40", "survivors 50 lie outside"),
                         ("2,-1,40", "survivors -1 lie outside"),
                         ("2,nan,40", "survivors nan lie outside"),
                         ("0,10,40", "horizon 0 is below 1"),
                         ("-2,10,40", "horizon -2 is below 1"),
                         ("1,10,40", "horizon 1 is not above 1"),
                         ("2,10,100", "trials 100 is not the first row's 40"),
                         # an IndexError and a bare ValueError before
                         ("1,2", "cannot read '1,2' as horizon,survivors,trials"),
                         ("1.5,2,3", "cannot read '1.5,2,3' as horizon")):
        path = tmp_path / "bad.csv"
        path.write_text(head + row + "\n")
        with pytest.raises(InsufficientData, match=f"bad.csv, line 4: {problem}"):
            mc.read_survival_csv(path)
    path.write_text("1,0,0\n")
    with pytest.raises(InsufficientData, match="line 1: trials 0 is below 1"):
        mc.read_survival_csv(path)
    # a config comment that is not a JSON object: an AttributeError and an
    # untyped JSONDecodeError before
    for config in ("[1, 2]", "{bad"):
        path.write_text(f"# persistwalk 0\n# config: {config}\n1,30,40\n")
        with pytest.raises(InsufficientData, match="bad.csv, line 2: the config "
                                                   "comment is not a JSON object"):
            mc.read_survival_csv(path)
    # the edges stay readable: every trial alive, none alive, one horizon
    path.write_text(head + "2,0,40\n")
    assert mc.read_survival_csv(path).survivors.tolist() == [30, 0]
    path.write_text("1,40,40\n")
    assert mc.read_survival_csv(path).survivors.tolist() == [40]


def test_gamma_ratio():
    assert mc.gamma_ratio(0, 0.5) == pytest.approx(1.0, rel=1e-14)
    k = np.arange(0, 40)
    r = mc.gamma_ratio(k, 0.3)
    # ratio recurrence r(k+1)/r(k) = (k+1-phi)/(k+1)
    np.testing.assert_allclose(r[1:] / r[:-1], (k[:-1] + 1 - 0.3) / (k[:-1] + 1),
                               rtol=1e-12)
    direct = math.exp(math.lgamma(100.5) - math.lgamma(101) - math.lgamma(0.5))
    got = mc.gamma_ratio(100, 0.5)
    assert isinstance(got, float)
    assert got == pytest.approx(direct, rel=1e-13)
    assert got == pytest.approx(0.0563484, rel=1e-5)
    # large-k behaviour ~ k^-phi / Gamma(1-phi)
    assert got == pytest.approx(100 ** -0.5 / math.gamma(0.5), rel=0.01)
    with pytest.raises(OutOfRange):
        mc.gamma_ratio(10, 0.0)
    with pytest.raises(OutOfRange):
        mc.gamma_ratio(10, 1.0)
    with pytest.raises(OutOfRange):
        mc.gamma_ratio(-1, 0.5)


def test_tail_draws_reach_the_curve_and_csv(tmp_path):
    # general walks run the excursion event on the duration tables, whose
    # √-tail draws are counted on the curve and in a CSV comment
    curve = mc.survival_a(UNIT_UP, 0, 50, 2000, seed=706, grid=(10, 50))
    assert curve.engine == "duration-table" and curve.tail_draws > 0
    path = tmp_path / "a.csv"
    mc.write_survival_csv(curve, path)
    assert f"# tail_draws: {curve.tail_draws}\n" in path.read_text()
