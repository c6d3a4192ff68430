"""Increment distributions: presets, validation, config parsing, sampling."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistwalk import increments
from persistwalk.errors import (BadProbabilities, ConfigParse,
                                InfeasibleBalance, NonZeroMean,
                                OneSidedSupport)
from persistwalk.rng import RandomStream


def test_simple_preset():
    d = increments.preset("simple")
    assert d.atoms == ((-1, Fraction(1, 2)), (1, Fraction(1, 2)))
    assert d.is_simple
    assert sum(v * p for v, p in d.atoms) == 0


def test_unit_up_preset():
    d = increments.preset("unit-up", negatives=[-2])
    assert dict(d.atoms) == {1: Fraction(2, 3), -2: Fraction(1, 3)}
    assert sum(v * p for v, p in d.atoms) == 0
    assert not d.is_simple


def test_truncated_geometric_preset():
    d = increments.preset("truncated-geometric", p=Fraction(1, 2), cutoff=3)
    assert dict(d.atoms) == {1: Fraction(2, 9), 2: Fraction(1, 9),
                             3: Fraction(1, 18), -1: Fraction(11, 18)}
    assert sum(v * p for v, p in d.atoms) == 0


def test_validate_rejects_nonzero_mean():
    with pytest.raises(NonZeroMean):
        increments.validate([(1, Fraction(2, 3)), (-1, Fraction(1, 3))])


def test_validate_rejects_bad_mass():
    with pytest.raises(BadProbabilities):
        increments.validate([(1, Fraction(1, 2)), (-1, Fraction(1, 3))])
    with pytest.raises(BadProbabilities):
        increments.validate([(1, Fraction(1, 2)), (-1, Fraction(-1, 2)),
                             (2, Fraction(1))])


def test_validate_rejects_one_sided():
    with pytest.raises(OneSidedSupport):
        increments.validate([(0, Fraction(1, 2)), (1, Fraction(1, 2))])


def test_unit_up_infeasible_balance():
    with pytest.raises(InfeasibleBalance):
        increments.preset("unit-up", negatives=[])


def test_presets_refuse_non_integer_values():
    # a float value was truncated without a word: (-2.5, 1) built
    # unit-up(-2) and cutoff 2.7 a cutoff of 2; a bare -2.0 ended in an
    # untyped TypeError.  They meet validate's integer rule instead
    for params in (dict(negatives=[(-2.5, 1)]), dict(negatives=[-2.0]),
                   dict(negatives=[(-2.0, 1)]), dict(negatives=[True])):
        with pytest.raises(InfeasibleBalance, match="integer"):
            increments.preset("unit-up", **params)
    with pytest.raises(InfeasibleBalance, match="cutoff 2.7 is not an integer"):
        increments.preset("truncated-geometric", p="1/2", cutoff=2.7)
    assert (increments.preset("unit-up", negatives=[(np.int64(-2), 1)]).atoms
            == increments.preset("unit-up", negatives=[-2]).atoms)
    assert increments.preset("truncated-geometric", p="1/2", cutoff=np.int32(3)).max_step == 3


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4,
                unique=True),
       st.lists(st.integers(min_value=-9, max_value=-1), min_size=1,
                max_size=4, unique=True))
@settings(max_examples=50)
def test_random_balanced_distributions_are_zero_mean(pos, neg):
    # equal weight a per positive atom, b per negative; a·Σpos = b·Σ|neg|
    spos = sum(pos)
    sneg = -sum(neg)
    total = len(pos) * sneg + len(neg) * spos
    atoms = [(v, Fraction(sneg, total)) for v in pos]
    atoms += [(v, Fraction(spos, total)) for v in neg]
    d = increments.validate(atoms)
    assert sum(v * p for v, p in d.atoms) == 0
    assert sum(p for _, p in d.atoms) == 1


def test_from_config_rational_strings():
    d = increments.from_config({"atoms": [[1, "1/2"], [-1, "1/2"]]})
    assert d.atoms == increments.preset("simple").atoms
    d2 = increments.from_config('{"atoms": [[1, "1/2"], [-1, "1/2"]]}')
    assert d2.atoms == d.atoms


def test_from_config_errors():
    with pytest.raises(ConfigParse):
        increments.from_config("not json at all {")
    with pytest.raises(ConfigParse):
        increments.from_config({"nope": 1})
    # a step value that is not an integer was truncated by int(), so
    # 1.5 and -1.5 ran the simple walk; validate's integer check now refuses
    # it, and a whole float, a string or a bool too
    with pytest.raises(BadProbabilities, match="1.5 is not an integer"):
        increments.from_config('{"atoms": [[1.5, "1/2"], [-1.5, "1/2"]]}')
    for v in (1.0, "1", True):
        with pytest.raises(BadProbabilities, match="is not an integer"):
            increments.from_config({"atoms": [[v, "1/2"], [-1, "1/2"]]})


def test_to_config_round_trip():
    d = increments.preset("unit-up", negatives=[-2, -3])
    back = increments.from_config(d.to_config())
    assert back.atoms == d.atoms


def test_parse_dist_spec_forms(tmp_path):
    import json
    assert increments.parse_dist_spec("simple").is_simple
    assert increments.parse_dist_spec("unit-up:-2").atoms == \
        increments.preset("unit-up", negatives=[-2]).atoms
    assert increments.parse_dist_spec("tg:1/2,3").atoms == \
        increments.preset("truncated-geometric", p=Fraction(1, 2),
                          cutoff=3).atoms
    inline = increments.parse_dist_spec('{"atoms": [[1, "1/2"], [-1, "1/2"]]}')
    assert inline.is_simple
    cfg = tmp_path / "dist.json"
    cfg.write_text(json.dumps(increments.preset("simple").to_config()))
    assert increments.parse_dist_spec(str(cfg)).is_simple
    with pytest.raises(ConfigParse):
        increments.parse_dist_spec("no-such-thing")


def test_parse_rational():
    assert increments.parse_rational("1/2") == Fraction(1, 2)
    assert increments.parse_rational("0") == 0
    assert increments.parse_rational(Fraction(3, 4)) == Fraction(3, 4)
    with pytest.raises(ConfigParse):
        increments.parse_rational("one half")
    with pytest.raises(ConfigParse):
        increments.parse_rational("1/0")


def test_sample_frequencies():
    d = increments.preset("truncated-geometric", p=Fraction(1, 2), cutoff=3)
    xs = increments.sample_block(d, RandomStream(17, 0), 200_000)
    for v, p in d.atoms:
        emp = float((xs == v).mean())
        sig = float(np.sqrt(float(p) * (1 - float(p)) / len(xs)))
        assert abs(emp - float(p)) < 4 * sig


def test_steps_from_uniforms_matches_cumulative():
    d = increments.preset("unit-up", negatives=[-2])
    u = RandomStream(3, 1).uniforms(10_000)
    xs = increments.steps_from_uniforms(d, u)
    # same uniforms through the scalar path
    cum = d.cumulative()
    vals = d.values()
    want = vals[np.searchsorted(cum, u, side="right")]
    np.testing.assert_array_equal(xs, want)


def test_sample_block_matches_scalar_sample():
    d = increments.preset("simple")
    block = increments.sample_block(d, RandomStream(8, 2), 32)
    singles = np.array([increments.sample(d, RandomStream(8, 2, position=i))
                        for i in range(32)])
    np.testing.assert_array_equal(block, singles)


def test_mirrored_flips_support():
    d = increments.preset("unit-up", negatives=[-2])
    m = d.mirrored()
    assert dict(m.atoms) == {-1: Fraction(2, 3), 2: Fraction(1, 3)}
    assert sum(v * p for v, p in m.atoms) == 0
