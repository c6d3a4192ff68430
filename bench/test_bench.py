"""Tests of the benchmark itself (not part of the package's suite).

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import compare
import run
import series
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_METRICS = [name for name, unit, _ in tracing.PER_LAYER if unit == "count"]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_at_tiny_size(workload):
    res = _result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1
    assert set(res["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    assert set(first["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_wrappers_restore_the_originals():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in tracing.WRAPPED]
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("leave the traced block early")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_self_time_excludes_children():
    spans = [["engine.stepped", 0, 10_000_000_000, -1, {}],
             ["increments.steps", 1_000_000_000, 4_000_000_000, 0, {"draws": 64}],
             ["increments.steps", 5_000_000_000, 6_000_000_000, 0, {"draws": 32}]]
    m = tracing.layer_metrics(spans)
    assert m["engine.stepped.self_s"] == pytest.approx(6.0)
    assert m["increments.steps.self_s"] == pytest.approx(4.0)
    assert m["engine.stepped.trial_steps"] == 96


def test_refuses_to_run_without_the_package(tmp_path):
    proc = _bench("--workload", "srw-survival", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def _write_set(path, scale, series="s", correct=True, failed=0):
    with open(path, "w") as fh:
        fh.write(json.dumps({"machine": {}, "seconds": 24, "series": series}) + "\n")
        for seed in range(1, 11):
            value = scale * (1.0 + 0.001 * seed)
            fh.write(json.dumps({"workload": "w", "seed": seed, "result": {
                "correct": correct, "attempted": 100, "failed": failed,
                "metrics": {"solve_rel": {"value": value, "unit": "ratio"}}}}) + "\n")


def test_compare_flags_a_regression(tmp_path):
    _write_set(tmp_path / "base.jsonl", 1.0)
    _write_set(tmp_path / "new.jsonl", 1.5)
    base, new = compare.load(tmp_path / "base.jsonl"), compare.load(tmp_path / "new.jsonl")
    metrics = {"solve_rel": ("lower", 0.1)}
    assert compare.show_two(base, base, metrics) == 0
    assert compare.show_two(base, new, metrics) == 1


def test_compare_flags_more_failures_as_incorrect(tmp_path, capsys):
    _write_set(tmp_path / "base.jsonl", 1.0)
    _write_set(tmp_path / "fails.jsonl", 0.5, failed=1)
    _write_set(tmp_path / "wrong.jsonl", 0.5, correct=False)
    base = compare.load(tmp_path / "base.jsonl")
    metrics = {"solve_rel": ("lower", 0.1)}
    for name in ("fails", "wrong"):
        capsys.readouterr()
        assert compare.show_two(base, compare.load(tmp_path / f"{name}.jsonl"),
                                metrics) == 1
        assert capsys.readouterr().out.rstrip().endswith("incorrect")


def test_compare_pairs_only_sets_written_together(tmp_path, capsys):
    _write_set(tmp_path / "base.jsonl", 1.0)
    _write_set(tmp_path / "together.jsonl", 0.5)
    _write_set(tmp_path / "apart.jsonl", 0.5, series="t")
    base = compare.load(tmp_path / "base.jsonl")
    metrics = {"solve_rel": ("lower", 0.1)}
    for name, verdict in (("together", "better"), ("apart", "ok")):
        capsys.readouterr()
        compare.show_two(base, compare.load(tmp_path / f"{name}.jsonl"), metrics)
        assert capsys.readouterr().out.rstrip().endswith(verdict)


def test_series_alternates_two_roots(tmp_path, capsys):
    roots = [tmp_path / "base", tmp_path / "new"]   # no package: every run exits 2
    for root in roots:
        root.mkdir()
    outs = [str(tmp_path / "base.jsonl"), str(tmp_path / "new.jsonl")]
    assert series.main(["--seeds", "1", "--roots", *map(str, roots), "--out", *outs]) == 1
    order = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert order[:4] == [outs[0], outs[1], outs[1], outs[0]]
    (bh, _, bruns), (nh, _, nruns) = map(compare.load, outs)
    assert bh["series"] == nh["series"] and bh["seconds"] == series.run_seconds()
    assert set(bruns) == set(nruns) == set(run.WORKLOADS)
    assert all(by_seed == {1: (False, 0, 0)} for by_seed in [*bruns.values(), *nruns.values()])


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(tracing.PER_LAYER)
