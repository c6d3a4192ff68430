"""Read result sets written by ``bench/series.py``.

    python3 bench/compare.py SET.jsonl              # spread of one set
    python3 bench/compare.py BASE.jsonl NEW.jsonl   # compare two sets

For one set it prints, per workload and metric, the median, the quartiles
and the spread (quartile distance over median) against the metric's bound
in ``BENCHMARK.json``, and per workload the share of failed operations and
the number of runs that failed a check.

For two sets it prints each side's median and quartiles, the ratio new/base
with its base and, for two sets written together by one ``series.py`` run,
the fraction of the alternating base/new pairs the new side won (ties count
for neither).  Sets written apart cannot be paired: the machine drifts
between them, so no pairs are counted and nothing is called better.
Verdicts:

* "incorrect", on every bounded metric of a workload, where a new run
  failed a check or gave no result, or where the new side failed a larger
  share of its operations than the base;
* "unresolved" where either side's spread exceeds the bound, unless every
  new run beats every base run of the pairs ("better");
* "worse" where the new median is worse than the base by more than the bound;
* "better" where the new side won at least 9 in 10 pairs and the medians
  differ by more than the base's quartile distance;
* "ok" otherwise.

Metrics without a bound (per-layer ones) get no verdict.  It exits 1 if any
verdict is "worse" or "incorrect".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path) -> tuple[dict, dict, dict]:
    """(header, values, runs) of one result set.

    ``values`` is {(workload, metric): {seed: value}} over the runs with a
    result; ``runs`` is {workload: {seed: (correct, attempted, failed)}} over
    every run, where a run without a result counts as incorrect.
    """
    header, values, runs = {}, {}, {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "workload" not in rec:
                header = rec
                continue
            res = rec["result"]
            runs.setdefault(rec["workload"], {})[rec["seed"]] = (
                (res["correct"], res["attempted"], res["failed"]) if res else (False, 0, 0))
            if res is None:
                continue
            for metric, m in res["metrics"].items():
                values.setdefault((rec["workload"], metric), {})[rec["seed"]] = m["value"]
    return header, values, runs


def spec() -> dict:
    """{metric: (better, bound or None)} from BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return out


def quartiles(vals) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals) -> float:
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else float("inf")


def failed_frac(by_seed, seeds=None) -> float:
    """Mean over ``seeds`` (default: all) of a run's failed/attempted.

    A run's share is exact at its seed, however many repetitions it made,
    so one program gives one share per seed.
    """
    seeds = sorted(by_seed) if seeds is None else seeds
    shares = [f / a if a else 1.0 for _, a, f in (by_seed[s] for s in seeds)]
    return sum(shares) / len(shares) if shares else 1.0


def incorrect_runs(by_seed) -> int:
    return sum(not ok for ok, _, _ in by_seed.values())


def _fmt(v) -> str:
    return f"{v:.4g}"


def _side(q) -> str:
    return f"{_fmt(q[1])} [{_fmt(q[0])}, {_fmt(q[2])}]"


def show_one(values, runs, metrics) -> None:
    print(f"{'workload':<14} {'metric':<36} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  n")
    for (wl, metric), by_seed in sorted(values.items()):
        vals = list(by_seed.values())
        q1, med, q3 = quartiles(vals)
        bound = metrics.get(metric, (None, None))[1]
        flag = ""
        if bound is not None:
            s = spread(vals)
            flag = "" if s <= bound / 3 else (" > bound/3" if s <= bound else " > bound")
        print(f"{wl:<14} {metric:<36} {_fmt(med):>10} {_fmt(q1):>10} {_fmt(q3):>10} "
              f"{spread(vals):>7.3f} {bound if bound is not None else '-':>6}  "
              f"{len(vals)}{flag}")
    for wl, by_seed in sorted(runs.items()):
        print(f"{wl:<14} failed_frac {failed_frac(by_seed):.4g}, "
              f"{incorrect_runs(by_seed)} of {len(by_seed)} runs failed a check")


def show_two(base, new, metrics) -> int:
    """Print the comparison; return 1 if a verdict is "worse" or "incorrect"."""
    (bh, bvals, bruns), (nh, nvals, nruns) = base, new
    if bh.get("seconds") != nh.get("seconds"):
        raise SystemExit(f"the sets ran {bh.get('seconds')} s and "
                         f"{nh.get('seconds')} s; compare runs of one length")
    paired = bh.get("series") is not None and bh.get("series") == nh.get("series")
    incorrect = {}
    for wl in sorted(set(bruns) & set(nruns)):
        seeds = sorted(set(bruns[wl]) & set(nruns[wl]))
        bf, nf = failed_frac(bruns[wl], seeds), failed_frac(nruns[wl], seeds)
        incorrect[wl] = incorrect_runs(nruns[wl]) > 0 or nf > bf
        print(f"{wl:<14} failed_frac base {bf:.4g}, new {nf:.4g}; new runs failing "
              f"a check: {incorrect_runs(nruns[wl])} of {len(nruns[wl])}"
              + ("  incorrect" if incorrect[wl] else ""))
    if not paired:
        print("the sets were not written together: no pairs, no 'better'")
    print(f"{'workload':<14} {'metric':<36} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'new/base (base)':<22} {'won':>5}  verdict")
    flagged = sum(incorrect.values())
    for key in sorted(set(bvals) & set(nvals)):
        wl, metric = key
        better, bound = metrics.get(metric, ("lower", None))
        b, n = bvals[key], nvals[key]
        bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
        sign = 1 if better == "lower" else -1
        ratio = nq[1] / bq[1] if bq[1] else float("inf")
        won, all_better = float("nan"), False
        seeds = sorted(set(b) & set(n))
        if paired and seeds:
            won = sum(sign * (b[s] - n[s]) > 0 for s in seeds) / len(seeds)
            all_better = (max(sign * v for v in n.values())
                          < min(sign * v for v in b.values()))
        verdict = ""
        if bound is not None:
            if incorrect.get(wl, True):
                verdict = "incorrect"
            elif max(spread(list(b.values())), spread(list(n.values()))) > bound:
                verdict = "better" if all_better else "unresolved"
            elif sign * (nq[1] - bq[1]) > bound * abs(bq[1]):
                verdict = "worse"
                flagged += 1
            elif won >= 0.9 and sign * (bq[1] - nq[1]) > bq[2] - bq[0]:
                verdict = "better"
            else:
                verdict = "ok"
        print(f"{wl:<14} {metric:<36} {_side(bq):<30} {_side(nq):<30} "
              f"{f'{ratio:.3f} ({_fmt(bq[1])})':<22} {won:>5.2f}  {verdict}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", help="one result set, or base and new")
    args = ap.parse_args(argv)
    metrics = spec()
    if len(args.sets) == 1:
        _, values, runs = load(args.sets[0])
        show_one(values, runs, metrics)
        return 0
    if len(args.sets) != 2:
        ap.error("give one result set or two")
    return show_two(load(args.sets[0]), load(args.sets[1]), metrics)


if __name__ == "__main__":
    sys.exit(main())
