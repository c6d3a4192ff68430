"""persistwalk benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload srw-survival --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from ``src`` (set on
``PYTHONPATH`` for every child), so nothing needs installing.  ``--seconds``
is required: the benchmark's value is ``run_seconds`` in ``BENCHMARK.json``.
With ``--trace 0`` the run times the workload's set-up in fresh processes
and its job in one more, and reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of one traced job.  Either
way it checks the job's outputs, prints a readable summary, then as its
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``,
and exits 1 if a check failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("srw-survival", "srw-xi-pool", "general-time")
SETUP_SAMPLES = 4      # fresh set-up-only processes; the solve process adds one
BUDGET_S = 170.0       # every child must end within this much of the start

END_TO_END = (
    ("solve_rel", "ratio"),
    ("solve_cpu_rel", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _child(args, deadline) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {args} did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)   # the worker and its pool
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker {args} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _rel(jobs, refs) -> float:
    """Median over repetitions of a job's time over the mean time of the
    reference runs just before and just after it."""
    return statistics.median([job / ((refs[i] + refs[i + 1]) / 2)
                              for i, job in enumerate(jobs)])


def _summary(name, seed, res, metrics, units) -> None:
    failed_frac = res["failed"] / res["attempted"]
    print(f"workload {name} seed {seed}")
    if "solve_s" in res:
        print(f"  {len(res['solve_s'])} jobs, wall s: "
              + " ".join(f"{v:.4f}" for v in res["solve_s"]))
        print("  reference, wall s: " + " ".join(f"{v:.4f}" for v in res["ref_s"]))
        for key in ("solve_s", "solve_cpu_s"):
            print(f"  {key + ' (median, not normalised)':<38} "
                  f"{statistics.median(res[key]):.6g} s")
    for key, value in metrics.items():
        print(f"  {key:<38} {value:.6g} {units[key]}")
    print(f"  {'failed_frac':<38} {failed_frac:.6g} ratio")
    print(f"  digest {res['digest']} (agree: {res['digests_agree']})")
    for check, ok, detail in res["checks"]:
        print(f"  check {check}: {'ok' if ok else 'FAILED'} ({detail})")


def run(name: str, seed: int, seconds: int, trace: bool, size: str = "full") -> dict:
    deadline = time.monotonic() + BUDGET_S
    if trace:
        res = _child(["trace", name, str(seed), size], deadline)
        metrics, units = res["metrics"], res["units"]
    else:
        setups = [_child(["setup", name], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        res = _child(["solve", name, str(seed), str(seconds), size], deadline)
        # a shared machine's speed can change by 2x over minutes, so each
        # job's time is given in units of the reference runs around it
        metrics = {
            "solve_rel": _rel(res["solve_s"], res["ref_s"]),
            "solve_cpu_rel": _rel(res["solve_cpu_s"], res["ref_s"]),
            "setup_s": statistics.median(setups + [res["setup_s"]]),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        units = dict(END_TO_END)
    correct = res["digests_agree"] and all(ok for _, ok, _ in res["checks"])
    res["failed"] = res["inexact"] if correct else res["attempted"]
    _summary(name, seed, res, metrics, units)
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every code path in seconds (for tests)")
    args = ap.parse_args(argv)
    # a terminated run still stops its workers (see _child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "persistwalk", "__init__.py")):
        print("bench/run.py: no src/persistwalk here; run from the repository root",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
