"""Run the benchmark over several seeds and write result sets (JSONL).

    python3 bench/series.py --seeds 1-10 --out .bench_out/new.jsonl
    python3 bench/series.py --seeds 1-10 --roots ../base . \\
        --out .bench_out/base.jsonl .bench_out/new.jsonl

Every run uses this benchmark's ``run.py``, every workload of ``run.py``
and ``run_seconds`` from ``BENCHMARK.json``.  Each root is a checkout of
the repository; its ``src`` is the package measured (``run.py`` runs with
the root as working directory).  With two roots, say a checkout of the base
commit and one of the change, both sides run each workload at each seed
back to back, and which side goes first alternates from one slot to the
next; so a pair of runs at one seed sees the same machine, and
``bench/compare.py`` can count the pairs each side won.  Seeds are the
outer loop and workloads the inner one, so a drift of the machine's speed
spreads over every workload alike.

Each set's first line records the machine, the run length and an id shared
by the sets written together; each further line is one run: workload,
seed, exit code, wall time, its summary lines and its result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def machine() -> dict:
    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_seconds() -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(root, name, seed, seconds, trace) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines.pop()) if lines and lines[-1].startswith("{") else None
    return {"workload": name, "seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": time.monotonic() - t0, "summary": lines, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--roots", nargs="+", default=["."],
                    help="checkouts to measure: one, or base and new")
    ap.add_argument("--out", nargs="+", required=True, help="one result set per root")
    args = ap.parse_args(argv)
    if len(args.roots) not in (1, 2) or len(args.out) != len(args.roots):
        ap.error("give one or two roots and one --out per root")
    seconds = run_seconds()
    header = {"machine": machine(), "seconds": seconds, "trace": args.trace,
              "series": uuid.uuid4().hex, "sides": len(args.roots)}
    outs = [open(path, "w") for path in args.out]
    failures = slot = 0
    try:
        for side, out in enumerate(outs):
            out.write(json.dumps({**header, "side": side}) + "\n")
        for seed in _seeds(args.seeds):
            for name in WORKLOADS:
                order = range(len(outs)) if slot % 2 == 0 else reversed(range(len(outs)))
                for side in order:
                    rec = _run(args.roots[side], name, seed, seconds, args.trace)
                    failures += rec["exit"] != 0
                    outs[side].write(json.dumps({**rec, "slot": slot}) + "\n")
                    outs[side].flush()
                    print(f"{args.out[side]}: {name} seed {seed}: exit {rec['exit']}, "
                          f"{rec['wall_s']:.1f} s", flush=True)
                slot += 1
    finally:
        for out in outs:
            out.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
