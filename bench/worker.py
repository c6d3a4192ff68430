"""One fresh interpreter per task of ``run.py``; prints one JSON line.

    python3 bench/worker.py setup <workload>
    python3 bench/worker.py solve <workload> <seed> <seconds> <size>
    python3 bench/worker.py trace <workload> <seed> <size>

``setup`` times package import plus the workload's set-up (the q table or
the duration tables).  ``solve`` repeats the workload's job while another
repetition fits in ``seconds`` (at least ``MIN_REPS`` times) and reports
each repetition's wall and CPU time, and the time of :func:`reference_s`
before the first repetition and after each.  ``trace`` runs the job untraced,
traced and untraced again, and reports the per-layer metrics.  Run with
``PYTHONPATH=src`` from the repository root.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

MIN_REPS = 3
OUT_DIR = ".bench_out"


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest reaped child, in MiB."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def _timed_job(workloads, name, seed, outdir, size, workers=None):
    c0, w0 = _cpu_s(), time.perf_counter()
    out = workloads.run_job(name, seed, outdir, size, workers=workers)
    return out, time.perf_counter() - w0, _cpu_s() - c0


def _reference() -> float:
    """Wall time of a fixed computation that stands in for the machine's speed.

    It does what the workloads spend their time on: sorted-table search,
    masks and cumulative sums over large numpy arrays, and many numpy calls
    on small ones.  It uses nothing of the package, so no change to the
    package moves it.  Changing it changes the unit of every ``*_rel``
    metric.
    """
    import numpy as np   # here, so that set-up time keeps the numpy import
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    table = np.sort(rng.random(1 << 16))
    for _ in range(80):
        u = rng.random(1 << 14)
        np.cumsum(np.searchsorted(table, u)[u < 0.5])
    for _ in range(4000):
        u = rng.random(64)
        np.flatnonzero(np.searchsorted(table, u) > 1 << 15)
    return time.perf_counter() - t0


def reference_s(procs: int) -> float:
    """:func:`_reference` in ``procs`` processes at once; the slowest one's time.

    A job on a pool of ``procs`` workers is as slow as its slowest core, so
    its reference runs on as many cores.
    """
    if procs == 1:
        return _reference()
    children = []
    for _ in range(procs):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                os.write(w, repr(_reference()).encode())
            finally:
                os._exit(0)
        os.close(w)
        children.append((pid, r))
    times = []
    for pid, r in children:
        with os.fdopen(r) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return max(times)


def _verdict(workloads, name, outs) -> dict:
    """Checks on the first job, digest agreement across all of them."""
    checks = workloads.checks(name, outs[0])
    digests = [workloads.digest(o) for o in outs]
    return {"checks": checks, "digest": digests[0],
            "digests_agree": len(set(digests)) == 1,
            "attempted": sum(o["attempted"] for o in outs),
            "inexact": sum(o["inexact"] for o in outs)}


def _pool_startup_s(seed) -> float:
    """Wall time of a tiny run_xi_trials at workers=2 minus workers=1."""
    from fractions import Fraction

    from persistwalk import engine
    from persistwalk.increments import preset
    walls = {1: [], 2: []}
    for _ in range(3):
        for w in (1, 2):
            t0 = time.perf_counter()
            engine.run_xi_trials(preset("simple"), Fraction(0), 10, 256, seed, workers=w)
            walls[w].append(time.perf_counter() - t0)
    return statistics.median(walls[2]) - statistics.median(walls[1])


def main(argv) -> dict:
    mode, name = argv[0], argv[1]
    t0 = time.perf_counter()
    if mode == "trace":
        import tracing
        import workloads
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            workloads.setup(name)
    else:
        import workloads
        workloads.setup(name)
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        return {"setup_s": setup_s}

    seed = int(argv[2])
    outdir = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
    if mode == "solve":
        seconds, size = float(argv[3]), argv[4]
        outs, walls, cpus = [], [], []
        start = time.perf_counter()
        # the reference runs before and after every repetition, so that the
        # jobs are set against the machine's speed of their own moments
        procs = workloads.SIZES[size][name].get("workers", 1)
        refs = [reference_s(procs)]
        # stop before a repetition that would end past the window
        while (len(outs) < MIN_REPS
               or time.perf_counter() - start + statistics.median(walls)
               + statistics.median(refs) <= seconds):
            out, wall, cpu = _timed_job(workloads, name, seed, outdir, size)
            refs.append(reference_s(procs))
            outs.append(out)
            walls.append(wall)
            cpus.append(cpu)
        return {"setup_s": setup_s, "solve_s": walls, "solve_cpu_s": cpus,
                "ref_s": refs, "peak_rss_mib": _peak_rss_mib(),
                **_verdict(workloads, name, outs)}

    # trace: every job runs at workers=1, so that every span is recorded in
    # this process, and the traced job runs between two untraced ones, so
    # that warm-up and drift weigh on both sides of trace.overhead; a pooled
    # workload first runs its job at its own pool size, for the digest
    size = argv[3]
    pooled = workloads.SIZES[size][name].get("workers", 1) != 1
    outs = []
    if pooled:
        outs.append(_timed_job(workloads, name, seed, outdir, size)[0])
    before, before_s, _ = _timed_job(workloads, name, seed, outdir, size, workers=1)
    with tracing.traced(tracer):
        traced_out, traced_s, _ = _timed_job(workloads, name, seed, outdir, size,
                                             workers=1)
    after, after_s, _ = _timed_job(workloads, name, seed, outdir, size, workers=1)
    outs += [before, traced_out, after]
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead"] = traced_s / ((before_s + after_s) / 2)
    if pooled:
        metrics["engine.pool.startup_s"] = _pool_startup_s(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl"))
    return {"traced_solve_s": traced_s, "metrics": metrics,
            "units": {m: unit for m, unit, _ in tracing.PER_LAYER},
            **_verdict(workloads, name, outs)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
