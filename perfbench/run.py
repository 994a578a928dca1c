#!/usr/bin/env python3
"""Benchmark of the crossnum solver: one workload, one seed, one run.

    python3 perfbench/run.py --workload rep-sets --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the solver from its
`src/` directory.  The solver runs in this process, single-threaded, as a
closed loop: each solve starts when the previous one has returned.

--trace 0 measures the end-to-end metrics with tracing off: `setup_s`
(median of fresh-process imports of `crossnum.pipeline` and
`crossnum.oracle`), `wall_s` (median time of one pass over the workload's
instance list, input text to checked answer; passes repeat while another
fits in --seconds, at least one) and `peak_rss_mb`.

--trace 1 gives the per-layer metrics: one untraced pass, then traced
passes (at least two, more while they fit in --seconds) with spans around
the public functions of every layer.  Traced answers and report bytes must
equal the untraced ones and call counts must repeat exactly between traced
passes.  The spans of the last traced pass go to
`perfbench/out/spans-<workload>.tsv.gz`.

Human-readable lines come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3  # before the passes and again after them
MIN_PASSES = 1  # traced runs make at least two, to compare call counts

SETUP_CODE = (
    "import time; t = time.perf_counter(); "
    "import crossnum.pipeline, crossnum.oracle; "
    "dt = time.perf_counter() - t; import crossnum; "
    "print(repr(dt), crossnum.__file__)"
)


def measure_setup(reps=SETUP_REPS):
    """Import time of the solver in fresh interpreters, in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        dt, where = done.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh import found crossnum at {where}")
        samples.append(float(dt))
    return samples


def run_pass(bw, insts, tracer=None):
    """Solve every instance once; (seconds, per-instance seconds, outcomes)."""
    outcomes, each = [], []
    t0 = perf_counter()
    for i, inst in enumerate(insts):
        if tracer is not None:
            tracer.instance = i
        t = perf_counter()
        outcomes.append(bw.solve(inst))
        each.append(perf_counter() - t)
    return perf_counter() - t0, each, outcomes


class Ledger:
    """Attempted and failed solves, with each failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.notes = []  # harness checks that failed (not solves)

    def record(self, insts, outcomes, reference, label):
        for i, (inst, out) in enumerate(zip(insts, outcomes)):
            self.attempted += 1
            if not out.ok:
                self.failures.append(f"{label} {inst.name}: {out.detail}")
            elif out.report_json != reference[i]:
                self.failures.append(
                    f"{label} {inst.name}: to_json() bytes differ from the "
                    "first pass")


def passes(bw, insts, seconds, ledger, reference, label, tracer=None,
           on_pass=None, min_passes=MIN_PASSES):
    """Repeat passes while another one fits in `seconds`."""
    times = []
    start = perf_counter()
    while (len(times) < min_passes
           or perf_counter() - start + times[-1] <= seconds):
        if tracer is not None:
            tracer.reset()
        dt, each, outcomes = run_pass(bw, insts, tracer)
        if reference is None:
            reference = [o.report_json for o in outcomes]
        ledger.record(insts, outcomes, reference, f"{label} {len(times) + 1}")
        times.append(dt)
        print(f"{label} {len(times)}: {dt:.3f} s  ("
              + ", ".join(f"{i.name} {t:.3f} s" for i, t in zip(insts, each))
              + ")", flush=True)
        if on_pass is not None:
            on_pass(outcomes)
    return times


def solve_stats(outcomes):
    rep_set_counts, seen, comps = [], 0, 0
    for o in outcomes:
        if o.stats:
            rep_set_counts += o.stats[0]
            seen += o.stats[1]
            comps += o.stats[2]
    return rep_set_counts, seen, comps


def untraced_run(bw, insts, args, ledger):
    setup = measure_setup()
    times = passes(bw, insts, args.seconds, ledger, None, "pass")
    setup += measure_setup()
    print(f"setup samples: {', '.join(f'{s:.4f}' for s in setup)} s",
          flush=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = ledger.attempted
    print("end-to-end (tracing off):")
    print(f"  setup_s      {statistics.median(setup):.4f} s  "
          f"(median of {len(setup)} fresh-process imports)")
    print(f"  wall_s       {statistics.median(times):.4f} s  "
          f"(median of {len(times)} passes)")
    print(f"  error_rate   {len(ledger.failures) / n:.4f}  "
          f"({len(ledger.failures)} of {n} solves failed)")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced_run(bw, bt, insts, args, ledger):
    base, _, outcomes = run_pass(bw, insts)
    reference = [o.report_json for o in outcomes]
    ledger.record(insts, outcomes, reference, "untraced pass")
    print(f"untraced pass: {base:.3f} s", flush=True)
    patch = bt.Patched()
    summaries, stats = [], []

    def collect(outcomes):
        summaries.append(patch.tracer.summary())
        stats.append(solve_stats(outcomes))

    with patch as tracer:
        times = passes(bw, insts, args.seconds, ledger, reference,
                          "traced pass", tracer, collect, min_passes=2)
    if not patch.restored():
        ledger.notes.append("wrappers were not removed after the traced run")
    signatures = [bt.count_signature(s) for s in summaries]
    if any(sig != signatures[0] for sig in signatures):
        ledger.notes.append("call counts differ between traced passes")
    if any(st != stats[0] for st in stats):
        ledger.notes.append("solve statistics differ between traced passes")

    probe_failures = 0
    if args.workload == "huge-h":
        probe = bw.cap_probe(args.seed)
        t = perf_counter()
        out = bw.solve(probe)
        probe_failures = 0 if out.ok else 1
        print(f"known-defect probe {probe.name}: "
              f"{'ok' if out.ok else 'FAILED ' + out.detail} "
              f"after {perf_counter() - t:.3f} s (outside the timed passes)")

    per_pass = [bt.layer_metrics(s, *st, probe_failures)
                for s, st in zip(summaries, stats)]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit != "count":
            value = statistics.median(p[name][0] for p in per_pass)
        metrics[name] = (value, unit)
    metrics["trace.overhead"] = (statistics.median(times) / base - 1, "ratio")

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.tsv.gz"
    patch.tracer.write(spans)
    print(f"spans of the last traced pass: {len(patch.tracer.span_start)} "
          f"-> {spans.relative_to(ROOT)}")
    print("self time by span (first traced pass):")
    for name, secs, share, calls in bt.self_time_ranking(summaries[0]):
        print(f"  {name:40s} {secs:9.4f} s  {share:6.1%}  {calls} spans")
    print("wait time: none recorded - one thread, a closed loop and no queues")
    print(f"per-layer (median of {len(times)} traced passes; counts exact):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "crossnum" / "__init__.py").is_file():
        print(f"perfbench: no solver sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bench_trace as bt
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bw.WORKLOADS)}")
    insts = bw.instances(args.workload, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for i, inst in enumerate(insts):
        checks = "lift+verify" + (" +oracle" if inst.oracle else "") \
            if inst.lift else "value only"
        print(f"instance {i}: {inst.name} [{inst.fmt}] reference {inst.expect}"
              f", {checks}, {len(inst.text)} bytes: "
              + (repr(inst.text) if len(inst.text) < 120
                 else repr(inst.text[:60]) + "..."))
    ledger = Ledger()
    warm = bw.solve(bw.WARMUP)
    if not warm.ok:
        ledger.notes.append(f"warm-up solve failed: {warm.detail}")
    if args.trace:
        metrics = traced_run(bw, bt, insts, args, ledger)
    else:
        metrics = untraced_run(bw, insts, args, ledger)
    for line in ledger.failures + ledger.notes:
        print(f"FAILED: {line}")
    result = {
        "correct": not ledger.failures and not ledger.notes,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
