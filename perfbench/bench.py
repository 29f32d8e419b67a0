"""Measuring one workload: set-up probes, rounds, metrics, result line.

Imported by ``run.py`` only after it has capped the BLAS and OpenMP thread
counts, since numpy reads them when it is first imported.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import load_reference
from tracing import PER_LAYER, Tracer, layer_values, summarize
from workloads import WORKLOADS, Tally, clear_caches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("units_per_s", "units/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
)


def setup_seconds(descriptions) -> float:
    """Median over fresh interpreters of importing harmext + building maps."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), *descriptions],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def import_program():
    sys.path.insert(0, str(SRC))
    import harmext  # noqa: F401
    import harmext.boundary
    import harmext.cantor
    import harmext.circle_map
    import harmext.cli
    import harmext.discrete
    import harmext.errors
    import harmext.poisson
    import harmext.report  # noqa: F401
    if not Path(harmext.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported harmext from {harmext.__file__}, "
                         f"not from {SRC}")
    return harmext


def run_rounds(harmext, workload, seconds, tracer):
    """Repeat rounds until another would end past ``seconds``."""
    rounds = []
    start = time.perf_counter()
    iterations = 0
    while True:
        for traced in ((False, True) if tracer else (False,)):
            clear_caches(harmext)
            gc.collect()
            tally = Tally()
            if tracer:
                tracer.active = traced
            w0, c0 = time.perf_counter(), time.process_time()
            workload.run_round(tally)
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            spans = None
            if tracer:
                tracer.active = False
                spans = tracer.take()
            rounds.append({"traced": traced, "wall": wall, "cpu": cpu,
                           "tally": tally, "spans": spans})
        iterations += 1
        per_iter = (time.perf_counter() - start) / iterations
        if time.perf_counter() - start + per_iter > seconds:
            return rounds


def end_to_end(rounds, setup_s):
    attempted = sum(r["tally"].attempted for r in rounds)
    failed = sum(r["tally"].failed for r in rounds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median([r["wall"] for r in rounds]),
        "cpu_s": statistics.median([r["cpu"] for r in rounds]),
        "units_per_s": statistics.median(
            [r["tally"].verified / r["wall"] for r in rounds]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = {}
    for r in traced:
        summary = summarize(r["spans"])
        for name, value in layer_values(summary,
                                        r["tally"].output_bytes).items():
            values.setdefault(name, []).append(value)
    out = {name: sum(v) / len(v) for name, v in values.items()}
    out["trace.overhead_frac"] = (sum(r["wall"] for r in traced)
                                  / sum(r["wall"] for r in plain) - 1.0)
    return out


def run_one(args) -> int:
    cls = WORKLOADS[args.workload]
    harmext = import_program()
    workload = cls(harmext, args.seed, load_reference())
    tracer = None
    if not args.trace:
        setup_s = setup_seconds(workload.map_descriptions())
    else:
        tracer = Tracer()
        tracer.install()
    rounds = run_rounds(harmext, workload, args.seconds, tracer)
    if tracer:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        Tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     [r["spans"] for r in rounds if r["traced"]])
        metrics = per_layer(rounds)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(rounds, setup_s)
        units = dict(END_TO_END)

    problems = [p for r in rounds for p in r["tally"].problems]
    wrong = sum(r["tally"].wrong for r in rounds)
    result = {
        "correct": wrong == 0,
        "attempted": sum(r["tally"].attempted for r in rounds),
        "failed": sum(r["tally"].failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"gate {'passed' if wrong == 0 else 'FAILED'} "
          f"({result['failed']} of {result['attempted']} units failed)")
    print("  round wall times: " + " ".join(
        f"{r['wall']:.3f}{'t' if r['traced'] else ''}" for r in rounds))
    for p in sorted(set(problems))[:20]:
        print(f"  problem: {p}")
    for k, v in metrics.items():
        print(f"  {k:45s} {v:14.6g} {units[k]}")
    print(json.dumps(result), flush=True)
    return 0


