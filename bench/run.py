"""Benchmark of lieposet: one workload per run, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  With
--trace 0 the workload runs for S seconds with nothing patched and the
end-to-end metrics are reported.  With --trace 1 a fixed amount of the
same workload runs untraced and then traced (S is not used), and the
per-layer metrics are reported, including the tracing overhead.

Every metric is printed by name with its unit, followed by the output
checks, the machine and the seed.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  A full
record (and, when traced, every span) is written under bench/out/.
The names and units of the metrics come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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
SETUP_SAMPLES = 9  # set-up is timed this many times, in fresh processes but one


def set_up(workload, seed):
    """Import lieposet and generate the workload's inputs from the seed."""
    begin = perf_counter()
    sys.path.insert(1, str(SRC))
    import workloads

    instance = workloads.WORKLOADS[workload](seed)
    return perf_counter() - begin, instance


def setup_probe(args):
    """Set-up seconds in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def set_ups(args, here, speed):
    """(seconds, speed factor) of SETUP_SAMPLES set-ups: this process's own,
    then fresh processes.  Each factor comes from bare-interpreter samples
    taken around the set-up: set-up is start-up work, like a CLI query."""
    timed = [here]
    for _ in range(SETUP_SAMPLES - 1):
        before = speed.sample()
        seconds = setup_probe(args)
        after = speed.sample()
        timed.append((seconds, (before + after) / 2 / speed.nominal_s))
    return timed


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def peak_rss_mb(who):
    scope = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(scope).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(w, out, rss, setups):
    """Times at full machine speed (see workloads.Speed); raw ones in details."""
    from workloads import tail

    speed = out.speed
    full_speed = [lat / f for lat, f in zip(out.latencies, speed.item_factors())]
    pct, tail_s = tail(full_speed, w.tail_cap)
    failed = len(out.failures)
    metrics = {
        "setup_s": statistics.median(s / f for s, f in setups),
        "wall_s": statistics.median(out.full_speed_walls),
        "items_per_s": out.attempted / speed.full_speed_s,
        "item_p50_ms": statistics.median(full_speed) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss,
        "ok_ratio": (out.attempted - failed) / out.attempted,
    }
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": statistics.median(out.round_walls),
        "items_per_s": out.attempted / speed.raw_s,
        "item_p50_ms": statistics.median(out.latencies) * 1e3,
        "item_tail_ms": tail(out.latencies, pct)[1] * 1e3,
    }
    n = len(full_speed)
    beyond = n - -(-pct * n // 100)
    factors = sorted(speed.segment_factors)
    details = {name: f"raw {value:.4f}" for name, value in raw.items()}
    details["setup_s"] += f"; median of {len(setups)} set-ups"
    details["wall_s"] += (f"; median of {len(out.round_walls)} rounds; speed factor "
                          f"{factors[0]:.2f}..{statistics.median(factors):.2f}..{factors[-1]:.2f}")
    details["items_per_s"] += f"; {out.attempted} items in {speed.raw_s:.3f} s"
    details["item_tail_ms"] += f"; p{pct}, {beyond} of {n} items beyond it"
    details["peak_rss_mb"] = ("ru_maxrss of the child processes" if w.rusage_who == "children"
                              else "ru_maxrss of this process")
    details["ok_ratio"] = f"fail_ratio = {failed}/{out.attempted} = {failed / out.attempted:.6f}"
    return metrics, details


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lieposet" / "__init__.py").is_file():
        print(f"bench: {SRC / 'lieposet'} not found; run from a lieposet checkout",
              file=sys.stderr)
        return 2
    setup_here, w = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_here))
        return 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        extras, out = w.trace(tracer)
        values = layer_metrics(tracer)
        values.update(extras)
        tracer.write(OUT / f"{stem}-spans.txt.gz")
        wanted = spec["per_layer"]
        details = {"trace.spans": f"written to {OUT.name}/{stem}-spans.txt.gz",
                   "missing_boundaries": tracer.missing}
    else:
        from workloads import BARE_INTERPRETER_S, Speed, bare_interpreter

        speed = Speed(bare_interpreter, BARE_INTERPRETER_S)
        here = (setup_here, (speed.sample() + speed.sample()) / 2 / speed.nominal_s)
        out = w.run(args.seconds)
        rss = peak_rss_mb(w.rusage_who)
        setups = set_ups(args, here, speed)
        values, details = end_to_end(w, out, rss, setups)
        details["setups"] = setups
        details["speed_samples_s"] = out.speed.samples
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    correct = not out.failures and all(ok for _, ok, _ in out.checks)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "sizes": w.sizes(),
        "metrics": metrics,
        "details": details,
        "all_values": values,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in out.checks],
        "failures": dict(list(out.failures.items())[:50]),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine: {record['machine']}")
    print(f"sizes: {json.dumps(record['sizes'])}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        note = details.get(name, "")
        print(f"  {name:<{width}}  {m['value']:>14.6f} {m['unit']:<6} {note}")
    print("checks:")
    print(f"  [{'ok' if not out.failures else 'FAIL'}] items: "
          f"{len(out.failures)} of {out.attempted} failed")
    for name, ok, detail in out.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    for label, problem in list(out.failures.items())[:10]:
        print(f"    {label}: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
