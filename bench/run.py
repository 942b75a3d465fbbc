"""burstkit benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload certify_grid --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; burstkit is imported from
./src and nothing else. Workloads and metrics are declared in
BENCHMARK.json at the root, and bench/README.md explains each of them.

--trace 0 sets the workload up several times (the median is setup_s),
then runs its operations in a closed loop for --seconds and reports the
end-to-end metrics, with times scaled to a reference host speed (see
harness.HostSpeed; raw values are printed too).

--trace 1 sets up once with spans, runs a fixed list of operations once
untraced and once traced (the difference is trace.overhead_s), adds the
field micro-benchmarks, writes the spans to bench/out/, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `failed` counts calls that
missed their deadline or gave a wrong answer; `correct` is false for a
wrong answer and for any missed deadline other than the known `bounds`
hangs (workloads.KNOWN_BOUNDS_HANGS).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from harness import HostSpeed, NullTracer, Outcome, Tracer, beyond, clock, median, peak_rss_mib, percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Set-up runs at least this many times, and more while they take less
# than SETUP_MIN_S in total, so that a set-up of a few milliseconds is
# still reported as a steady median.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 201
SETUP_MIN_S = 2.0
# The closed loop runs at least this many cycles over the operations.
MIN_CYCLES = 3


def import_burstkit():
    """Import burstkit from ./src of this checkout, or exit non-zero."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "burstkit", "__init__.py")):
        sys.exit(f"bench: no burstkit sources under {src}")
    sys.path.insert(0, src)
    import burstkit

    if os.path.dirname(os.path.dirname(os.path.abspath(burstkit.__file__))) != src:
        sys.exit(f"bench: burstkit was imported from {burstkit.__file__}, not {src}")


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def timed_setups(wl, args):
    """Repeated set-ups; returns the last state and each set-up's seconds,
    with its scale to the reference speed."""
    setups, spans = [], []
    with HostSpeed() as speed:
        while len(setups) < SETUP_MIN_REPS or (
            sum(o.seconds for o in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS
        ):
            t0 = clock()
            state = wl.setup(args.seed, OUT_DIR, NullTracer(), args.tiny)
            t1 = clock()
            setups.append(Outcome(t1 - t0))
            spans.append((t0, t1))
    for o, span in zip(setups, spans):
        o.scale = speed.scale(*span)
    return state, setups


def measure(wl, state, seconds: float):
    """Closed loop over whole cycles of the workload's operations: at
    least MIN_CYCLES, then until the next cycle would end past `seconds`.

    Returns the outcomes and the peak RSS after the first cycle: later
    cycles repeat the same work, and the heap fragmentation they add
    would make the peak depend on how many cycles fit.
    """
    ops = wl.ops(state)
    outcomes, spans = [], []
    rss = None
    with HostSpeed() as speed:
        start = clock()
        while True:
            cycle_start = clock()
            for op in ops:
                t0 = clock()
                outcomes.append(wl.run(state, op))
                spans.append((t0, clock()))
            if rss is None:
                rss = peak_rss_mib()
            now = clock()
            if len(outcomes) >= MIN_CYCLES * len(ops) and (now - start) + (now - cycle_start) > seconds:
                break
    for o, span in zip(outcomes, spans):
        o.scale = speed.scale(*span)
    return outcomes, rss


def untraced(wl, args):
    state, setups = timed_setups(wl, args)
    outcomes, rss = measure(wl, state, args.seconds)
    n_ops = len(wl.ops(state))
    values = {}
    work = sum(o.work for o in outcomes)
    for label, scaled in (("scaled", True), ("raw", False)):
        lat = [o.latency(scaled) for o in outcomes]
        values[label] = {
            "work_per_s": work / sum(lat),
            "op_p50_ms": percentile(lat, 0.5) * 1e3,
            "op_p99_ms": percentile(lat, 0.99) * 1e3,
            "setup_s": median([o.latency(scaled) for o in setups]),
            "peak_rss_mib": rss,
        }
    scaled, raw = values["scaled"], values["raw"]
    speeds = [o.scale for o in outcomes]

    print(
        f"{wl.name} seed={args.seed}: {len(outcomes)} operations, {n_ops} distinct, "
        f"{sum(o.latency(False) for o in outcomes):.3f} s measured in "
        f"{len(outcomes) // n_ops} cycles; rates and percentiles are over every call"
    )
    print(
        f"  times are scaled to the reference host speed (raw in parentheses); "
        f"scale factors ranged {min(speeds):.3f}..{max(speeds):.3f}"
    )
    print(f"  setup_s                {scaled['setup_s']:.6f} s ({raw['setup_s']:.6f})  median of {len(setups)} set-ups")
    print(f"  peak_rss_mib           {scaled['peak_rss_mib']:.3f} MiB  after one cycle of the operations")
    for name, (alias, what) in wl.aliases.items():
        note = f"; n={len(outcomes)}, {beyond(len(outcomes), 0.99)} beyond" if name == "op_p99_ms" else ""
        print(f"  {alias:22} {scaled[name]:.6g} ({raw[name]:.6g})  [{name}; {what}{note}]")
    return outcomes, scaled, raw


def traced(wl, args):
    from workloads import codes_per_layer, gf_micro

    tr = Tracer()
    tr.op = "setup"
    with tr.span("bench.setup"):
        state = wl.setup(args.seed, OUT_DIR, tr, args.tiny)
    ops = wl.trace_ops(state)
    plain = [wl.run(state, op) for op in ops]
    outcomes = [wl.run_traced(state, op, tr) for op in ops]
    values = wl.per_layer(state, tr, outcomes)
    values.update(codes_per_layer(tr))
    selfs = tr.self_times()
    for layer, s in selfs.items():
        values[f"{layer}.self_s"] = s
    base = sum(o.latency(False) for o in plain)
    values["trace.overhead_s"] = sum(o.latency(False) for o in outcomes) - base
    values.update(gf_micro(args.seed))
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.jsonl")
    tr.write(path)

    total = sum(selfs.values())
    print(f"{wl.name} seed={args.seed}: {len(tr.spans)} spans written to {os.path.relpath(path, ROOT)}")
    print(f"  self time by layer ({total:.3f} s in spans):")
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:10} {s:10.4f} s  {100 * s / total:5.1f}%")
    print(
        f"  tracing overhead: {values['trace.overhead_s']:+.4f} s on {base:.3f} s untraced"
        f" ({100 * values['trace.overhead_s'] / base:+.2f}%)"
    )
    return plain + outcomes, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = ap.parse_args(argv)

    import_burstkit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    units = declared_metrics()[args.trace]
    raw = None
    if args.trace:
        outcomes, values = traced(wl, args)
    else:
        outcomes, values, raw = untraced(wl, args)

    unknown = set(values) - set(units)
    if unknown:
        raise SystemExit(f"bench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"  error_rate             {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    result = {
        "correct": not any(o.unexpected for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values.get(n, 0), "unit": u} for n, u in units.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(
            {**result, "raw_metrics": raw, "aliases": {n: a for n, (a, _) in wl.aliases.items()}},
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
