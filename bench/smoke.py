"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 bench/smoke.py

Checks that:

1. every workload, untraced and traced, prints a last line with exactly
   the keys correct/attempted/failed/metrics, every metric declared in
   BENCHMARK.json with its unit, and a non-zero value for each metric
   that belongs to that workload;
2. a planted wrong answer (a corrupted witness or list size, a tampered
   decode candidate, a perturbed determinant) is counted as failed and
   marks the run incorrect instead of passing silently;
3. the GF(25) `bounds` call that hangs is abandoned at its deadline and
   counted as failed without making the run incorrect, while a planted
   extra timeout (a decode, a resultant instance, a certify job and a
   `bounds` call of a job not known to hang, each given a deadline too
   short to meet) is counted as failed and makes the run incorrect;
4. in a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Per-layer metrics that must be non-zero on each workload's traced run.
OWN_PER_LAYER = {
    "certify_grid": (
        "burst.bursts.",
        "listdec.certify_s.",
        "listdec.scan_bursts_per_s.",
        "listdec.witness_extra_s.",
        "listdec.explicit_pairs_per_s",
        "listdec.replay_witness_us",
        "listdec.buckets.",
        "listdec.max_list.",
        "bounds.all_verdicts_us",
        "codes.",
        "listdec.self_s",
    ),
    "decode_stream": (
        "listdec.decode_p50_ms.",
        "listdec.decode_candidates",
        "codes.rs_code_s",
        "codes.expand_s.ex7",
        "listdec.self_s",
    ),
    "resultant_corpus": ("matpoly.", "resultant."),
}
COMMON_PER_LAYER = ("gf.field_build_s.", "gf.add_ns.", "gf.mul_ns.", "trace.overhead_s")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(workload: str, trace: int, declared: dict) -> None:
    proc = run_bench(ROOT, workload, trace)
    tag = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{tag}: exit code 0 (stderr: {proc.stderr.strip()[-200:]})")
    if proc.returncode != 0:
        return
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
          f"{tag}: correct, nothing failed at tiny size")
    metrics = last["metrics"]
    want = declared[trace]
    check(set(metrics) == set(want), f"{tag}: exactly the declared metrics")
    check(all(metrics[n]["unit"] == u for n, u in want.items() if n in metrics), f"{tag}: units")
    if trace == 0:
        own = list(want)
    else:
        prefixes = OWN_PER_LAYER[workload] + COMMON_PER_LAYER
        own = [n for n in want if n.startswith(prefixes)]
    zero = [n for n in own if not metrics.get(n, {}).get("value")]
    check(not zero, f"{tag}: own metrics non-zero {zero or ''}")


def check_planted() -> None:
    from harness import NullTracer
    from workloads import WORKLOADS, CERTIFY_JOBS

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    for wl in WORKLOADS.values():
        state = wl.setup(0, out_dir, NullTracer(), tiny=True)
        ops = wl.ops(state)
        clean = [wl.run(state, op) for op in ops]
        state["tamper"] = True
        planted = [wl.run(state, op) for op in ops]
        # Only operations that return something to tamper with can fail;
        # a decode with an empty list has no candidate to corrupt.
        expect = sum(1 for o in clean if o.info.get("list_size", 1))
        wrong = sum(o.unexpected for o in planted)
        check(sum(o.failed for o in clean) == 0, f"{wl.name}: clean tiny run has no failure")
        check(wrong == expect and wrong > 0,
              f"{wl.name}: planted wrong answers counted ({wrong} of {expect})")

    grid = WORKLOADS["certify_grid"]
    state = grid.setup(0, out_dir, NullTracer())
    job = next(j for j in CERTIFY_JOBS if j.name == "rs25-r5")
    out = grid.run(state, job)
    check(out.attempted == 2 and out.failed == 1 and out.unexpected == 0,
          f"rs25-r5: the hanging bounds call is abandoned and failed ({out})")


def check_planted_timeouts() -> None:
    import workloads
    from harness import NullTracer

    out_dir = os.path.join(BENCH_DIR, "out")
    cases = (
        ("decode_stream", "DECODE_DEADLINE_S", 0, 1),
        ("resultant_corpus", "RESULTANT_DEADLINE_S", 0, 1),
        ("certify_grid", "CERTIFY_DEADLINE_S", 0, 1),  # rs16-r6, tiny
        ("certify_grid", "BOUNDS_DEADLINE_S", 0, 1),
    )
    for name, const, index, expect in cases:
        wl = workloads.WORKLOADS[name]
        state = wl.setup(0, out_dir, NullTracer(), tiny=True)
        op = wl.ops(state)[index]
        saved = getattr(workloads, const)
        setattr(workloads, const, 1e-6)
        try:
            out = wl.run(state, op)
        finally:
            setattr(workloads, const, saved)
        check(out.failed == expect and out.unexpected == expect,
              f"{name}: planted timeout ({const}) is failed and makes the run incorrect ({out})")


def check_bare() -> None:
    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH_DIR):
        if name.endswith((".py", ".md", ".json")):
            shutil.copy(os.path.join(BENCH_DIR, name), os.path.join(bare, "bench"))
    proc = run_bench(bare, "certify_grid", 0)
    printed_result = proc.stdout.strip().startswith("{")
    check(proc.returncode != 0 and not printed_result,
          f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from run import declared_metrics
    from workloads import WORKLOADS

    declared = declared_metrics()
    for name in WORKLOADS:
        for trace in (0, 1):
            check_output(name, trace, declared)
    check_planted()
    check_planted_timeouts()
    check_bare()
    print(f"{len(failures)} failed check(s)" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
