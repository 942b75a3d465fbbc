"""Run every workload, untraced and traced, and print one table.

    python3 bench/report.py --seed 1
    python3 bench/report.py --seed 9001 --record-env

Each workload run is its own process (bench/run.py), so peak RSS is per
workload. The table gives every end-to-end metric under the name it
has for that workload (for example decode_p99_ms for op_p99_ms), with
its unit, plus the error rate; the full per-run output follows. The
table is also written to bench/out/summary.json.

--record-env also checks, on the given seed, the claim behind each
workload's choice: a cProfile of a slice of its operations must put
most self time in the layers the workload is meant to load. It writes
bench/environment.json with the Python version, nproc, git revision,
whether numpy is importable, each workload's reason and the claim
results.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import json
import os
import platform
import pstats
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Layer shares of profiled self time that each workload's reason
# predicts: (description, layers summed, lowest or highest share).
CLAIMS = {
    "certify_grid": [
        ("bucket scan: listdec+gf self time >= 80%", ("listdec", "gf"), ">=", 0.8),
        ("no elimination work: matpoly+resultant < 5%", ("matpoly", "resultant"), "<", 0.05),
    ],
    "decode_stream": [
        ("window solves and field ops: matpoly+gf >= 50%", ("matpoly", "gf"), ">=", 0.5),
        ("no resultant work: resultant < 1%", ("resultant",), "<", 0.01),
    ],
    "resultant_corpus": [
        ("elimination: matpoly+resultant+gf >= 90%", ("matpoly", "resultant", "gf"), ">=", 0.9),
        ("no burst work: burst+listdec < 1%", ("burst", "listdec"), "<", 0.01),
    ],
}
# Operations profiled per workload: one pass of the grid, else a slice.
PROFILE_OPS = 400


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[str, dict]:
    """Printed report and result file of one bench/run.py process."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{trace}.json")) as fh:
        result = json.load(fh)
    return proc.stdout.strip().rsplit("\n", 1)[0], result


def layer_shares(name: str, seed: int) -> dict:
    """Profiled self time per burstkit module over a slice of operations."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from harness import NullTracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    state = wl.setup(seed, OUT_DIR, NullTracer())
    ops = wl.ops(state)[:PROFILE_OPS]
    prof = cProfile.Profile()
    prof.enable()
    for op in ops:
        wl.run(state, op)
    prof.disable()
    per_layer: dict[str, float] = {}
    total = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(prof).stats.items():
        total += tottime
        m = re.search(r"burstkit[/\\](\w+)\.py$", filename)
        if m:
            layer = m.group(1).lstrip("_")
            per_layer[layer] = per_layer.get(layer, 0.0) + tottime
    return {k: v / total for k, v in sorted(per_layer.items())}


def check_claims(seed: int) -> dict:
    out = {}
    for name, claims in CLAIMS.items():
        shares = layer_shares(name, seed)
        results = []
        for text, layers, rel, limit in claims:
            share = sum(shares.get(layer, 0.0) for layer in layers)
            ok = share >= limit if rel == ">=" else share < limit
            results.append({"claim": text, "share": round(share, 4), "holds": ok})
            print(f"{'holds ' if ok else 'FAILS '} {name}: {text} (measured {share:.1%})")
        out[name] = {"profiled_self_time_share": {k: round(v, 4) for k, v in shares.items()},
                     "claims": results}
    return out


def environment(spec: dict) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": rev,
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--record-env", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    os.makedirs(OUT_DIR, exist_ok=True)

    summary = {}
    texts = []
    for w in spec["workloads"]:
        name = w["name"]
        text0, e2e = run_workload(name, args.seed, seconds, 0)
        text1, layers = run_workload(name, args.seed, seconds, 1)
        texts += [text0, text1]
        rows = {e2e["aliases"].get(m, m): v for m, v in e2e["metrics"].items()}
        rows["error_rate"] = {"value": e2e["failed"] / e2e["attempted"], "unit": "share"}
        summary[name] = {"end_to_end": rows, "attempted": e2e["attempted"], "failed": e2e["failed"],
                         "correct": e2e["correct"], "per_layer": layers["metrics"]}

    print(f"seed {args.seed}, {seconds:g} s per run")
    for name, s in summary.items():
        print(f"\n{name}  ({s['failed']} failed of {s['attempted']} attempted, correct={s['correct']})")
        for metric, v in s["end_to_end"].items():
            print(f"  {metric:24} {v['value']:14.6g} {v['unit']}")
    print("\n" + "\n\n".join(texts))
    with open(os.path.join(OUT_DIR, "summary.json"), "w") as fh:
        json.dump({"seed": args.seed, "seconds": seconds, "workloads": summary}, fh, indent=1)

    if args.record_env:
        env = environment(spec)
        env["held_out_seed"] = args.seed
        env["claims"] = check_claims(args.seed)
        env["end_to_end"] = {n: s["end_to_end"] for n, s in summary.items()}
        with open(os.path.join(BENCH_DIR, "environment.json"), "w") as fh:
            json.dump(env, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
