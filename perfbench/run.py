#!/usr/bin/env python3
"""Build and run the repository benchmark, then validate its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-44-3 --seed 1 --seconds 20 \
        --trace 0

--seed is the run seed (functional-audit vectors, serve stream offset).
--workload-seed (default 1) makes the inputs: the SoC generator seed,
the serve corpus seed and the client session seeds. It stays fixed so
that quality metrics repeat exactly; pass a second one to confirm a
claim on inputs the change was not tuned on.

The benchmark program (perfbench/bench.ml) is built from source with
dune into the build directory named by CARGO_TARGET_DIR (default
.bench_build), then run once. Its last stdout line is checked against
BENCHMARK.json: with --trace 0 it must carry exactly the end_to_end
metrics, with --trace 1 exactly the per_layer metrics, each with its
declared unit. The exact record of a run (subject nodes, match and
netlist counts, delay and area, bit for bit) is stored per source
digest, workload and seed under .bench_out/, and a later run of the
same code that disagrees with it fails, with every result counted as
failed. The result line printed last holds the keys correct,
attempted, failed and metrics.

Exit status: 0 when every output was correct and the result is
complete; 1 when a check failed (the result is still printed); 2 when
the benchmark could not run (no source tree, build failure, crash).

    python3 perfbench/run.py --self-check [--seconds S]

runs every workload in both modes and reports whether each one emitted
every metric with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_TARGET = "./perfbench/bench.exe"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
# Whatever the program links: the library sources and the benchmark.
SOURCE_ROOTS = ["dune-project", "lib", "perfbench"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def source_digest():
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        if os.path.isfile(root):
            files = [root]
        else:
            files = [
                os.path.join(d, f)
                for d, _, fs in os.walk(root)
                for f in fs
                if f.endswith((".ml", ".mli", ".c", "dune", "dune-project"))
            ]
        for path in sorted(files):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no source tree here (need dune-project and lib/); "
            "run from the root of a checkout")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--cache=disabled", "--display=quiet", BENCH_TARGET]
    # Build output goes to stderr: stdout carries only the result.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(spec, trace, result):
    """Problems with a result line, as a list of strings."""
    problems = []
    want = expected_metrics(spec, trace)
    got = result.get("metrics", {})
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(
                f"metric {name} has unit {got[name].get('unit')!r}, "
                f"expected {unit!r}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, float) or not math.isfinite(v):
            problems.append(f"metric {name} value {v!r} is not a finite number")
        elif not trace and name in want and v == 0.0:
            problems.append(f"end-to-end metric {name} is 0")
    if result.get("attempted", 0) < 1:
        problems.append("no output was attempted")
    return problems


def check_exact(workload, wseed, exact):
    """Compare the exact record with an earlier run of the same code."""
    d = os.path.join(OUT_DIR, "exact", source_digest())
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-{wseed}.json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        diff = sorted(k for k in set(before) | set(exact)
                      if before.get(k) != exact.get(k))
        if diff:
            k = diff[0]
            return [f"exact value {k}={exact.get(k)} differs from an earlier "
                    f"run of the same code ({before.get(k)}); "
                    f"{len(diff)} value(s) differ"]
        return []
    with open(path, "w") as f:
        json.dump(exact, f, indent=1, sort_keys=True)
    return []


def run_once(exe, spec, workload, seed, wseed, seconds, trace):
    """Run the program once; returns (exit code, result or None)."""
    env = dict(os.environ, PERFBENCH_OUT=OUT_DIR)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--workload-seed", str(wseed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 2, None
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {workload} printed no result (exit {r.returncode})",
              file=sys.stderr)
        return 2, None
    metrics = {k: {"value": float(m["value"]), "unit": m["unit"]}
               for k, m in raw["metrics"].items()}
    result = {"correct": bool(raw["correct"]),
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    problems = validate(spec, trace, result)
    mismatch = check_exact(workload, wseed, raw.get("exact", {}))
    if mismatch:
        # Results that disagree with an earlier run of the same code
        # are none of them trusted.
        result["failed"] = result["attempted"]
        if "ok_frac" in metrics:
            metrics["ok_frac"]["value"] = 0.0
    problems += mismatch
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
    ok = result["correct"] and r.returncode == 0
    return (0 if ok else 1), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="measured seconds (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload in both modes and validate")
    args = ap.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_check and args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}")
    exe = build()
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.self_check:
        bad = 0
        for w in names:
            for trace in (0, 1):
                code, _ = run_once(exe, spec, w, args.seed,
                                   args.workload_seed, args.seconds, trace)
                print(f"self-check {w} trace={trace}: "
                      f"{'ok' if code == 0 else 'FAILED'}")
                bad += code != 0
        sys.exit(1 if bad else 0)

    code, result = run_once(exe, spec, args.workload, args.seed,
                            args.workload_seed, args.seconds, args.trace)
    if result is None:
        sys.exit(2)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
