#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the finbench library and the benchmark
driver from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the driver, prints every metric by name with
its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the run's spans to .bench_out/spans-NAME.tsv). Exits non-zero
without a result line when the program cannot be built or run.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        die(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    return out


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build():
    """Configure once, then bring the driver up to date; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no finbench sources beside {HERE.name}/ (need CMakeLists.txt and src/)")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(bdir), "--target", "perfbench_driver", "-j", jobs],
                BUILD_TIMEOUT_S, stdout=sys.stderr)
    return bdir / "perfbench_driver"


def catalog(driver):
    return json.loads(run_checked([str(driver), "--list"], 60, stdout=subprocess.PIPE))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    driver = build()
    cat = catalog(driver)
    if args.workload not in cat["workloads"]:
        die(f"unknown workload {args.workload!r}; known: {', '.join(cat['workloads'])}")
    expected = cat["per_layer" if args.trace else "end_to_end"]

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}.tsv")]
    lines = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE).decode().splitlines()
    if not lines:
        die("the driver printed nothing")
    res = json.loads(lines[-1])

    metrics = res["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        die(f"driver metrics {sorted(metrics)} differ from the catalog {sorted(names)}")
    for name in names:
        v = metrics[name]["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die(f"metric {name} has no finite value")

    t = res["threads"]
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"# threads: nproc={res['nproc']} engine_pool={t['engine_pool']} "
          f"omp_max={t['omp_max']} client={t['client']} "
          f"serve_dispatcher={t['serve_dispatcher']}")
    for m in expected:
        r = metrics[m["name"]]
        print(f"{m['name']:<32} {r['value']:>16.6g} {m['unit']:<6} n={r['n']:<8} {r['stat']}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{'fail_ratio':<32} {failed / max(1, attempted):>16.6g} {'ratio':<6} "
          f"n={attempted:<8} failed, shed, expired or wrong operations / attempted")
    p = res["probe"]
    print(f"probe {p['name']}: {p['stale']} of {p['options']} options stale after an "
          f"in-place spot change (option 0 call: reused request {p['option0_reused']:.3f}, "
          f"fresh request {p['option0_fresh']:.3f}); a known engine defect, non-zero until "
          f"fixed")
    for note in res["notes"]:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in expected},
    }))


if __name__ == "__main__":
    main()
