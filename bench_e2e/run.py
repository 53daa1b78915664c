#!/usr/bin/env python3
"""End-to-end benchmark of the IVF serving modes (see DESIGN.md).

Run from the repository root:

    python3 bench_e2e/run.py --workload grouped-opq --seed 1 --trace 0

Builds the benchmark and the library from source into .bench_build/,
runs one workload, checks its answers, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1. The lines before it give the host fingerprint,
the configuration echo, and every metric as a median with quartiles. A
run whose answers fail the correctness gate prints no metrics and exits
with code 1.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "bench_e2e"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"
# A hung run is stopped before three minutes are up.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"bench_e2e: {message}", file=sys.stderr, flush=True)


def fail(message):
    log(message)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("library sources not found; run from the repository root")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "bench_e2e",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "bench_e2e"


def source_id():
    """Git SHA when the checkout is a repository, plus a content digest."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    ident = f"src-sha256:{digest.hexdigest()[:16]}"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if sha.returncode == 0:
            ident = f"git:{sha.stdout.strip()} {ident}"
    return ident


def run_binary(binary, args, trace_path):
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--trace-path", str(trace_path), "--source-id", source_id()]
    # Its own process group, so a timeout can stop the serving child too.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"benchmark binary printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark binary printed no result")
    return proc.returncode, result


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # BENCHMARK.json lists the workloads with bounds; the binary also runs
    # serve-open, whose tails are not yet steady enough to bound (DESIGN.md).
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        fail(f"build failed: {error}")

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"{args.workload}.spans.jsonl"
    code, result = run_binary(binary, args, trace_path)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    header = {"host": result.get("host", {}),
              "config": result.get("config", {}),
              "errors": result.get("errors", [])}
    if args.trace:
        header["spans"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(header), flush=True)

    verdict = {"correct": False, "attempted": int(result.get("attempted", 0)),
               "failed": int(result.get("failed", 0)), "metrics": {}}
    if code != 0 or not result.get("correct") or verdict["failed"] != 0:
        print(json.dumps(verdict))
        fail("correctness gate failed: " + "; ".join(result.get("errors", [])))

    measured = result["metrics"]
    detail, metrics = {}, {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = measured.get(name)
        if got is None or got["unit"] != unit:
            print(json.dumps(verdict))
            fail(f"metric {name} missing or not in {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
        detail[name] = {"median": got["value"], "q1": got["q1"],
                        "q3": got["q3"], "samples": got["samples"],
                        "unit": unit}
    print(json.dumps({"detail": detail}), flush=True)
    verdict["correct"] = True
    verdict["metrics"] = metrics
    print(json.dumps(verdict), flush=True)


if __name__ == "__main__":
    main()
