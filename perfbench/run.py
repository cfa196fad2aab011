"""statekit benchmark: one workload, its end-to-end or per-layer metrics.

Usage, from the root of a statekit checkout:

    python3 perfbench/run.py --workload {audit,spectra,sweep} --seed N \\
        --seconds S --trace {0,1}

Writes the workload's `statekit run` configs from the seed, times set-up in
fresh interpreters (--trace 0 only), and runs the workload in a fresh
worker process with BLAS pinned to BLAS_THREADS and statekit's kernels to
the numpy backend. The worker runs a fixed number of passes, set by
--seconds and the workload's nominal pass time, so two runs of the same
length take the median over as many passes. The last stdout line is
one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1).
Run output goes to .perfbench_run/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, make_configs, pass_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"  # at or below nproc; one thread keeps LAPACK timings steady
KERNELS = "numpy"  # statekit's kernel backend; "auto" would pick numba where installed
SETUP_REPEATS = 11  # fresh interpreters timed per run; setup_s is their median
TIME_LIMIT_S = 170  # the whole run, set-up and worker together


def setup_seconds(config_paths: list[Path], env: dict) -> float:
    """Median wall time of a fresh interpreter that imports statekit and
    parses and validates the configs. One untimed probe writes bytecode first."""
    cmd = [sys.executable, str(HERE / "probe.py"), *map(str, config_paths)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env)
        # a blocking wait: subprocess's timeout polling would round times up to 50 ms
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        rc = proc.wait()
        watchdog.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "statekit" / "__init__.py").is_file():
        print(f"error: no statekit sources under {ROOT / 'src'}; run from a statekit checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (run_dir / "configs").mkdir(parents=True, exist_ok=True)
    config_paths = []
    for name, config in make_configs(args.workload, args.seed, str(run_dir / "out")):
        path = run_dir / "configs" / f"{name}.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        config_paths.append(path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, STATEKIT_KERNELS=KERNELS)
    passes = pass_count(args.workload, args.seconds, args.trace)

    started = time.monotonic()
    metrics = {}
    try:
        if not args.trace:
            metrics["setup_s"] = setup_seconds(config_paths, env)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--seed", str(args.seed), "--passes", str(passes), "--trace", str(args.trace),
             "--run-dir", str(run_dir), "--metrics", ",".join(m["name"] for m in wanted),
             *map(str, config_paths)],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=TIME_LIMIT_S - (time.monotonic() - started),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])

    times = result["pass_seconds"]
    print(f"{args.workload} seed {args.seed}, {result['backend']} kernels: {len(times)} untraced passes, "
          f"fastest {min(times):.4f} s, median {statistics.median(times):.4f} s, slowest {max(times):.4f} s")
    if result["traced_pass_seconds"]:
        print(f"traced passes: {len(result['traced_pass_seconds'])}, spans in {run_dir / 'spans.json'}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
