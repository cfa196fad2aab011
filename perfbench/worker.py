"""One workload in one fresh process: timed passes of `statekit run`, then checks.

Started by run.py, which pins the BLAS threads and writes the configs. An
operation is ``statekit.cli.main(["run", config, "--out", dir])`` with its
stdout captured. A pass runs every config once. The first pass warms up
and its outputs are the reference: they get the full checks of checks.py,
and every later pass must reproduce their CSV bytes and results.

The last stdout line is one JSON object: correct, attempted, failed, the
metric values, the pass times and the kernel backend.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from statekit import _kernels, cli  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def run_op(config_path: Path, out_dir: Path) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            rc = cli.main(["run", str(config_path), "--out", str(out_dir)])
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        seconds = perf_counter() - start
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "seconds": seconds}


def read_output(op: dict, out_dir: Path) -> tuple[dict | None, list[str]]:
    """Parse one operation's files and CLI summary; return (output, problems)."""
    if op["rc"] != 0:
        return None, [f"exit code {op['rc']}: {op['stderr'].strip()[-500:]}"]
    try:
        summary = checks.strict_json(op["stdout"])
        report = checks.strict_json((out_dir / "report.json").read_text(encoding="utf-8"))
        files = sorted(out_dir.iterdir())
        tables = {p.stem: p.read_bytes() for p in files if p.suffix == ".csv"}
    except (OSError, ValueError) as exc:
        return None, [f"unreadable output: {exc}"]
    problems = []
    if sorted(summary.get("written", [])) != sorted(str(p) for p in files):
        problems.append(f"CLI lists {summary.get('written')} but the directory holds {files}")
    if summary.get("results") != report["results"]:
        problems.append("CLI summary results differ from report.json")
    output = {"report": report, "tables": tables, "bytes": sum(p.stat().st_size for p in files)}
    return output, problems


class Workload:
    def __init__(self, configs: list[tuple[str, Path]], out_root: Path):
        self.configs = configs
        self.out_root = out_root
        self.reference: dict = {}  # config name -> its first readable output
        self.problems: dict = {}  # config name -> problems of its first failure
        self.runs = Counter()  # config name -> operations attempted
        self.failures = Counter()  # config name -> operations that failed a pass check
        self.wrong_reference: set = set()  # configs whose first output failed the full checks

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        # later passes reproduce the reference bytes, so they share its verdict
        return sum(self.runs[n] if n in self.wrong_reference else self.failures[n] for n in self.runs)

    def run_pass(self) -> dict:
        seconds = 0.0
        emitted = 0
        for name, path in self.configs:
            out_dir = self.out_root / name
            op = run_op(path, out_dir)
            seconds += op["seconds"]
            output, problems = read_output(op, out_dir)
            if self.reference.get(name) is None:
                self.reference[name] = output
            ref = self.reference[name]
            if output is not None and ref is not output:
                if output["tables"] != ref["tables"]:
                    problems.append("CSV bytes differ from the reference output")
                if output["report"]["results"] != ref["report"]["results"]:
                    problems.append("report.json results differ from the reference output")
            if output is not None:
                emitted += output["bytes"]
            self.runs[name] += 1
            if problems:
                self.failures[name] += 1
                self.problems.setdefault(name, problems)
        return {"seconds": seconds, "emit_bytes": emitted}

    def check_reference(self) -> None:
        """Full checks of checks.py on each config's reference output."""
        for name, path in self.configs:
            ref = self.reference.get(name)
            if ref is None:
                continue
            config = json.loads(path.read_text(encoding="utf-8"))
            tables = {k: v.decode("utf-8") for k, v in ref["tables"].items()}
            problems = checks.check_output(config, ref["report"], tables)
            if problems:
                self.wrong_reference.add(name)
                self.problems[name] = problems


def layer_value(name: str, traced: list[dict], ratio: float) -> float:
    """One per-layer metric: a median over traced passes of the pass's counters."""
    if name == "trace.overhead_ratio":
        return ratio
    if name == "interference.pair_terms":
        return statistics.median(p["layers"]["pair_terms"] for p in traced)
    if name == "experiments.emit.bytes":
        return statistics.median(p["emit_bytes"] for p in traced)
    span, _, kind = name.rpartition(".")
    if span not in LAYERS:
        raise ValueError(f"per-layer metric {name} names no traced span")
    values = []
    for p in traced:
        calls = p["layers"]["calls"].get(span, 0)
        if kind == "calls":
            values.append(calls)
        elif kind == "self_s":
            values.append(p["layers"]["self_s"].get(span, 0.0))
        elif kind == "useful_ratio":
            values.append(p["layers"]["distinct"].get(span, 0) / calls if calls else 0.0)
        else:
            raise ValueError(f"unknown per-layer metric kind in {name}")
    return statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True,
                    help="timed passes (--trace 0) or untraced/traced pass pairs (--trace 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--metrics", required=True, help="comma-separated metric names to report")
    ap.add_argument("configs", nargs="+", type=Path)
    args = ap.parse_args()

    work = Workload([(p.stem, p) for p in args.configs], args.run_dir / "out")
    tracer = Tracer()
    work.run_pass()  # warm-up and reference pass
    untraced, traced = [], []
    for _ in range(args.passes):
        untraced.append(work.run_pass())
        if args.trace:
            tracer.install()
            try:
                first = tracer.begin_pass()
                traced.append(work.run_pass())
                traced[-1]["layers"] = tracer.pass_layers(first)
            finally:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    work.check_reference()
    direct = []
    for path in args.configs:
        config = json.loads(path.read_text(encoding="utf-8"))
        if config["experiment"] == "interference-audit":
            direct += checks.check_decomposition(args.seed, config["n_features"])
    for name, problems in work.problems.items():
        print(f"FAILED {name}: " + "; ".join(problems[:5]), file=sys.stderr)
    for problem in direct[:5]:
        print(f"FAILED direct decomposition check: {problem}", file=sys.stderr)

    pass_s = statistics.median(p["seconds"] for p in untraced)
    if args.trace:
        tracer.write(args.run_dir / "spans.json")
        ratio = statistics.median(p["seconds"] for p in traced) / pass_s
        metrics = {name: layer_value(name, traced, ratio) for name in args.metrics.split(",")}
    else:
        metrics = {"pass_s": pass_s, "peak_rss_mb": peak_rss_mb}
    shutil.rmtree(work.out_root, ignore_errors=True)
    print(json.dumps({
        "correct": work.failed == 0 and not direct,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": metrics,
        "pass_seconds": [p["seconds"] for p in untraced],
        "traced_pass_seconds": [p["seconds"] for p in traced],
        "backend": _kernels.backend(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
