"""mflab benchmark: run one workload, check its rows, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--jobs J]

Run from the root of a source checkout; mflab is imported from `src/`.  A run
first starts SETUP_PROBES worker processes that only set up, then one fresh
worker that runs the workload's config list for as many rounds as fit in
`--seconds` at the workload's nominal cost (at least one).  A round is one
untraced repetition, plus one traced repetition in a traced run.  The count
depends on `--seconds` alone, so both sides of a comparison measure the same
work.  Times are medians: wall time over the untraced repetitions, setup time
over all workers.

Every repetition is checked against the stored reference rows of its input
set (see workloads.py).  A row is off the reference when its inequality id,
time or pass flag differs, or when its lhs or rhs differs by more than
REL_TOL relative (ABS_TOL absolute, for values at round-off level).  A config
that exits with a code other than 0 or 2, or a worker that dies, fails and
misses all of its expected rows.

The last line of stdout is one JSON object: `attempted` and `failed` count
report rows over all repetitions, `correct` is true when no row failed or
left the reference, and `metrics` holds the
end-to-end metrics of BENCHMARK.json (`--trace 0`) or its per-layer metrics
(`--trace 1`).  The lines before it give the environment and every metric
with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import INPUT_SETS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
REFERENCE = HERE / "reference"

REL_TOL = 1e-6
ABS_TOL = 1e-12
SETUP_PROBES = 2
# time the setup probes and the measuring worker's own setup take together
SETUP_OVERHEAD_S = 4.0
RUN_LIMIT_S = 170.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _threads(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def read_rows(path: Path) -> list:
    """[inequality_id, time, pass, lhs_measured, rhs] per JSONL row."""
    rows = []
    with open(path) as fh:
        for line in fh:
            r = json.loads(line)
            rows.append([r["inequality_id"], r["time"], r["pass"], r["lhs_measured"], r["rhs"]])
    return rows


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare(expected: list, got: list | None):
    """(failed, off-reference) row counts of one config's output; `got` is
    None when the config crashed."""
    if got is None:
        return len(expected), len(expected)
    failed = sum(not g[2] for g in got) + max(0, len(expected) - len(got))
    off = abs(len(expected) - len(got)) + sum(
        e[:3] != g[:3] or not _close(e[3], g[3]) or not _close(e[4], g[4])
        for e, g in zip(expected, got)
    )
    return min(failed, len(expected)), off


class Run:
    """Workers for one config list, sharing a scratch directory."""

    def __init__(self, name: str, configs: list, jobs: int, limit: float):
        self.name = name
        self.dir = WORK / f"{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        self.configs = []
        for i, cfg in enumerate(configs):
            path = self.dir / "configs" / f"{i}-{cfg['experiment']}.json"
            path.write_text(json.dumps(cfg))
            self.configs.append((path, cfg["experiment"]))
        self.jobs = jobs
        self.limit = limit
        self.count = 0
        # numpy and scipy each load their own OpenBLAS, and each pool adds
        # threads - 1 helpers to the main thread; this many threads per pool
        # keeps the worker at no more than nproc threads
        n = str((len(os.sched_getaffinity(0)) + 1) // 2)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)

    def worker(self, rounds: int = 0, trace: bool = False) -> dict:
        """Start one worker for `rounds` rounds (0: set up only), wait for
        it, and return its result (see worker.py) plus `ok`, `elapsed` and
        `threads_max`.  A worker that dies gets one more repetition with no
        exit codes: the one it died in."""
        self.count += 1
        wdir = self.dir / f"worker{self.count}"
        wdir.mkdir()
        job = {
            "src": str(SRC),
            "configs": [str(p) for p, _ in self.configs],
            "jobs": self.jobs,
            "trace": trace,
            "rounds": rounds,
            "dir": str(wdir),
        }
        (wdir / "job.json").write_text(json.dumps(job))
        threads = 0
        with open(wdir / "worker.log", "w") as log:
            t_spawn = _now()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(wdir / "job.json"), repr(t_spawn)],
                cwd=ROOT,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            try:
                while proc.poll() is None:
                    threads = max(threads, _threads(proc.pid))
                    if _now() > self.limit:
                        proc.kill()
                    try:
                        proc.wait(timeout=0.1)
                    except subprocess.TimeoutExpired:
                        pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        result_path = wdir / "result.json"
        result = json.loads(result_path.read_text()) if result_path.is_file() else {}
        result.update(ok=proc.returncode == 0, elapsed=_now() - t_spawn, threads_max=threads)
        if not result["ok"]:
            log_tail = (wdir / "worker.log").read_text()[-2000:]
            print(f"worker exited {proc.returncode}:\n{log_tail}", file=sys.stderr)
            if rounds:
                result.setdefault("repetitions", []).append(
                    {"trace": False, "wall_s": None, "exit_codes": [None] * len(self.configs)}
                )
        if trace:
            for rep in result.get("repetitions", []):
                spans_path = Path(rep.get("dir", "")) / "spans.json"
                if rep["trace"] and spans_path.is_file():
                    spans = json.loads(spans_path.read_text())
                    rep["layers"] = tracing.layer_metrics(spans, rep["wall_s"])
                    shutil.copy(spans_path, WORK / f"{self.name}.spans.json")
        return result

    def outputs(self, rep: dict) -> list:
        """Each config's JSONL path in a repetition, or None where the config
        exited with a code other than 0 or 2."""
        return [
            Path(rep["dir"]) / "out" / str(i) / f"{exp}.jsonl" if code in (0, 2) else None
            for i, ((_, exp), code) in enumerate(zip(self.configs, rep["exit_codes"]))
        ]

    def check(self, rep: dict, expected: list) -> None:
        """Record in `rep` its expected, failed and off-reference row counts."""
        rep["expected"] = rep["failed"] = rep["off"] = 0
        for want, path in zip(expected, self.outputs(rep)):
            got = read_rows(path) if path is not None and path.is_file() else None
            failed, off = compare(want, got)
            rep["expected"] += len(want)
            rep["failed"] += failed
            rep["off"] += off

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def load_reference(workload: str, inputs: int, configs: list) -> list:
    ref = json.loads((REFERENCE / f"{workload}.json").read_text())[str(inputs)]
    if ref["configs"] != configs:
        raise RuntimeError(
            f"reference/{workload}.json was made from other configs; "
            "run perfbench/make_reference.py"
        )
    return ref["rows"]


def measure(run: Run, expected: list, rounds: int, trace: bool):
    """Setup probes, then one worker running `rounds` rounds; returns
    (workers, repetitions), the repetitions checked against `expected`."""
    workers = [run.worker() for _ in range(SETUP_PROBES)]
    workers.append(run.worker(rounds, trace))
    reps = workers[-1]["repetitions"]
    for rep in reps:
        run.check(rep, expected)
    return workers, reps


def _median(values) -> float:
    """Median, or 0 where a crash left no values."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(workers: list, reps: list, trace: bool) -> dict:
    median = _median
    main = workers[-1]
    walls = [r["wall_s"] for r in reps if not r["trace"] and r["wall_s"] is not None]
    values = {
        "wall_s": median(walls or [main["elapsed"]]),
        "setup_s": median(w.get("setup_s", w["elapsed"]) for w in workers),
        "peak_rss_mb": main.get(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        ),
        "checks_failed_frac": sum(r["failed"] for r in reps) / sum(r["expected"] for r in reps),
        "rows_off_reference": sum(r["off"] for r in reps),
    }
    if trace:
        # a worker that died before its traced repetition leaves no spans
        layered = [r["layers"] for r in reps if "layers" in r] or [
            tracing.layer_metrics([], values["wall_s"])
        ]
        for key in layered[0]:
            values[key] = median(layers[key] for layers in layered)
        timed = [w for w in workers if "import_s" in w]
        values.update(
            {
                "setup.import_s": median(w["import_s"] for w in timed),
                "setup.validate_s": median(w["validate_s"] for w in timed),
                "process.cpu_s": median(r["cpu_s"] for r in reps if "cpu_s" in r and not r["trace"]),
                "process.threads_max": max(w["threads_max"] for w in workers),
                "trace.overhead_s": values["trace.wall_s"] - values["wall_s"],
            }
        )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1, help="mflab run --jobs (tracing needs 1)")
    args = parser.parse_args(argv)
    if not (SRC / "mflab" / "__init__.py").is_file():
        print(f"no mflab sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace and args.jobs != 1:
        parser.error("--trace 1 needs --jobs 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]

    inputs = args.seed % INPUT_SETS
    workload = WORKLOADS[args.workload]
    configs = workload.configs(inputs)
    rep_s = workload.rep_s * (2 if args.trace else 1)
    rounds = max(1, int((args.seconds - SETUP_OVERHEAD_S) // rep_s))
    expected = load_reference(args.workload, inputs, configs)
    run = Run(args.workload, configs, args.jobs, _now() + RUN_LIMIT_S)
    try:
        workers, reps = measure(run, expected, rounds, bool(args.trace))
    finally:
        run.close()
    values = summarize(workers, reps, bool(args.trace))

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for declared metrics {missing}")
    env = workers[-1].get("env", {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": inputs,
        "jobs": args.jobs,
        "trace": args.trace,
        "values": values,
        "workers": workers,
    }
    (WORK / f"{args.workload}.result.json").write_text(json.dumps(record, indent=1))

    n_untraced = sum(not r["trace"] for r in reps)
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"{args.workload}: input set {inputs} (seed {args.seed}), {len(reps)} repetitions "
        f"({n_untraced} untraced) in one worker, {len(workers)} setups, jobs {args.jobs}"
    )
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    shown = [m["name"] for m in bench["end_to_end"]] + ["checks_failed_frac", "rows_off_reference"]
    if args.trace:
        shown += [m["name"] for m in bench["per_layer"] if m["name"] not in shown]
    for name in shown:
        line = f"  {name:<52} {values[name]:>16.6g} {units[name]}"
        if args.trace and name.endswith((".s", ".self_s")):
            line += f"  {100.0 * values[name] / values['trace.wall_s']:5.1f}% of traced wall"
        if name in tracing.COMPUTED:
            line += "  (computed)"
        print(line)

    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and values["rows_off_reference"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["expected"] for r in reps),
                "failed": failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
