"""One benchmark repetition in a fresh process.

    python3 worker.py <job.json> <spawn time>

Sets up as `mflab run` does (imports, then validates and builds every config)
and, unless the job only probes setup, runs the config list through
`mflab.cli.main` for the job's number of rounds.  A round is one untraced
repetition, followed in a traced job by one traced repetition; tracing is
installed for the traced one only.  What the worker measured goes to
`<job dir>/result.json`, each repetition's rows to `<job dir>/rep<k>/out/` and
each traced repetition's spans to `<job dir>/rep<k>/spans.json`.

Setup time counts from the moment the parent started this process, an instant
the parent passes on the system-wide monotonic clock.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process, by library."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    counts = {}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            if hasattr(dll, sym):
                counts[Path(lib).name] = int(getattr(dll, sym)())
                break
    return counts


def environment() -> dict:
    import platform

    import numpy
    import scipy
    import scipy.fft

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def _run_configs(run, job: dict, out_dir: Path) -> list:
    codes = []
    for i, path in enumerate(job["configs"]):
        try:
            code = run(["run", path, "--out", str(out_dir / str(i)), "--jobs", str(job["jobs"])])
        except Exception:
            # an uncaught exception is what `mflab run` reports as a
            # traceback with exit 1; count it and go on to the next config
            traceback.print_exc()
            code = 1
        codes.append(code)
    return codes


def main(job_path: str, t_spawn: float) -> int:
    t_begin = _now()
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import mflab
    from mflab import cli, experiments

    if Path(mflab.__file__).resolve().parent != Path(job["src"]).resolve() / "mflab":
        raise RuntimeError(f"imported mflab from {mflab.__file__}, not from {job['src']}")
    t_imported = _now()
    for path in job["configs"]:
        raw = json.loads(Path(path).read_text())
        diags = experiments.validate_config(raw)
        if diags:
            raise ValueError(f"{path}: " + "; ".join(diags))
        experiments.build_config(raw)
    t_ready = _now()
    result_path = Path(job["dir"]) / "result.json"
    result = {
        "setup_s": t_ready - t_spawn,
        "import_s": t_imported - t_begin,
        "validate_s": t_ready - t_imported,
        "repetitions": [],
    }
    if job["rounds"] == 0:
        result_path.write_text(json.dumps(result))
        return 0

    import tracing

    result["env"] = environment()
    reps = result["repetitions"]
    for _ in range(job["rounds"]):
        for traced in (False, True) if job["trace"] else (False,):
            rep_dir = Path(job["dir"]) / f"rep{len(reps)}"
            run = cli.main
            if traced:
                tracer = tracing.Tracer()
                restore = tracing.install(tracer)
                run = tracer.wrap("cli.main", cli.main)
            cpu0 = os.times()
            t0 = _now()
            codes = _run_configs(run, job, rep_dir / "out")
            wall_s = _now() - t0
            cpu1 = os.times()
            if traced:
                restore()
                (rep_dir / "spans.json").write_text(json.dumps(tracer.spans))
            reps.append(
                {
                    "trace": traced,
                    "wall_s": wall_s,
                    "cpu_s": cpu1.user + cpu1.system - cpu0.user - cpu0.system,
                    "exit_codes": codes,
                    "dir": str(rep_dir),
                }
            )
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # rewritten after every repetition, so a later crash keeps the
            # repetitions that finished
            result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], float(sys.argv[2])))
