"""Command-line entry point: run or validate experiment configs.

    mflab run <config.json> [--seed S] [--jobs J] [--out DIR]
    mflab validate <config.json>

`--jobs J` runs J points of an experiment's sweep at once.  The exact
transport solves of classical-dobrushin, mk-bracket and quantum-dobrushin run
on the cores `--jobs` leaves free (usable CPUs // min(J, sweep length)) while
the sweep goes on; neither changes a byte of the output.

`--seed` and `--out` replace the config's `seed` and `out` and are checked
as those keys are.

Exit codes: 0 success; 2 at least one bound report failed; 3 resource or
guard error; 4 validate found diagnostics; 64 unusable config or arguments,
or an output directory that cannot be created (checked before the run).
Result rows go to <out>/<experiment>.jsonl and .csv; the JSONL stream carries
no timestamps, so a (config, seed) pair reproduces byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .bounds import write_reports_jsonl
from .errors import ResourceCapError
from .experiments import GUARD_BAND_ROW, build_config, run_experiment, validate_config

EXIT_OK = 0
EXIT_REPORT_FAILURE = 2
EXIT_RESOURCE = 3
EXIT_DIAGNOSTICS = 4
EXIT_USAGE = 64


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
    except json.JSONDecodeError as err:
        print(f"config is not valid JSON: {err}", file=sys.stderr)
    return None


def _write_outputs(reports, out: Path, experiment: str):
    jsonl_path = out / f"{experiment}.jsonl"
    write_reports_jsonl(reports, jsonl_path)
    csv_path = out / f"{experiment}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "lhs", "rhs", "margin"])
        for r in reports:
            writer.writerow(
                [
                    f"{r.time:.17g}",
                    f"{r.lhs_measured:.17g}",
                    f"{r.rhs:.17g}",
                    f"{r.margin:.17g}",
                ]
            )
    return jsonl_path, csv_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mflab",
        description="mean-field / semiclassical bound verification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel sweep workers; the exact transport solves use the "
        "cores they leave free",
    )
    run_p.add_argument("--out", default=None, help="output directory for JSONL/CSV")
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a JSON experiment config")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    raw = _load_json(args.config)
    if raw is None:
        return EXIT_USAGE
    if args.command == "run" and isinstance(raw, dict):
        overrides = {"seed": args.seed, "out": args.out}
        raw.update({key: value for key, value in overrides.items() if value is not None})

    diagnostics = validate_config(raw)
    if args.command == "validate":
        for d in diagnostics:
            print(d)
        return EXIT_OK if not diagnostics else EXIT_DIAGNOSTICS

    if diagnostics:
        for d in diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_USAGE

    cfg = build_config(raw)
    out = Path(cfg.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        reports = run_experiment(cfg, jobs=max(1, args.jobs))
    except (ResourceCapError, MemoryError) as err:
        print(f"resource error: {err}", file=sys.stderr)
        return EXIT_RESOURCE

    jsonl_path, csv_path = _write_outputs(reports, out, cfg.experiment)
    n_failed = sum(1 for r in reports if not r.passed)
    print(
        f"{cfg.experiment}: {len(reports)} checks, {n_failed} failed; "
        f"wrote {jsonl_path} and {csv_path}"
    )
    if any(r.inequality_id == GUARD_BAND_ROW for r in reports):
        return EXIT_RESOURCE
    return EXIT_OK if n_failed == 0 else EXIT_REPORT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
