"""Command-line entry point: ``python -m repro.bench``.

Runs the pinned-seed experiment suite, writes the schema-versioned
report, and (when a baseline of the same mode exists) compares against
it:

* exit 1 on **counter drift** — the simulated history changed;
* exit 1 on a **counter improvement** — cost counters dropped and
  nothing else moved — until the baseline is re-recorded;
* exit 0 with ``::warning::`` lines on a wall-clock **soft fail**;
* exit 0 silently when clean.

``--full`` also prints every experiment's paper table.  The committed
baseline is a smoke report, so a full run skips the compare.

``--update-baseline`` re-records the (smoke) baseline, only what the
compare reads, in place (do this in the same change that intentionally
alters simulated behaviour, and say why in the commit message).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.measure import format_table

from .compare import COUNTER_DRIFT, COUNTER_IMPROVEMENT, compare_reports
from .experiments import EXPERIMENTS, determinism_digests, run_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the FASTPATH bench suite and compare to the baseline.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true",
        help="scaled-down CI run, 1 repeat per experiment (default)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="figure-sized run, 3 repeats per experiment; prints the "
             "paper tables",
    )
    parser.add_argument(
        "--only", action="append", metavar="NAME",
        help="run only this experiment (repeatable); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    parser.add_argument(
        "--out", default="out/BENCH_fastpath.json", metavar="PATH",
        help="where to write the report (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", default="benchmarks/BENCH_baseline.json", metavar="PATH",
        help="baseline to compare against (default: %(default)s)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the smoke report to the baseline path instead of "
             "comparing",
    )
    parser.add_argument(
        "--digest", action="store_true",
        help="print the determinism digests (XRAY/TRACE SHA-256) and exit",
    )
    args = parser.parse_args(argv)
    if args.full and args.update_baseline:
        parser.error("--update-baseline records the smoke baseline; "
                     "it cannot be used with --full")

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.digest:
        for key, value in determinism_digests().items():
            print(f"{key}  {value}")
        return 0

    scale = "full" if args.full else "smoke"
    repeats = 3 if args.full else 1
    print(f"repro.bench: running {scale} suite "
          f"({len(args.only) if args.only else len(EXPERIMENTS)} experiments, "
          f"{repeats} repeat{'s' if repeats != 1 else ''})", flush=True)

    def progress(name, section):
        wall = section["wall_ms"]["median"]
        print(f"  {name:<24s} {wall:>9.1f} ms  "
              f"{_counters_brief(section['counters'])}", flush=True)

    report = run_suite(scale=scale, repeats=repeats, only=args.only,
                       progress=progress)
    if args.full:
        for name, section in report["experiments"].items():
            # An experiment's docstring opens with its table's caption.
            caption = EXPERIMENTS[name].__doc__.strip().splitlines()[0]
            print()
            print(format_table(section["rows"], title=f"{name}: {caption}"))
        print()

    out_path = Path(args.baseline if args.update_baseline else args.out)
    if args.update_baseline:
        for section in report["experiments"].values():
            del section["info"], section["rows"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"repro.bench: report written to {out_path}")
    if args.update_baseline:
        print("repro.bench: baseline updated; commit it with an explanation")
        return 0

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"repro.bench: no baseline at {baseline_path}, skipping compare")
        return 0
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("mode") != scale:
        print(f"repro.bench: no {scale} baseline, skipping compare")
        return 0
    if args.only:
        # A partial run compares only the experiments it ran.
        baseline = dict(baseline)
        baseline["experiments"] = {
            k: v for k, v in baseline.get("experiments", {}).items()
            if k in set(args.only)
        }
    comparison = compare_reports(baseline, report)
    for warning in comparison.warnings:
        print(f"::warning::repro.bench {warning}")
    for improvement in comparison.improvements:
        # Improvements are not drift: call them out as such.
        print(f"::notice::repro.bench improved {improvement}")
    if comparison.verdict == COUNTER_DRIFT:
        print("repro.bench: COUNTER DRIFT — simulated history changed:",
              file=sys.stderr)
        for error in comparison.errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    if comparison.verdict == COUNTER_IMPROVEMENT:
        print("repro.bench: COUNTER IMPROVEMENT — cost counters dropped; "
              "re-record the baseline to accept "
              "(python -m repro.bench --smoke --update-baseline):",
              file=sys.stderr)
        for improvement in comparison.improvements:
            print(f"  {improvement}", file=sys.stderr)
        return 1
    print(f"repro.bench: verdict {comparison.verdict}")
    return 0


def _counters_brief(counters) -> str:
    shown = {k: counters[k] for k in list(counters)[:3]}
    inner = ", ".join(f"{k}={v}" for k, v in shown.items())
    suffix = ", ..." if len(counters) > 3 else ""
    return f"{{{inner}{suffix}}}"


if __name__ == "__main__":
    sys.exit(main())
