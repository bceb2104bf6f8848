"""CLI of the GUARDRAIL static-analysis suite.

Exit codes (CI-friendly):

* ``0`` — no finding;
* ``1`` — at least one finding (every finding is an error);
* ``2`` — usage or I/O error (bad rule name, unreadable path).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .base import all_rules
from .engine import findings_to_json, render_findings, run_lint

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "GUARDRAIL: AST-based checks for determinism, layering, "
            "Figure-3 transitions, probe coverage, and exception hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="report format (json output is byte-deterministic)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _split(arg: Optional[str]) -> Optional[List[str]]:
    if arg is None:
        return None
    return [part.strip() for part in arg.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in all_rules():
            print(f"{cls.name:20s} {cls.description}")
        return 0

    try:
        result = run_lint(
            args.paths,
            select=_split(args.select),
            ignore=_split(args.ignore) or (),
        )
    except ValueError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(findings_to_json(result))
    else:
        print(render_findings(result))
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main())
