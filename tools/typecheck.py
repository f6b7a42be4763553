"""Typecheck driver: mypy over ``src/repro`` with a machine-readable report.

``make typecheck`` runs this next to ``make lint`` as a ``make test``
prerequisite.  The policy (configured under ``[tool.mypy]`` in
``pyproject.toml``) is strict-on-annotated gradual typing: annotated
public APIs are held to their signatures; unannotated internals stay
unchecked until they grow annotations.

Mirrors the ruff pattern of the lint target: when mypy is not installed
the pass is *skipped with a warning* and exits 0 — the repro_lint
dataflow rules (SHAPE001/UNIT001) still gate the contracts that
matter most, and offline containers must not fail the build for a
missing optional tool.

Always writes a JSON report artifact (default ``build/typecheck_report.json``)
recording the outcome::

    {"tool": "mypy", "skipped": true, "reason": "mypy not installed"}
    {"tool": "mypy", "skipped": false, "exit_status": 0,
     "errors": 0, "warnings": 0, "notes": [...first 200 lines...]}

Exit codes: 0 clean or skipped, 1 type errors, 2 driver failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_REPORT = REPO_ROOT / "build" / "typecheck_report.json"
#: Lines of mypy output preserved verbatim in the JSON artifact.
MAX_REPORT_LINES = 200


def _mypy_command() -> Optional[List[str]]:
    """The mypy invocation to use, or None when mypy is unavailable."""
    try:
        import mypy  # noqa: F401
    except ImportError:
        return None
    return [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"]


def _write_report(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report",
        type=Path,
        default=DEFAULT_REPORT,
        help=f"JSON report artifact path (default: {DEFAULT_REPORT})",
    )
    args = parser.parse_args(argv)

    command = _mypy_command()
    if command is None:
        print(
            "typecheck: mypy not installed; skipping static type pass "
            "(repro_lint dataflow rules already gate shape/unit "
            "contracts)",
            file=sys.stderr,
        )
        _write_report(
            args.report,
            {"tool": "mypy", "skipped": True, "reason": "mypy not installed"},
        )
        return 0

    try:
        completed = subprocess.run(
            command,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
    except OSError as error:
        print(f"typecheck: failed to launch mypy: {error}", file=sys.stderr)
        _write_report(
            args.report,
            {"tool": "mypy", "skipped": True, "reason": f"launch failure: {error}"},
        )
        return 2

    output = (completed.stdout or "") + (completed.stderr or "")
    lines = [line for line in output.splitlines() if line.strip()]
    errors = sum(1 for line in lines if ": error:" in line)
    warnings = sum(1 for line in lines if ": warning:" in line)
    _write_report(
        args.report,
        {
            "tool": "mypy",
            "skipped": False,
            "exit_status": completed.returncode,
            "errors": errors,
            "warnings": warnings,
            "notes": lines[:MAX_REPORT_LINES],
        },
    )
    sys.stdout.write(completed.stdout or "")
    sys.stderr.write(completed.stderr or "")
    if completed.returncode not in (0, 1):
        # mypy crashed (2) — a driver/config problem, not a type error.
        return 2
    return 0 if completed.returncode == 0 and errors == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
