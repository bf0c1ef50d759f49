#!/usr/bin/env python3
"""Run every bundled scenario.

Usage:
    python3 scripts/run_suite.py [--out reports/] [--scenarios DIR]

Each scenario gets its own subdirectory under --out so the per-scenario
records files never mix configurations.  The process exit code is the
worst one seen (2 dominates 3 dominates 0).  The acceptance criteria
a1..a13 are pytest cases (``tests/test_acceptance.py``).
"""

import argparse
import sys
from pathlib import Path

from bergman_lab.cli import main as cli_main
from bergman_lab.reports import worst_exit_code

ROOT = Path(__file__).resolve().parent.parent


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="directory for per-scenario reports")
    ap.add_argument("--scenarios", default=str(ROOT / "scenarios"), help="scenario directory")
    args = ap.parse_args(argv)

    codes = []
    for path in sorted(Path(args.scenarios).glob("*.scn")):
        print(f"=== {path.name} ===")
        cmd = ["run", "--scenario", str(path)]
        if args.out:
            cmd += ["--out", str(Path(args.out) / path.stem)]
        codes.append(cli_main(cmd))
        print()

    worst = worst_exit_code(codes)
    print(f"\nsuite finished: {len(codes)} run(s), worst exit code {worst}")
    return worst


if __name__ == "__main__":
    sys.exit(run())
