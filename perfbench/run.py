"""bergman-lab benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload disk_sweep --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, scenarios back to back; see
``generator.py`` for the scenario forms):

* ``disk_sweep``: three 1-D disk forms per round (cross with a det frame,
  the n = 2 quadratic cross form, a polynomial weight) at 48x96 quadrature
  and degree 16.  Many small basis builds, one per stencil point, so
  per-build overhead, basis reuse and the FD stencils dominate.
* ``polydisc_2d``: one 2-D polydisc scenario per round at 12x24 quadrature
  per coordinate and degree 10.  Few large builds dominated by the
  Vandermonde and the Gram product.
* ``iterate_ledger``: three ``certify`` + ``iterate`` scenarios per round.
  Log-kernel fields reuse their cached bases and re-evaluate node values.

With ``--trace 0`` the end-to-end metrics are measured with tracing off;
``setup_s`` is the median of several fresh-interpreter probes.  Times are
scaled to a reference host speed by the calibration kernel of
``worker.py``, which the program cannot touch; the raw seconds are in the
detail line.  With ``--trace 1`` every round runs untraced and then with
the outside-in tracer of ``tracer.py``, and the per-layer metrics, each
per traced round, are printed instead.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` counts checks; ``failed`` counts those that
raised or whose output a closed-form oracle rejected.  A check that ran to
a ``fail`` or ``unconverged`` verdict lowers ``pass_frac`` instead (see
``worker.Runner.run_scenario``).  The line before it carries the drawn
scenario parameters, verdicts, report hashes and the recorded environment.
The exit code is 0 when every correctness oracle held, 1 when one failed,
2 when the program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generator import WORKLOADS
from worker import KERNEL_1D

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
TIME_LIMIT_S = 170  # whole run, set-up probes included
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_ENV:
        env[var] = "1"
    return env


def _worker(args: list, deadline: float) -> dict:
    """Run the worker in its own process; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=_child_env(), capture_output=True, text=True, timeout=deadline - time.monotonic(),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="bergman-lab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not Path("src/bergman_lab/__init__.py").is_file():
        print("perfbench: src/bergman_lab not found; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [] if args.trace else [
            _worker([*common, "--setup-probe"], deadline) for _ in range(SETUP_PROBES)
        ]
        res = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = res.pop("per_layer")
    else:
        setup = statistics.median(p["setup_raw_s"] for p in probes)
        cal = statistics.median(p["cal_s"] for p in probes)
        metrics = {
            "setup_s": {"value": setup * KERNEL_1D[3] / cal, "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "scenario_p50_s": {"value": res["scenario_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "pass_frac": {"value": 1.0 - res["not_passed"] / res["attempted"], "unit": "ratio"},
        }
        res["setup_probes"] = probes
    correct = not res["oracle_errors"] and not res["trace_mismatch_rounds"]
    print(json.dumps(res, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
