"""One workload in one process: run seeded rounds through the public API.

Invoked by ``run.py`` with ``PYTHONPATH=src`` and BLAS pinned to one
thread.  The pipeline per scenario is the one a ``bergman-lab run`` user
drives: ``parse_scenario`` -> ``cli.run_scenario_checks`` ->
``reports.write_report``.  Modes:

* ``--setup-probe``: time import, parsing and ``build_quadrature`` of the
  workload's first scenario in this fresh interpreter, then time the
  calibration kernel, print both, exit.
* default: run rounds until ``--seconds`` is spent, then print one JSON
  line with the raw figures.  With ``--trace 1`` every round
  runs untraced and then traced, and the two report hashes must agree.

Host speed on a shared VM drifts between runs (a 1.35x step is common),
far more than the bounds the benchmark sets.  So the run times
``calibrate``, a fixed numpy and Python kernel owned by the benchmark,
before the first round and after every round, and each timing is scaled to
the host speed at which that kernel takes its reference time: a round's
times are multiplied by the reference over the mean of the two
calibrations around the round, which follows the host's state more
closely than one figure for the whole run.  The program
cannot change the kernel, so a slower program still reads slower; the raw
seconds are kept in the JSON line as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import generator

ORACLE_RTOL = 1e-9
# Calibration kernels: (fiber nodes, basis dimension, repetitions, reference
# seconds).  Timings are reported as if the kernel took its reference time.
# Each workload is scaled by the kernel at its own basis size: the 1-D one
# did not track polydisc_2d across host states, whose time goes to large,
# memory-bound arrays.  Set-up is Python-bound, so it uses the 1-D kernel.
# On a 2-vCPU VM with one BLAS thread the 1-D kernel took 0.12-0.19 s and
# the 2-D one 0.36-0.48 s, depending on the host's state.
KERNEL_1D = (4608, 17, 60, 0.15)
KERNEL_2D = (20736, 66, 6, 0.45)
CALIBRATION = {"disk_sweep": KERNEL_1D, "polydisc_2d": KERNEL_2D, "iterate_ledger": KERNEL_1D}


def calibrate(kernel: tuple) -> float:
    """Time a fixed kernel shaped like the program's hot path; seconds.

    Vandermonde, Gram and eigvalsh steps at one basis size with Python
    bookkeeping between them.  It imports only numpy, never the program,
    and its arrays are allocated before the clock starts, so the allocator
    state the program leaves behind (which decides whether large
    temporaries page-fault) does not change what it measures.
    """
    import numpy as np

    nodes, dim, reps, _ = kernel
    z = 0.9 * np.linspace(0.05, 1.0, nodes) * np.exp(1j * np.linspace(0.0, 40.0, nodes))
    # complex operands throughout, so no ufunc needs a casting buffer
    column, powers = z[:, None], np.arange(dim).astype(complex)
    weights = z.real.astype(complex)[:, None]
    V, W = np.empty((nodes, dim), complex), np.empty((nodes, dim), complex)
    G = np.empty((dim, dim), complex)
    t0 = time.perf_counter()
    for _ in range(reps):
        np.power(column, powers, out=V)
        np.conjugate(V, out=W)
        np.multiply(W, weights, out=W)
        np.matmul(W.T, V, out=G)
        np.linalg.eigvalsh(G)
        tally: dict = {}
        for i in range(1500):
            tally[i % 97] = tally.get(i % 97, 0.0) + i * 0.5
    return time.perf_counter() - t0


def _setup_probe(workload: str, seed: int) -> dict:
    text = generator.round_scenarios(workload, seed, 0)[0][0]
    t0 = time.perf_counter()
    from bergman_lab import cli, reports, scenario  # noqa: F401

    sc = scenario.parse_scenario(text)
    sc.build_quad()
    setup = time.perf_counter() - t0
    calibrate(KERNEL_1D)  # the first call pays numpy's lazy imports
    return {"setup_raw_s": setup, "cal_s": calibrate(KERNEL_1D)}


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": 1,
    }


class Runner:
    """Runs scenarios through the public API and checks them against oracles."""

    def __init__(self, workload: str, seed: int, out_root: Path):
        from bergman_lab import cli, reports, scenario

        self.cli, self.reports, self.scenario = cli, reports, scenario
        self.workload, self.seed, self.out_root = workload, seed, out_root
        self.attempted = 0
        self.failed = 0  # checks that raised or whose output an oracle rejected
        self.not_passed = 0  # checks with any verdict but ``pass``, raised ones too
        self.oracle_errors: list = []
        self.log: list = []

    def run_scenario(self, text: str, params: dict, expected: float, tag: str, tracer=None):
        """One scenario: parse, run its checks, write its report.

        Returns ``(verdicts, report_hash, latency_s)``.  A check that raised
        counts as attempted and failed, with every check after it in the
        scenario; so does a ``certify`` check whose eps0 is not the closed
        form.  A check that ran and returned ``fail`` or ``unconverged``
        completed: its verdict counts against ``pass_frac``, not as a
        failed operation, because the seeded draws decide how many such
        verdicts a run meets and a time-bounded run meets a varying number.
        """
        if tracer is not None:
            tracer.begin_scenario()
        t0 = time.perf_counter()
        sc = self.scenario.parse_scenario(text)
        error = ""
        try:
            records = self.cli.run_scenario_checks(sc, sc.checks, threads=1)
        except Exception as exc:  # a raised check is a failure to report, not to hide
            records, error = [], f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        report = self.reports.RunReport(
            scenario_id=sc.id,
            config_hash=self.reports.config_hash(sc.config()),
            records=tuple(records),
            seed=sc.seed,
        )
        self.reports.write_report(report, self.out_root / f"{sc.id}-{tag}")
        verdicts = [r.verdict for r in records] + ["raised"] * (len(sc.checks) - len(records))
        self.attempted += len(verdicts)
        self.not_passed += sum(v != "pass" for v in verdicts)
        self.failed += verdicts.count("raised")

        certified = next((r.outputs["eps0_certified"] for r in records if r.name == "certify"), None)
        if certified is not None and abs(certified - expected) > ORACLE_RTOL * max(1.0, abs(expected)):
            self.failed += 1
            self.oracle_errors.append(f"{sc.id}: certified eps0 {certified} != closed form {expected}")
        self.log.append({
            "id": sc.id,
            "params": params,
            "verdicts": dict(zip(sc.checks, verdicts)),
            "report_hash": report.report_hash,
            "latency_s": t1 - t0,
            **({"error": error} if error else {}),
        })
        return verdicts, report.report_hash, t1 - t0

    def run_round(self, index: int, tag: str, tracer=None):
        """Returns ``(seconds, [(verdicts, report_hash)], [scenario latency])``."""
        t0 = time.perf_counter()
        out = [
            self.run_scenario(text, params, expected, tag, tracer)
            for text, params, expected in generator.round_scenarios(self.workload, self.seed, index)
        ]
        return time.perf_counter() - t0, [o[:2] for o in out], [o[2] for o in out]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer

    # The benchmark reads and writes only inside its checkout, so report
    # scratch goes to an ignored directory there, not to the system tmp.
    scratch = Path(".perfbench_tmp")
    scratch.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        runner = Runner(workload, seed, out_root)
        tracer = Tracer() if trace else None
        deadline = time.perf_counter() + seconds
        kernel = CALIBRATION[workload]
        calibrate(kernel)  # the first call pays numpy's lazy imports
        cal_s = [calibrate(kernel)]
        round_s, latencies, traced_s, mismatches = [], [], [], []
        scaled_round, scaled_latency = [], []
        index = 0
        while True:
            dt, plain, lat = runner.run_round(index, "plain")
            cal_s.append(calibrate(kernel))
            scale = kernel[3] / statistics.mean(cal_s[-2:])
            round_s.append(dt)
            latencies.extend(lat)
            scaled_round.append(dt * scale)
            scaled_latency.extend(x * scale for x in lat)
            if tracer is not None:
                tracer.install()
                try:
                    dt, traced, _ = runner.run_round(index, "traced", tracer)
                finally:
                    tracer.uninstall()
                traced_s.append(dt)
                if traced != plain:
                    mismatches.append(index)
            index += 1
            per_round = statistics.median(round_s) + statistics.median(cal_s)
            if trace:
                per_round += statistics.median(traced_s)
            if time.perf_counter() + per_round > deadline:
                break
        result = {
            "workload": workload,
            "seed": seed,
            "rounds": index,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "not_passed": runner.not_passed,
            "oracle_errors": runner.oracle_errors,
            "trace_mismatch_rounds": mismatches,
            "wall_s": statistics.median(scaled_round),
            "scenario_p50_s": statistics.median(scaled_latency),
            "raw_wall_s": statistics.median(round_s),
            "raw_scenario_p50_s": statistics.median(latencies),
            "round_s": round_s,
            "cal_s": cal_s,
            "cal_ref_s": kernel[3],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "scenarios": runner.log,
        }
        if tracer is not None:
            # Every figure is per traced round, so the number of rounds that
            # fit in the run (host speed, run length) does not scale it.
            layers = tracer.metrics(rounds=index)
            traced_wall = statistics.median(traced_s)
            layers["trace.wall_s"] = (traced_wall, "s/round")
            layers["trace.overhead_s"] = (traced_wall - statistics.median(round_s), "s/round")
            layers["trace.self_coverage"] = (tracer.layer_self_total() / sum(traced_s), "ratio")
            result["traced_rounds"] = index
            result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            result["spans"] = {
                name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name],
                       "total_s": tracer.total_s[name]}
                for name in tracer.calls
            }
        return result
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still writes there
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=generator.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true")
    args = p.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(_setup_probe(args.workload, args.seed)))
        return 0
    if args.seconds is None:
        p.error("--seconds is required unless --setup-probe is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["environment"] = environment()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
