"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import generator  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_generator_is_deterministic_per_seed():
    for workload in generator.WORKLOADS:
        first = generator.round_scenarios(workload, 7, 2)
        assert first == generator.round_scenarios(workload, 7, 2)
        assert first != generator.round_scenarios(workload, 8, 2)
        assert first != generator.round_scenarios(workload, 7, 3)


def test_printed_metric_names_equal_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, "disk_sweep", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert result["failed"] == 0  # no check raised and every oracle held
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_traced_and_untraced_runs_agree(tmp_path):
    from bergman_lab import bergman, fiber_numerics

    original = fiber_numerics.vandermonde
    runner = Runner("disk_sweep", 5, tmp_path)
    _, plain, _ = runner.run_round(0, "plain")
    tracer = Tracer()
    tracer.install()
    try:
        assert bergman.vandermonde is not original  # rebound where it was imported
        _, traced, _ = runner.run_round(0, "traced", tracer)
    finally:
        tracer.uninstall()
    assert bergman.vandermonde is original and fiber_numerics.vandermonde is original
    assert traced == plain
    assert not runner.oracle_errors and runner.failed == 0
    # verdicts other than pass lower pass_frac; they are not failed operations
    assert runner.not_passed == sum(
        v != "pass" for entry in runner.log for v in entry["verdicts"].values())
    layers = tracer.metrics(rounds=1)
    builds = layers["bergman.bergman_basis.calls"][0]
    assert 0 < layers["bergman.basis_distinct"][0] < builds
    # monomials_at reaches vandermonde through the bergman module's binding
    assert layers["fiber_numerics.vandermonde.calls"][0] > builds
    assert layers["bergman.monomials_at.calls"][0] > 0
    assert layers["bergman.gram_at.calls"][0] > 0
    # figures are per traced round, not totals over however many rounds ran
    assert tracer.metrics(rounds=2)["bergman.bergman_basis.calls"][0] == builds / 2
    # coverage leaves out the cli umbrella spans, whose self time is uncovered time
    assert tracer.self_s["cli.run_check"] > 0
    assert tracer.layer_self_total() < sum(tracer.self_s.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "iterate_ledger", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
