"""End-to-end command line runs on small scenarios."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergman_lab.cli import main, run_scenario_checks
from bergman_lab.scenario import parse_scenario

SEPARABLE = """
id = sep
weight = separable 1.0
degree = 16
quadrature = 48 96
eps0 = 1.0
iteration = m 2 steps 3
checks = certify log_inequality iterate
"""

CROSS = """
id = cross
weight = cross 0.5
degree = 16
quadrature = 48 96
eps0 = 0.75
det_frame = 1 | z1
checks = certify log_inequality det_inequality hormander
"""

OVERSTATED = """
id = overstated
weight = cross 0.5
degree = 16
quadrature = 48 96
eps0 = 0.9
checks = certify
"""

NON_REAL = """
id = nonreal
weight = custom (+ (abs2 t1) (abs2 z1) z1)
degree = 16
quadrature = 48 96
checks = certify log_inequality
"""

COARSE = """
id = coarse
weight = cross 0.5
degree = 4
quadrature = 48 96
eps0 = 0.75
section = 0.8 ; 1.0
iteration = m 2 steps 2
checks = bergman_infra section_inequality log_inequality psh_spectrum hormander iterate
"""

NO_CHECKS = """
id = idle
weight = separable 1.0
"""


@pytest.fixture
def scn(tmp_path):
    def write(text, name="case.scn"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def summary_of(out_dir, sid):
    return json.loads((out_dir / f"summary-{sid}.json").read_text())


class TestRunCommand:
    def test_passing_scenario_exits_zero(self, scn, capsys):
        assert main(["run", "--scenario", scn(SEPARABLE)]) == 0
        out = capsys.readouterr().out
        assert "certify: PASS" in out
        assert "log_inequality: PASS" in out
        assert "iterate: PASS" in out

    def test_overstated_constant_fails_with_negative_margin(self, scn, capsys):
        assert main(["certify-weight", "--scenario", scn(OVERSTATED)]) == 2
        out = capsys.readouterr().out
        assert "certify: FAIL" in out
        assert "-1.5" in out  # certified 0.75 minus declared 0.9

    def test_empty_check_list_is_a_passing_noop(self, scn, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", scn(NO_CHECKS), "--out", str(out_dir)]) == 0
        assert summary_of(out_dir, "idle")["records"] == []

    def test_unconverged_degree_exits_three(self, scn, capsys):
        assert main(["bergman", "--scenario", scn(CROSS), "--degree", "6"]) == 3
        assert "UNCONVERGED" in capsys.readouterr().out

    def test_every_truncation_gate_names_the_knob(self):
        # degree 4 cannot resolve a section at 0.8: each check meets its gate
        sc = parse_scenario(COARSE)
        records = run_scenario_checks(sc, sc.checks)
        assert [r.verdict for r in records] == ["unconverged"] * len(sc.checks)
        for rec in records:
            assert rec.error.startswith("kernel truncation not converged at "), rec.name
            assert "from degree 2 to 4" in rec.error
            assert "raise degree, and quadrature with it" in rec.error

    def test_oversized_polydisc_exits_two(self, scn, capsys):
        text = "id = big\nweight = separable 1.0\nfiber = polydisc 1.0 1.0\nchecks = bergman_infra\n"
        assert main(["run", "--scenario", scn(text)]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err and "67,108,864 nodes" in err

    def test_scenario_error_exits_two(self, scn, capsys):
        code = main(["run", "--scenario", scn("id = broken\n")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        "quadrature = 2 4",
        "degree = abc",
        "tolerance = nan",
        "eps0 = -1",
        "degree = 40\nquadrature = 16 32",
    ])
    def test_bad_numeric_field_exits_two(self, scn, capsys, fields):
        text = f"id = bad\nweight = separable 1.0\n{fields}\nchecks = certify\n"
        assert main(["run", "--scenario", scn(text)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_degree_override_above_angular_bound_exits_two(self, scn, capsys):
        assert main(["run", "--scenario", scn(SEPARABLE), "--degree", "48"]) == 2
        err = capsys.readouterr().err
        assert "degree" in err and "quadrature" in err


    def test_non_real_weight_fails_with_message(self, scn, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", scn(NON_REAL), "--out", str(out_dir)]) == 2
        out = capsys.readouterr().out
        assert "certify: FAIL" in out and "log_inequality: FAIL" in out
        records = summary_of(out_dir, "nonreal")["records"]
        assert [r["verdict"] for r in records] == ["fail", "fail"]
        assert all("is not real-valued" in r["error"] for r in records)

    def test_vanishing_section_fails_psh_spectrum_with_message(self):
        text = ("id = zero\nweight = separable 1.0\ndegree = 12\nquadrature = 32 64\n"
                "section = 0.1 ; 0.0\nchecks = psh_spectrum\n")
        sc = parse_scenario(text)
        [rec] = run_scenario_checks(sc, sc.checks)
        assert rec.verdict == "fail" and "log B is undefined" in rec.error

    def test_vanishing_section_fails_log_inequality_with_message(self, scn, capsys):
        text = ("id = zero_log\nweight = separable 1.0\ndegree = 12\nquadrature = 32 64\n"
                "section = 0.1 ; 0.0\nchecks = log_inequality\n")
        assert main(["run", "--scenario", scn(text)]) == 2
        out = capsys.readouterr().out
        assert "log_inequality: FAIL (section functional vanishes at t0" in out

    def test_dependent_det_frame_fails_with_message(self, scn, tmp_path, capsys):
        text = ("id = dep\nweight = separable 1.0\ndegree = 12\nquadrature = 32 64\n"
                "det_frame = 1 | 1\nchecks = det_inequality\n")
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", scn(text), "--out", str(out_dir)]) == 2
        out = capsys.readouterr().out
        assert "det_inequality: FAIL (det_frame: frame numerically dependent" in out
        [rec] = summary_of(out_dir, "dep")["records"]
        assert rec["verdict"] == "fail" and rec["error"].startswith("det_frame: ")

    def test_t0_at_the_patch_edge_runs(self, scn, capsys):
        # no check differences, so nothing asks for room around t0
        text = ("id = edge\nweight = separable 1.0\npatch = 0 ; 0.45\nt0 = 0.445\n"
                "degree = 16\nquadrature = 48 96\nchecks = certify log_inequality\n")
        assert main(["run", "--scenario", scn(text)]) == 0
        assert "log_inequality: PASS" in capsys.readouterr().out


class TestBundledPolydisc:
    def test_polydisc_cross_passes_with_unit_log_trace(self, tmp_path, monkeypatch):
        # 262,144 nodes: the exact log Hessian needs one basis build at t0,
        # and the kernel columns and Hormander fields no node Vandermonde
        import bergman_lab
        from bergman_lab import fiber_numerics

        original = fiber_numerics.vandermonde
        sizes = []

        def spy(basis, nodes):
            sizes.append(np.shape(nodes)[0])
            return original(basis, nodes)

        for name, mod in list(sys.modules.items()):
            if name.startswith("bergman_lab") and getattr(mod, "vandermonde", None) is original:
                monkeypatch.setattr(mod, "vandermonde", spy)
        assert bergman_lab.bergman.vandermonde is spy
        path = Path(__file__).resolve().parent.parent / "scenarios" / "polydisc_cross.scn"
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", str(path), "--out", str(out_dir)]) == 0
        records = summary_of(out_dir, "polydisc_cross")["records"]
        assert [r["name"] for r in records] == [
            "certify", "log_inequality", "psh_spectrum", "bergman_infra", "hormander"]
        assert all(r["verdict"] == "pass" for r in records)
        # the log trace is 1, above the certified 1 - lam^2 = 0.75
        assert records[1]["outputs"]["trace"] == pytest.approx(1.0, abs=1e-9)
        assert records[2]["outputs"]["eigenvalues"] == pytest.approx([1.0], abs=1e-9)
        assert sizes and max(sizes) < 32  # section and probe points (one per call), never the 262,144 nodes


class TestSubcommands:
    def test_cross_checks_all_pass(self, scn, capsys):
        assert main(["run", "--scenario", scn(CROSS)]) == 0
        out = capsys.readouterr().out
        assert "det_inequality: PASS" in out
        assert "hormander: PASS" in out

    def test_curvature_preset_skips_det_without_frame(self, scn, capsys):
        assert main(["curvature", "--scenario", scn(SEPARABLE)]) == 0
        out = capsys.readouterr().out
        assert "section_inequality: PASS" in out
        assert "det_inequality" not in out

    def test_curvature_preset_includes_det_with_frame(self, scn, capsys):
        assert main(["curvature", "--scenario", scn(CROSS)]) == 0
        assert "det_inequality: PASS" in capsys.readouterr().out

    def test_hormander_command(self, scn, capsys):
        assert main(["hormander", "--scenario", scn(CROSS)]) == 0
        assert "hormander: PASS" in capsys.readouterr().out


class TestDeterminism:
    def test_same_config_same_report_hash(self, scn, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        path = scn(SEPARABLE)
        assert main(["run", "--scenario", path, "--out", str(d1)]) == 0
        assert main(["run", "--scenario", path, "--out", str(d2)]) == 0
        h1 = summary_of(d1, "sep")["report_hash"]
        h2 = summary_of(d2, "sep")["report_hash"]
        assert h1 == h2

    def test_degree_override_changes_config_hash(self, scn, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        path = scn(NO_CHECKS)
        main(["run", "--scenario", path, "--out", str(d1)])
        main(["run", "--scenario", path, "--out", str(d2), "--degree", "20"])
        assert summary_of(d1, "idle")["config_hash"] != summary_of(d2, "idle")["config_hash"]

    def test_seed_override_recorded(self, scn, tmp_path):
        out = tmp_path / "rep"
        main(["run", "--scenario", scn(NO_CHECKS), "--out", str(out), "--seed", "9"])
        assert summary_of(out, "idle")["seed"] == 9


class TestPersistenceFlow:
    def test_csv_format_writes_margin_table(self, scn, tmp_path):
        out = tmp_path / "rep"
        main(["run", "--scenario", scn(SEPARABLE), "--out", str(out), "--format", "csv"])
        csv_text = (out / "margins-sep.csv").read_text()
        assert csv_text.startswith("scenario,check,verdict,margin,value")
        assert "sep,certify,pass" in csv_text

    def test_mixed_configs_refuse_shared_records_file(self, scn, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["run", "--scenario", scn(SEPARABLE, "a.scn"), "--out", str(out)]) == 0
        before = (out / "records.jsonl").read_text()
        assert main(["run", "--scenario", scn(CROSS, "b.scn"), "--out", str(out)]) == 2
        assert "refusing to append" in capsys.readouterr().err
        assert (out / "records.jsonl").read_text() == before  # untouched

    def test_report_command_summarizes(self, scn, tmp_path, capsys):
        out = tmp_path / "rep"
        main(["run", "--scenario", scn(SEPARABLE), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sep [" in text
        assert "merged 1 report(s)" in text

    def test_report_command_refuses_mixed_hashes(self, scn, tmp_path, capsys):
        d1, d2, mix = tmp_path / "r1", tmp_path / "r2", tmp_path / "mix"
        main(["run", "--scenario", scn(NO_CHECKS, "a.scn"), "--out", str(d1)])
        main(["run", "--scenario", scn(SEPARABLE, "b.scn"), "--out", str(d2)])
        mix.mkdir()
        for d in (d1, d2):
            for p in d.glob("summary-*.json"):
                (mix / p.name).write_text(p.read_text())
        capsys.readouterr()
        assert main(["report", "--out", str(mix)]) == 2
        assert "refusing to merge" in capsys.readouterr().err

    def test_report_command_empty_dir(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "no summaries" in capsys.readouterr().err


class TestSuiteCommand:
    def test_subset_runs_and_prints_lines(self, capsys):
        assert main(["suite", "--criteria", "a4,a5,a12"]) == 0
        out = capsys.readouterr().out
        assert "A4: PASS" in out
        assert "A12: PASS" in out
        assert "3/3 criteria passed" in out

    def test_unknown_criterion_rejected(self, capsys):
        assert main(["suite", "--criteria", "a77"]) == 2
        assert "unknown criteria" in capsys.readouterr().err


def test_report_hash_does_not_follow_blas_threads(tmp_path):
    # the orthogonality residual of this scenario sits at round-off level,
    # where a BLAS reduction split by thread count moved its last bits
    root = Path(__file__).resolve().parents[1]
    scn = root / "scenarios" / "cross_offcentre.scn"
    lines = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "bergman_lab.cli", "run", "--scenario", str(scn)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines.append([ln for ln in proc.stdout.splitlines() if "report hash" in ln])
    assert len(lines[0]) == 1 and lines[0] == lines[1]
