"""End-to-end command line runs on small scenarios."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergman_lab.cli import build_parser, main, run_scenario_checks
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

CUSTOM_SEPARABLE = """
id = custom_sep
weight = custom (+ (abs2 t1) (abs2 z1))
eps0 = 1.0
checks = hormander
"""

TWISTED = """
id = twisted
weight = cross 0.5
twist = 0.5
eps0 = 1.534
degree = 16
quadrature = 48 96
iteration = m 2 steps 4
checks = iterate
"""

UNDERFLOW = """
id = underflow
weight = {weight}
fiber = disk 1.0
section = 0.2+0.1j ; 1.0
degree = 8
quadrature = 16 32
checks = certify bergman_infra section_inequality log_inequality psh_spectrum hormander
"""

NO_CHECKS = """
id = idle
weight = separable 1.0
"""

# degree 16 settles at the disk's fiber samples but not at an annulus's
# middle ring 0.8 (gap 4.6e-3) nor at 0.74 (6.4e-4), where iterate measures
ANNULUS_ITERATE = """
id = annulus_gate
fiber = annulus 0.6 1.0
weight = cross 0.5
section = 0.8 ; 1.0
degree = 16
quadrature = 48 96
eps0 = 0.75
checks = iterate
"""

FLAT_ITERATE = """
id = flat_gate
weight = quadratic 1 0 ; 0 0
degree = 12
quadrature = 48 96
eps0 = 0.75
checks = iterate
"""


def with_checks(text, checks):
    """The scenario ``text`` with its ``checks`` line replaced by ``checks``."""
    kept = [line for line in text.splitlines() if not line.startswith("checks")]
    return "\n".join(kept + [f"checks = {checks}", ""])


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
        assert main(["run", "--scenario", scn(OVERSTATED)]) == 2
        out = capsys.readouterr().out
        assert "certify: FAIL" in out
        assert "-1.5" in out  # certified 0.75 minus declared 0.9

    def test_twisted_iterate_verdict_reads_its_margin(self, scn, capsys):
        # worst_step subtracts the twist slack delta_k, and so does the verdict
        assert main(["run", "--scenario", scn(TWISTED)]) == 2
        assert "iterate: FAIL (worst_step = -3.085e-02)" in capsys.readouterr().out

    def test_empty_check_list_is_a_passing_noop(self, scn, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", scn(NO_CHECKS), "--out", str(out_dir)]) == 0
        assert summary_of(out_dir, "idle")["records"] == []

    def test_unconverged_degree_exits_three(self, scn, capsys):
        assert main(["run", "--scenario", scn(with_checks(CROSS, "bergman_infra")), "--degree", "6"]) == 3
        assert "bergman_infra: UNCONVERGED" in capsys.readouterr().out

    @pytest.mark.parametrize("text, worst", [(ANNULUS_ITERATE, "(0.8+0j)"), (FLAT_ITERATE, "(0.5+0j)")],
                             ids=["annulus", "flat_disk"])
    def test_iterate_is_gated_where_it_measures(self, scn, capsys, text, worst):
        # iterate reads the kernel at its samples (0.8 and 0.74 on the
        # annulus, whose hole holds 0.5), and log K on every node: on the
        # flat disk at degree 12 the gap is 1e-9 at the samples 0 and 0.35
        # but 2.0e-6 at the middle ring 0.5
        assert main(["run", "--scenario", scn(text)]) == 3
        out = capsys.readouterr().out
        assert f"iterate: UNCONVERGED (kernel truncation not converged at fiber point [{worst}]" in out

    @pytest.mark.parametrize("weight", ["quadratic 1 0 ; 0 800", "custom (+ (abs2 t1) (* 800 (abs2 z1)))"],
                             ids=["quadratic", "custom"])
    def test_underflowing_weight_gives_records_and_exit_three(self, scn, tmp_path, capsys, weight):
        # exp(-800|xi|^2) is an exact 0 beyond |xi| ~ 0.965: the Gram takes
        # the zeros, and the kernel there needs far more than degree 8
        out = tmp_path / "rep"
        assert main(["run", "--scenario", scn(UNDERFLOW.format(weight=weight)), "--out", str(out)]) == 3
        assert "certify: PASS" in capsys.readouterr().out
        records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        assert [r["verdict"] for r in records] == ["pass"] + ["unconverged"] * 5
        assert all("kernel truncation not converged" in r["error"] for r in records[1:])

    def test_kernel_beyond_double_range_is_unconverged_and_quiet(self, tmp_path):
        # exp(-720 - |t|^2 - |xi|^2) is subnormal on every node, so K(z, z) ~
        # e^720 / pi overflows: no degree resolves it, and the gates name the
        # range limit instead of reading a NaN gap as converged
        root = Path(__file__).resolve().parents[1]
        path = tmp_path / "subnormal.scn"
        path.write_text("id = subnormal\nweight = custom (+ 720 (abs2 t1) (abs2 z1))\ndegree = 8\n"
                        "quadrature = 24 48\nchecks = bergman_infra log_inequality hormander\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bergman_lab.cli", "run", "--scenario", str(path), "--out", "rep"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (3, "")
        records = [json.loads(line) for line in (tmp_path / "rep" / "records.jsonl").read_text().splitlines()]
        assert [r["verdict"] for r in records] == ["unconverged"] * 3
        assert all("kernel not finite in double precision" in r["error"] for r in records)

    def test_overflowing_weight_gives_a_fail_record_and_exit_two(self, scn, tmp_path, capsys):
        # exp(800|xi|^2 - |t|^2) overflows to inf on the outer rings: no
        # Gram can be formed, and the record names the base point
        text = "id = overflow\nweight = custom (+ (abs2 t1) (* -800 (abs2 z1)))\nchecks = log_inequality\n"
        out = tmp_path / "rep"
        assert main(["run", "--scenario", scn(text), "--out", str(out)]) == 2
        assert "log_inequality: FAIL" in capsys.readouterr().out
        records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        assert [r["verdict"] for r in records] == ["fail"]
        assert "exp(-phi) is not finite" in records[0]["error"]
        assert "at t = (0j,)" in records[0]["error"]

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

    def test_section_outside_the_fiber_names_the_base_point_as_python_numbers(self, scn, capsys):
        # the patch sample's numpy scalars print as np.complex128(0j) under numpy 2
        text = "id = far\nweight = separable 1.0\nfiber = annulus 0.5 1e300\nchecks = certify\n"
        assert main(["run", "--scenario", scn(text)]) == 2
        err = capsys.readouterr().err
        assert "evaluates to [0j] at t=(0j,), outside the fiber domain" in err

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

    @pytest.mark.parametrize("fields, key", [
        ("weight = cross nan\nchecks = log_inequality", "weight"),
        ("weight = separable inf\nchecks = log_inequality", "weight"),
        ("weight = custom (+ (abs2 t1) (* nan (abs2 z1)))\nchecks = log_inequality", "weight"),
        ("weight = custom (+ (abs2 t1) (* 1e400 (abs2 z1)))\nchecks = log_inequality", "weight"),
        ("weight = quadratic 1 nan ; nan 1\nchecks = certify", "weight"),
        ("weight = separable 1.0\npatch = 0 ; inf\nchecks = certify", "patch"),
        ("weight = separable 1.0\npatch = 0 ; nan\nchecks = certify", "patch"),
        ("weight = separable 1.0\nfiber = disk inf\nchecks = certify", "fiber"),
        ("weight = separable 1.0\nt0 = nanj\nchecks = certify", "t0"),
    ], ids=["cross-nan", "separable-inf", "custom-nan", "custom-1e400", "quadratic-nan",
            "patch-inf", "patch-nan", "fiber-inf", "t0-nan"])
    def test_non_finite_number_exits_two_naming_the_field(self, scn, capsys, fields, key):
        # a non-finite radius makes a NaN grid that certifies vacuously, and a
        # non-finite weight number fails only inside the Gram assembly
        assert main(["run", "--scenario", scn(f"id = nonfinite\n{fields}\n")]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before any check
        assert err.startswith("scenario error: line ") and f"field {key!r}" in err

    def test_section_leaving_the_fiber_only_at_t0_exits_two(self, scn, capsys):
        # the patch sample misses t0, where this section sits at |s| = 1.2
        text = ("id = off_fiber\nweight = cross 0.5\n"
                "section = (+ 0.6 (* 14.6319j t1 t1 t1 t1)) ; 1.0\nt0 = 0.415745-0.172208j\n"
                "degree = 16\nquadrature = 48 96\neps0 = 0.75\n"
                "checks = certify section_inequality\n")
        assert main(["run", "--scenario", scn(text)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "scenario error: field 'section'" in err and "outside the fiber domain" in err


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
        assert "det_inequality: FAIL (frame numerically dependent at t=(0j,)" in out
        [rec] = summary_of(out_dir, "dep")["records"]
        assert rec["verdict"] == "fail" and rec["error"].startswith("frame numerically dependent")
        assert "frame element 2 of 2" in rec["error"]

    def test_orthogonal_det_frame_of_spread_norms_passes(self, scn, tmp_path, capsys):
        # {1, z1^20} is orthogonal on the disk of radius 0.5, with Gram
        # eigenvalues 2.7e-14 and 0.695: the pivot test against each pivot's
        # own diagonal entry accepts it, as it accepts the basis Gram
        z20 = "(* " + " ".join(["z1"] * 20) + ")"
        text = ("id = spread_frame\nfiber = disk 0.5\nweight = cross 0.5\neps0 = 0.75\n"
                f"degree = 30\nquadrature = 48 96\ndet_frame = 1 | {z20}\nchecks = det_inequality\n")
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", scn(text), "--out", str(out_dir)]) == 0
        assert "det_inequality: PASS" in capsys.readouterr().out
        [rec] = summary_of(out_dir, "spread_frame")["records"]
        assert rec["verdict"] == "pass" and rec["margins"]["trace_minus_bound"] >= 0

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


OFFCENTRE = Path(__file__).resolve().parent.parent / "scenarios" / "iterate_offcentre.scn"


class TestIterateAtT0:
    """``iterate`` measures at the scenario's t0 and iterates the scenario's
    eps0, declared or certified on the scenario's patch."""

    def test_offcentre_patch_is_measured_at_t0(self, capsys):
        # |t|^4 + |xi|^2 on the patch 0.3 ; 0.1: the Schur trace is about 0.36
        # at t0 = 0.3 against b_3 = 0.14, and 0 at the origin (worst_step -0.14)
        assert main(["run", "--scenario", str(OFFCENTRE)]) == 0
        assert "iterate: PASS (worst_step = 2.200e-01)" in capsys.readouterr().out

    def test_undeclared_eps0_is_certified_on_the_patch(self, scn, tmp_path, capsys):
        text = "".join(ln for ln in OFFCENTRE.read_text().splitlines(True) if not ln.startswith("eps0"))
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", scn(text), "--out", str(out_dir)]) == 0
        assert "iterate: PASS (worst_step = 2.200e-01)" in capsys.readouterr().out
        iterate = summary_of(out_dir, "iterate_offcentre")["records"][-1]
        assert iterate["outputs"]["eps0"] == pytest.approx(0.16, abs=1e-12)  # 4 |t|^2 at |t| = 0.2

    def test_zero_eps0_is_a_fail_record(self, scn, tmp_path, capsys):
        text = ("id = zero_eps0\nweight = cross 0.5\neps0 = 0\ndegree = 16\nquadrature = 48 96\n"
                "iteration = m 2 steps 3\nchecks = certify iterate\n")
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", scn(text), "--out", str(out_dir)]) == 2
        assert "iterate: FAIL (iteration needs a strictly positive eps0, got 0.0)" in capsys.readouterr().out
        records = summary_of(out_dir, "zero_eps0")["records"]
        assert [(r["name"], r["verdict"]) for r in records] == [("certify", "pass"), ("iterate", "fail")]


class TestSubcommands:
    def test_cross_checks_all_pass(self, scn, capsys):
        assert main(["run", "--scenario", scn(CROSS)]) == 0
        out = capsys.readouterr().out
        assert "det_inequality: PASS" in out
        assert "hormander: PASS" in out

    def test_custom_separable_weight_passes_hormander(self, scn, capsys):
        # tf = 0 exactly: the tree derivatives leave no noise for the dbar
        # identity residual to take as its scale
        assert main(["run", "--scenario", scn(CUSTOM_SEPARABLE)]) == 0
        assert "hormander: PASS" in capsys.readouterr().out

    def test_complex_amplitudes_pass_hormander(self, tmp_path, capsys):
        # amplitudes (1, -i): the Hormander field represents sum a_i f(s_i),
        # so its norm is B(t0), and the cross weight's constant Schur trace
        # 1 - lam^2 leaves chain 2 at round-off
        path = Path(__file__).resolve().parent.parent / "scenarios" / "complex_amplitudes.scn"
        out_dir = tmp_path / "rep"
        assert main(["run", "--scenario", str(path), "--out", str(out_dir)]) == 0
        assert "hormander: PASS" in capsys.readouterr().out
        hormander = summary_of(out_dir, "complex_amplitudes")["records"][-1]
        B0, tol = hormander["outputs"]["B0"], 1e-3 * max(1.0, hormander["outputs"]["B0"])
        assert hormander["outputs"]["rhs_integral"] == pytest.approx(0.75 * B0, rel=1e-12)
        assert hormander["margins"]["integral_minus_floor"] == pytest.approx(tol, abs=1e-12 * B0)

    def test_hormander_alone(self, scn, capsys):
        assert main(["run", "--scenario", scn(with_checks(CROSS, "hormander"))]) == 0
        out = capsys.readouterr().out
        assert "hormander: PASS" in out and "certify" not in out


def subcommands() -> set:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return set(action.choices)


class TestCommandSet:
    def test_run_and_report_are_the_only_commands(self):
        assert subcommands() == {"run", "report"}

    def test_suite_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "suite" in err

    def test_run_records_are_the_checks_line_in_order(self, scn, tmp_path):
        out = tmp_path / "rep"
        text = with_checks(CROSS, "hormander certify det_inequality")
        assert main(["run", "--scenario", scn(text), "--out", str(out)]) == 0
        checks = parse_scenario(text).config()["checks"]
        assert checks == ["hormander", "certify", "det_inequality"]
        assert [r["name"] for r in summary_of(out, "cross")["records"]] == checks

    def test_readme_names_only_existing_commands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
        named = set(re.findall(r"\bbergman-lab ([a-z][\w-]*)", "".join(blocks)))
        assert named and named <= subcommands(), named - subcommands()


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

    @pytest.mark.parametrize("first", ["{}", "[1]"])
    def test_foreign_records_file_is_refused_with_exit_2(self, scn, tmp_path, capsys, first):
        out = tmp_path / "rep"
        out.mkdir()
        (out / "records.jsonl").write_text(first + "\n")
        assert main(["run", "--scenario", scn(SEPARABLE), "--out", str(out)]) == 2
        assert "refusing to append to" in capsys.readouterr().err
        assert (out / "records.jsonl").read_text() == first + "\n"

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

    @pytest.mark.parametrize("content", [b'{"schema": "other"}', b"[1]", b"\xff\x00 not json"],
                             ids=["other-schema", "not-an-object", "not-json"])
    def test_report_command_refuses_a_foreign_summary(self, tmp_path, capsys, content):
        (tmp_path / "summary-x.json").write_bytes(content)
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "refusing to merge" in err and "summary-x.json" in err

    def test_report_command_empty_dir(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "no summaries" in capsys.readouterr().err


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
