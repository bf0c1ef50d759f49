"""Command line front end.

``run`` reads one scenario file, runs the checks its ``checks`` line names
in that order, prints one verdict line per check, and (optionally)
persists a report; that line is the only way to choose checks, so a
report's config hash always names the checks it holds.  ``suite`` runs the
acceptance battery and ``report`` merges saved reports.

Exit codes: 0 when every executed check passes, 2 when any check fails,
3 when none fail but at least one is unconverged (the numerics did not
settle at the requested resolution, so no verdict was reached; the message
names the knob, ``degree`` and ``quadrature`` for a kernel truncation gap).
Every check reads exact base derivatives of its kernel quantities
(``iterate`` included); only the acceptance suite's cross-check (a13)
differences them, at its own fixed step.  A scenario that
cannot be run (a parse error, an out-of-range field, a quadrature above
the node cap) exits 2 before any check; a weight that turns out not to be
real-valued fails each check that evaluates it, and a numerically
dependent ``det_frame`` fails ``det_inequality``, also exit 2.

Reports are deterministic: the same scenario file, overrides and seed
produce byte-identical records and hence the same report hash, regardless
of the BLAS thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from .bergman import bergman_basis, direct_image_gram, kernel_eval, reproducing_residual, \
    extremal_check, section_hessian
from .curvature import CheckConfig, UnconvergedBasisError, check_det_inequality, \
    check_log_inequality, check_section_inequality, section_truncation, truncation_gate_at
from .hormander import assembled_lower_bound, build_hormander_data, dbar_identity_residual, \
    hormander_bound_check, orthogonality_residual
from .iteration import run_iteration
from .reports import CheckRecord, RunReport, config_hash, load_summary, merge_reports, write_report
from .scenario import CHECK_REGISTRY, Scenario, ScenarioError, parse_scenario
from .weights import FiberDegenerateError, NotAWeightError, certify

# Fixed thresholds for the infrastructure checks (independent of the
# scenario tolerance, which governs the inequality margins instead).
REPRODUCING_TOL = 1e-8
EXTREMAL_TOL = 1e-10
HERMITIAN_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-6
DBAR_TOL = 1e-4
RATIO_TOL = 1e-4
PSH_SPECTRUM_TOL = 1e-6


class _Context:
    """Shared per-run state: one quadrature rule (which carries the run's
    memo), one lazy certificate."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.quad = sc.build_quad()
        self.cfg = CheckConfig(N=sc.N, quad=self.quad, tolerance=sc.tolerance)

    @cached_property
    def certificate(self):
        return certify(self.sc.weight, self.sc.grid_spec())

    def eps0(self) -> float:
        """Declared trace constant when the scenario states one, else certified."""
        if self.sc.eps0 is not None:
            return self.sc.eps0
        return self.certificate.eps0


def _fiber_probe(ctx: _Context):
    """An interior fiber point away from the center and the boundary."""
    dom = ctx.quad.domain
    coords = [
        (ri + 0.35 * (ro - ri)) * np.exp(1j * (0.4 + 0.9 * k))
        for k, (ro, ri) in enumerate(zip(dom.radii, dom.inner_radii))
    ]
    return coords[0] if dom.dim == 1 else np.asarray(coords)


# --- individual checks -------------------------------------------------

def _check_certify(ctx: _Context):
    sc = ctx.sc
    cert = ctx.certificate
    outputs = {
        "eps0_certified": cert.eps0,
        "C": cert.C,
        "psh_min_eig": cert.psh_min_eig,
        "grid": cert.grid_spec,
    }
    margins = {"psh_min_eig": cert.psh_min_eig}
    ok = cert.psh_ok
    if sc.eps0 is not None:
        declared_margin = cert.eps0 - sc.eps0
        margins["eps0_certified_minus_declared"] = declared_margin
        outputs["eps0_declared"] = sc.eps0
        ok = ok and declared_margin >= -sc.tolerance
    return ("pass" if ok else "fail"), margins, outputs


def _check_bergman_infra(ctx: _Context):
    sc = ctx.sc
    b = bergman_basis(sc.weight, sc.t0, sc.N, ctx.quad)
    probe = _fiber_probe(ctx)
    gap = truncation_gate_at(b, np.atleast_2d(probe))

    # In-space test function for the reproducing identity (degree <= 2).
    if sc.d == 1:
        h = lambda z: 1.0 + 0.25 * np.asarray(z) ** 2
    else:
        h = lambda z1, z2: 1.0 + 0.25 * np.asarray(z1) * np.asarray(z2)
    repro = reproducing_residual(b, h, probe)

    diag, extremal = extremal_check(b, probe)
    ext_gap = abs(diag - extremal) / max(abs(diag), 1e-300)

    second = 0.6 * np.asarray(probe) * np.exp(2.1j)
    second = complex(second) if sc.d == 1 else second
    kzw = kernel_eval(b, probe, second)
    kwz = kernel_eval(b, second, probe)
    herm = abs(kzw - np.conj(kwz)) / max(abs(kzw), 1e-300)

    scale = max(1.0, abs(complex(h(*np.atleast_1d(probe)))))
    margins = {
        "reproducing": REPRODUCING_TOL * scale - repro,
        "extremal_agreement": EXTREMAL_TOL - ext_gap,
        "hermitian_symmetry": HERMITIAN_TOL - herm,
    }
    outputs = {
        "kernel_diag": diag,
        "reproducing_residual": repro,
        "extremal_gap": ext_gap,
        "convergence_gap": gap,
    }
    ok = all(v >= 0 for v in margins.values())
    return ("pass" if ok else "fail"), margins, outputs


def _record_from_curvature(rep):
    margins = {"trace_minus_bound": rep.margin}
    outputs = {
        "field": rep.field_name,
        "trace": rep.trace,
        "bound": rep.bound,
        "tolerance": rep.tolerance,
    }
    for key in ("B0", "eps0", "rank"):
        if key in rep.diagnostics:
            outputs[key] = float(rep.diagnostics[key])
    return rep.verdict, margins, outputs


def _check_section_inequality(ctx: _Context):
    sc = ctx.sc
    rep = check_section_inequality(sc.weight, sc.sections, sc.t0, ctx.eps0(), ctx.cfg)
    return _record_from_curvature(rep)


def _check_log_inequality(ctx: _Context):
    sc = ctx.sc
    rep = check_log_inequality(sc.weight, sc.sections, sc.t0, ctx.eps0(), ctx.cfg)
    return _record_from_curvature(rep)


def _check_det_inequality(ctx: _Context):
    sc = ctx.sc
    if not sc.det_frame:
        raise ScenarioError("det_inequality requires a det_frame line in the scenario")
    dig = direct_image_gram(sc.weight, sc.det_frame, ctx.quad)
    rep = check_det_inequality(dig, sc.t0, ctx.eps0(), ctx.cfg)
    return _record_from_curvature(rep)


def _check_psh_spectrum(ctx: _Context):
    """Eigenvalue floor of the exact base Hessian of the log section functional."""
    sc = ctx.sc
    _full, conv = section_truncation(sc.weight, sc.sections, sc.t0, sc.N, ctx.quad)
    H = section_hessian(sc.weight, sc.sections, sc.t0, sc.N, ctx.quad).log_hessian
    eigs = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.max(np.abs(H))))
    margin = float(eigs[0]) + PSH_SPECTRUM_TOL * scale
    margins = {"min_eig_plus_floor": margin}
    outputs = {
        "eigenvalues": [float(x) for x in eigs],
        "scale": scale,
        "convergence_gap": conv,
    }
    return ("pass" if margin >= 0 else "fail"), margins, outputs


def _check_hormander(ctx: _Context):
    sc = ctx.sc
    data = build_hormander_data(sc.weight, sc.sections, sc.t0, sc.N, ctx.quad)
    orth = orthogonality_residual(data)
    dbar = dbar_identity_residual(data)
    bound = hormander_bound_check(data)
    asm = assembled_lower_bound(data, sc.tolerance, ctx.eps0())
    margins = {
        "orthogonality": ORTHOGONALITY_TOL - orth,
        "dbar_identity": DBAR_TOL - dbar,
        "bound_ratio": (1.0 + RATIO_TOL) - bound.max_ratio,
        "trace_minus_integral": asm.chain1_margin + asm.tolerance,
        "integral_minus_floor": asm.chain2_margin + asm.tolerance,
    }
    outputs = {
        "orthogonality_residual": orth,
        "dbar_residual": dbar,
        "max_ratio": bound.max_ratio,
        "ratios": [float(r) for r in bound.ratios],
        "lhs_trace": asm.lhs_trace,
        "rhs_integral": asm.rhs_integral,
        "B0": asm.B0,
        "eps0": asm.eps0,
    }
    ok = all(v >= 0 for v in margins.values())
    return ("pass" if ok else "fail"), margins, outputs


def _check_iterate(ctx: _Context):
    sc = ctx.sc
    ledger = run_iteration(sc.weight, sc.iteration_m, sc.iteration_steps, ctx.cfg, ctx.eps0(),
                           sc.t0, twist=sc.twist)
    margins = {"worst_step": ledger.worst_step}
    outputs = {
        "m": ledger.m,
        "eps0": ledger.eps0,
        "aborted": ledger.aborted,
        "failure": ledger.failure,
        "limit_gap": ledger.limit_gap,
        "bounds": [r.certified_bound for r in ledger.steps],
        "measured": [r.measured_trace for r in ledger.steps],
    }
    ok = ledger.satisfies(sc.tolerance)
    return ("pass" if ok else "fail"), margins, outputs


_DISPATCH = {
    "certify": _check_certify,
    "bergman_infra": _check_bergman_infra,
    "section_inequality": _check_section_inequality,
    "log_inequality": _check_log_inequality,
    "det_inequality": _check_det_inequality,
    "psh_spectrum": _check_psh_spectrum,
    "hormander": _check_hormander,
    "iterate": _check_iterate,
}
assert set(_DISPATCH) == set(CHECK_REGISTRY)


def run_check(name: str, ctx: _Context) -> CheckRecord:
    """Execute one named check, mapping numerical non-convergence and
    hypothesis violations to verdicts instead of tracebacks."""
    start = time.perf_counter()
    try:
        verdict, margins, outputs = _DISPATCH[name](ctx)
        error = ""
    except UnconvergedBasisError as exc:
        verdict, margins, outputs, error = "unconverged", {}, {}, str(exc)
    except (FiberDegenerateError, ArithmeticError, NotAWeightError) as exc:
        verdict, margins, outputs, error = "fail", {}, {}, str(exc)
    return CheckRecord(
        name=name,
        verdict=verdict,
        margins={k: float(v) for k, v in margins.items()},
        outputs=outputs,
        error=error,
        timing_s=time.perf_counter() - start,
    )


# ``threads`` does nothing; perfbench/worker.py still passes it, and it goes
# with the next change to the benchmark.
def run_scenario_checks(sc: Scenario, names, threads: int = 1) -> list:
    ctx = _Context(sc)
    return [run_check(name, ctx) for name in names]


# --- commands ----------------------------------------------------------

def _margin_summary(rec: CheckRecord) -> str:
    if rec.error:
        return rec.error
    if not rec.margins:
        return "no margins"
    worst = min(rec.margins, key=rec.margins.get)
    return f"{worst} = {rec.margins[worst]:.3e}"


def _write(report: RunReport, args) -> bool:
    """Write ``report`` under ``--out``, if given; False, with the message on
    stderr, when ``write_report`` refuses the directory."""
    try:
        paths = write_report(report, args.out, format=args.format) if args.out else []
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return False
    for p in paths:
        print(f"wrote {p}")
    return True


def _cmd_run(args) -> int:
    try:
        sc = parse_scenario(Path(args.scenario).read_text())
        overrides = {"seed": args.seed, "N": args.degree}
        sc = dataclasses.replace(sc, **{k: v for k, v in overrides.items() if v is not None})
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    records = run_scenario_checks(sc, sc.checks)
    for rec in records:
        print(f"{rec.name}: {rec.verdict.upper()} ({_margin_summary(rec)})")
    report = RunReport(
        scenario_id=sc.id,
        config_hash=config_hash(sc.config()),
        records=tuple(records),
        seed=sc.seed,
    )
    print(f"run: scenario {sc.id}, report hash {report.report_hash[:12]}")
    return report.exit_code if _write(report, args) else 2


def _cmd_suite(args) -> int:
    from . import acceptance

    names = acceptance.criterion_names()
    if args.criteria:
        wanted = [c.strip().lower() for c in args.criteria.split(",") if c.strip()]
        unknown = [c for c in wanted if c not in names]
        if unknown:
            print(f"unknown criteria: {', '.join(unknown)}", file=sys.stderr)
            return 2
        names = wanted
    records = []
    for name in names:
        res = acceptance.run_criterion(name)
        print(res.line())
        records.append(
            CheckRecord(
                name=name,
                verdict="pass" if res.passed else "fail",
                margins={"worst": res.margin},
                outputs={"detail": res.detail},
                timing_s=res.elapsed_s,
            )
        )
    report = RunReport(
        scenario_id="acceptance-suite",
        config_hash=config_hash({"suite": "acceptance", "criteria": list(names)}),
        records=tuple(records),
    )
    if not _write(report, args):
        return 2
    failed = [r.name for r in records if r.verdict != "pass"]
    print(f"suite: {len(records) - len(failed)}/{len(records)} criteria passed")
    return 0 if not failed else 2


def _cmd_report(args) -> int:
    out = Path(args.out)
    paths = sorted(out.glob("summary-*.json"))
    if not paths:
        print(f"no summaries under {out}", file=sys.stderr)
        return 2
    summaries = [load_summary(p) for p in paths]
    try:
        merged = merge_reports(summaries)
    except ValueError as exc:
        print(f"refusing to merge: {exc}", file=sys.stderr)
        return 2
    for s in summaries:
        verdicts = ", ".join(f"{r['name']}={r['verdict']}" for r in s["records"])
        print(f"{s['scenario_id']} [{s['report_hash'][:12]}]: {verdicts or 'no records'}")
    print(f"merged {len(summaries)} report(s), combined exit code {merged['exit_code']}")
    return merged["exit_code"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergman-lab",
        description="Positivity checks for fiberwise weighted Bergman kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the checks the scenario's checks line names, in order")
    p.add_argument("--scenario", required=True, help="path to a scenario file")
    p.add_argument("--out", default=None, help="directory for reports (omit to skip writing)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--degree", type=int, default=None, help="override the basis degree cap")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("suite", help="run the acceptance criteria battery")
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. a1,a4,a12")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("report", help="summarize and merge saved reports")
    p.add_argument("--out", required=True, help="directory holding summary-*.json files")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
