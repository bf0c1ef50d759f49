#!/usr/bin/env python3
"""Sweep the cross-term coupling and tabulate every margin in the chain.

For each coupling strength lam the weight is
    phi = |t|^2 + 2 lam Re(t conj(xi)) + |xi|^2,
whose exact trace constant is 1 - lam^2.  The scan certifies the constant
on a grid, measures the log-trace of the section functional, evaluates the
L2 contraction ratio, and reports the assembled two-step margins, so one
table shows how every inequality tightens as the coupling approaches 1.
The log trace, the assembled trace and the L2 fields are all exact base
derivatives, so no step is a knob here.

Usage:
    PYTHONPATH=src python3 scripts/margin_scan.py [--lams 0.1,0.3,0.5,0.7]
        [--degree 16] [--quadrature 48,96] [--csv out.csv]
"""

import argparse
import csv
import sys

from bergman_lab.curvature import CheckConfig, check_log_inequality
from bergman_lab.fiber_numerics import FiberDomain, build_quadrature
from bergman_lab.hormander import assembled_lower_bound, build_hormander_data, \
    hormander_bound_check, orthogonality_residual
from bergman_lab.bergman import SectionFamily
from bergman_lab.weights import BasePatch, GridSpec, QuadraticWeight, certify

COLUMNS = (
    "lam", "eps0_exact", "eps0_certified", "log_trace", "trace_margin",
    "bound_ratio", "orthogonality", "chain1_margin", "chain2_margin",
)


def scan_one(lam: float, N: int, quad) -> dict:
    w = QuadraticWeight.cross_term(lam)
    fam = SectionFamily.constant([[0.0]])
    cfg = CheckConfig(N=N, quad=quad, tolerance=1e-3)
    grid = GridSpec(patch=BasePatch(center=(0j,), radius=0.45), fiber=quad.domain)

    cert = certify(w, grid)
    rep = check_log_inequality(w, fam, (0.0,), cert.eps0, cfg)
    data = build_hormander_data(w, fam, (0.0,), N, quad)
    bound = hormander_bound_check(data)
    asm = assembled_lower_bound(data, cfg.tolerance, cert.eps0)
    return {
        "lam": lam,
        "eps0_exact": 1 - lam**2,
        "eps0_certified": cert.eps0,
        "log_trace": rep.trace,
        "trace_margin": rep.margin,
        "bound_ratio": bound.max_ratio,
        "orthogonality": orthogonality_residual(data),
        "chain1_margin": asm.chain1_margin,
        "chain2_margin": asm.chain2_margin,
    }


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lams", default="0.1,0.3,0.5,0.7,0.9")
    ap.add_argument("--degree", type=int, default=16)
    ap.add_argument("--quadrature", default="48,96")
    ap.add_argument("--csv", default=None, help="also write the table to this path")
    args = ap.parse_args(argv)

    nr, na = (int(x) for x in args.quadrature.split(","))
    quad = build_quadrature(FiberDomain.disk(1.0), nr, na)
    lams = [float(x) for x in args.lams.split(",") if x.strip()]

    rows = []
    for lam in lams:
        row = scan_one(lam, args.degree, quad)
        rows.append(row)
        print(
            f"lam={lam:4.2f}  eps0={row['eps0_certified']:.6f} "
            f"(exact {row['eps0_exact']:.6f})  trace={row['log_trace']:.6f}  "
            f"ratio={row['bound_ratio']:.6f}  chain=({row['chain1_margin']:+.2e}, "
            f"{row['chain2_margin']:+.2e})"
        )

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")

    bad = [r for r in rows if r["trace_margin"] < -1e-3 or r["bound_ratio"] > 1 + 1e-4]
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(run())
