"""Complex Hessians over the base and the inequality checks.

The section functional ``B_t<a,a>``, its log and the determinant potential
``-log det G(t)`` have exact base Hessians (``bergman.section_hessian``
and ``DirectImageGram.neg_log_det_hessian``: the Gram at ``t0`` plus the
Grams of the differentiated weight), so the section, log, spectrum and
determinant checks take no step (nor does the iteration, see
``iteration``).  :func:`fd_trace` forms the complex Hessian of any scalar
field with the one Wirtinger stencil (``utils.wirtinger_hessian``) at a
given step ``h`` and again at ``h/2`` as a Richardson gate; it is the
independent cross-check of the exact Hessians (acceptance criterion a13).
Each check compares the base trace of a Hessian against the lower bound
supplied by a weight certificate and reports the margin with an explicit
tolerance budget.

Verdicts are two-valued here (pass/fail); a failed convergence diagnostic
raises :class:`UnconvergedBasisError` before any verdict, and the CLI maps
that to its own third verdict rather than guessing.  Every kernel
truncation check of the package goes through :func:`truncation_gate` at
the one tolerance :data:`CONVERGENCE_TOL`, so all of them name the same
knobs (degree and quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergman import DirectImageGram, SectionFamily, section_hessian, section_value, \
    section_value_pair
from .utils import as_complex_tuple, wirtinger_hessian
from .weights import WeightFamily

__all__ = [
    "CONVERGENCE_TOL",
    "UnconvergedBasisError",
    "truncation_gate",
    "section_truncation",
    "Stencil",
    "CheckConfig",
    "CurvatureReport",
    "fd_hessian",
    "fd_trace",
    "check_section_inequality",
    "check_log_inequality",
    "check_det_inequality",
    "section_field",
    "log_section_field",
]


# Relative change of a kernel quantity from degree N-2 to N that counts as
# converged, for every truncation gate of the package.
CONVERGENCE_TOL = 1e-6


class UnconvergedBasisError(ArithmeticError):
    """Convergence diagnostics failed; no verdict was produced."""


def truncation_gate(gap: float, tol: float, N: int, where: str) -> None:
    """The one kernel-truncation gate: the relative change ``gap`` of a
    kernel quantity from degree N-2 to N must stay within ``tol``.

    ``where`` names the point the gap was measured at.
    """
    if gap > tol:
        raise UnconvergedBasisError(
            f"kernel truncation not converged {where}: relative change {gap:.3e} from "
            f"degree {N - 2} to {N} (tolerance {tol:.1e}); raise degree, and quadrature "
            f"with it (degree is capped at n_angular/2 - 1)"
        )


@dataclass(frozen=True)
class Stencil:
    """A finite-difference stencil: center and step of all second Wirtinger
    derivatives at a point.

    One center plus four points (+-h, +-ih) per direction; with n(n-1)
    extra directions for the mixed polarization identities the total count
    is 1 + 4n + 4n(n-1).
    """

    center: tuple
    h: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_complex_tuple(self.center))
        if self.h <= 0:
            raise ValueError("stencil step must be positive")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def count(self) -> int:
        n = self.n
        return 1 + 4 * n + 4 * n * (n - 1)


def fd_hessian(field_fn, st: Stencil) -> np.ndarray:
    """Complex Hessian of a real scalar field by the Wirtinger stencil of
    :func:`utils.wirtinger_hessian` around ``st.center`` at step ``st.h``.

    Each field value is checked finite and real at its stencil point.
    """
    center = np.asarray(st.center)

    def eval_at(off):
        p = tuple(center + off)
        v = complex(field_fn(p))
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"field value at {p} is not finite")
        if abs(v.imag) > 1e-10 * max(1.0, abs(v.real)):
            raise ValueError(f"field value at {p} is not real: {v}")
        return v.real

    return wirtinger_hessian(eval_at, st.n, st.h)


@dataclass(frozen=True)
class CheckConfig:
    """Shared numerical knobs for the curvature checks."""

    N: int = 24
    quad: object = None  # QuadratureRule; required by the Bergman-backed checks
    tolerance: float = 1e-3


@dataclass(frozen=True)
class CurvatureReport:
    """Trace inequality outcome for one scalar field at one base point.

    ``h`` is the finite-difference step behind ``hessian``; 0.0 for an
    exact Hessian.
    """

    field_name: str
    t0: tuple
    h: float
    hessian: np.ndarray = field(repr=False)
    trace: float = 0.0
    bound: float = 0.0
    margin: float = 0.0
    tolerance: float = 0.0
    verdict: str = "pass"
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _verdict(margin: float, tolerance: float) -> str:
    return "pass" if margin >= -tolerance else "fail"


def fd_trace(field_fn, t0, h: float, tolerance: float, *, tol_scale: float = 1.0):
    """FD Hessian + trace at step h, with a Richardson gate at h/2.

    Returns ``(H, trace, diagnostics)``; raises :class:`UnconvergedBasisError`
    when the two traces differ by more than ``tolerance * max(1, tol_scale)``.
    """
    H = fd_hessian(field_fn, Stencil(t0, h))
    trace = float(np.real(np.trace(H)))
    t2 = float(np.real(np.trace(fd_hessian(field_fn, Stencil(t0, h / 2)))))
    gap = abs(trace - t2)
    if gap > tolerance * max(1.0, tol_scale):
        raise UnconvergedBasisError(
            f"finite differencing has not converged: trace changed by {gap:.3e} "
            f"when halving the step {h:g} (budget {tolerance:.1e}); lower the step, "
            f"or raise it if roundoff in the kernel values dominates"
        )
    return H, trace, {"trace_at_half_step": t2, "half_step_gap": gap}


def section_field(w: WeightFamily, fam: SectionFamily, N: int, quad):
    """t -> B_t<a,a> as a plain callable."""
    return lambda t: section_value(w, fam, t, N, quad)


def log_section_field(w: WeightFamily, fam: SectionFamily, N: int, quad):
    """t -> log B_t<a,a>."""
    return lambda t: math.log(section_value(w, fam, t, N, quad))


def section_truncation(w, fam, t0, cfg) -> tuple[float, float]:
    """(B(t0), truncation gap), gated by :func:`truncation_gate`."""
    full, sub = section_value_pair(w, fam, t0, cfg.N, cfg.quad)
    gap = abs(full - sub) / max(abs(full), 1e-300)
    truncation_gate(gap, CONVERGENCE_TOL, cfg.N, "at t0")
    return full, gap


def _report(field_name, t0, h, H, bound, tolerance, diagnostics) -> CurvatureReport:
    trace = float(np.real(np.trace(H)))
    margin = trace - bound
    return CurvatureReport(
        field_name=field_name,
        t0=t0,
        h=h,
        hessian=H,
        trace=trace,
        bound=bound,
        margin=margin,
        tolerance=tolerance,
        verdict=_verdict(margin, tolerance),
        diagnostics=diagnostics,
    )


def check_section_inequality(
    w: WeightFamily, fam: SectionFamily, t0, eps0: float, cfg: CheckConfig
) -> CurvatureReport:
    """Trace of the exact Hessian of B_t<a,a> against n * eps0 * B(t0)."""
    t0 = as_complex_tuple(t0)
    B0, conv_gap = section_truncation(w, fam, t0, cfg)
    H = section_hessian(w, fam, t0, cfg.N, cfg.quad).hessian
    diag = {"B0": B0, "convergence_gap": conv_gap, "eps0": eps0}
    tol = cfg.tolerance * max(1.0, B0)
    return _report("section_value", t0, 0.0, H, w.n * eps0 * B0, tol, diag)


def check_log_inequality(
    w: WeightFamily, fam: SectionFamily, t0, eps0: float, cfg: CheckConfig
) -> CurvatureReport:
    """Trace of the exact Hessian of log B_t<a,a> against n * eps0."""
    t0 = as_complex_tuple(t0)
    B0, conv_gap = section_truncation(w, fam, t0, cfg)
    if B0 <= 0:
        raise ArithmeticError("section functional vanishes at t0; log check undefined")
    H = section_hessian(w, fam, t0, cfg.N, cfg.quad).log_hessian
    diag = {"B0": B0, "convergence_gap": conv_gap, "eps0": eps0}
    return _report("log_section_value", t0, 0.0, H, w.n * eps0, cfg.tolerance, diag)


def check_det_inequality(
    dig: DirectImageGram, t0, eps0: float, r: int, cfg: CheckConfig
) -> CurvatureReport:
    """Trace of the exact Hessian of -log det G(t) against n * r * eps0.

    The sign convention (minus log det of the Gram of a holomorphic frame)
    is validated against the rank-one section check on separable weights in
    the test suite; the Hessian raises where det G is not positive.  The
    frame is fixed, not a truncated kernel, so there is no truncation gate.
    """
    t0 = as_complex_tuple(t0)
    if r != dig.rank:
        raise ValueError(f"rank argument {r} disagrees with the frame size {dig.rank}")
    H = dig.neg_log_det_hessian(t0)
    diag = {"rank": r, "eps0": eps0}
    return _report("neg_log_det_gram", t0, 0.0, H, dig.w.n * r * eps0, cfg.tolerance, diag)

