"""Complex Hessians over the base and the inequality checks.

The section functional ``B_t<a,a>``, its log and the determinant potential
``-log det G(t)`` have exact base Hessians (``bergman.section_hessian``
and ``DirectImageGram.neg_log_det_hessian``: the Gram at ``t0`` plus the
Grams of the differentiated weight), so the section, log, spectrum and
determinant checks take no step (nor does the iteration, see
``iteration``).  :func:`fd_hessian` is the one Wirtinger stencil of the
package: the complex Hessian of a real field, scalar or array-valued, at a
:class:`Stencil` point.  No check calls it: the tests' independent
cross-check of the exact Hessians does, at two steps under one Richardson
gate, and the benchmark's tracer wraps it by name.  Each check compares the
base trace of a Hessian against the lower bound supplied by a weight
certificate and reports the margin with an explicit tolerance budget.  The
determinant check reads the rank from the frame and factors its Gram at
``t0`` alone.

Verdicts are two-valued here (pass/fail); a failed convergence diagnostic
raises :class:`UnconvergedBasisError` before any verdict, and the CLI maps
that to its own third verdict rather than guessing.  Every kernel
truncation check of the package goes through :func:`truncation_gate` at
the one tolerance :data:`CONVERGENCE_TOL`, so all of them name the same
knobs (degree and quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bergman import DirectImageGram, SectionFamily, section_hessian, section_value_pair
from .utils import as_complex_tuple
from .weights import WeightFamily

__all__ = [
    "CONVERGENCE_TOL",
    "UnconvergedBasisError",
    "truncation_gate",
    "truncation_gate_at",
    "worst_truncation_gap",
    "section_truncation",
    "Stencil",
    "CheckConfig",
    "CurvatureReport",
    "fd_hessian",
    "check_section_inequality",
    "check_log_inequality",
    "check_det_inequality",
]


# Relative change of a kernel quantity from degree N-2 to N that counts as
# converged, for every truncation gate of the package.
CONVERGENCE_TOL = 1e-6


class UnconvergedBasisError(ArithmeticError):
    """Convergence diagnostics failed; no verdict was produced."""


def truncation_gate(gap: float, N: int, where: str) -> None:
    """The one kernel-truncation gate: the relative change ``gap`` of a
    kernel quantity from degree N-2 to N must stay within
    :data:`CONVERGENCE_TOL`.  ``where`` names the point it was measured at.
    A gap that is not finite is a kernel beyond the double range (an
    ``exp(-phi)`` subnormal on every node), which no degree resolves.
    """
    if gap <= CONVERGENCE_TOL:
        return
    if np.isfinite(gap):
        raise UnconvergedBasisError(
            f"kernel truncation not converged {where}: relative change {gap:.3e} from "
            f"degree {N - 2} to {N} (tolerance {CONVERGENCE_TOL:.1e}); raise degree, and "
            f"quadrature with it (degree is capped at n_angular/2 - 1)")
    raise UnconvergedBasisError(f"kernel not finite in double precision {where} at degree {N}: "
                                f"exp(-phi) is too small on the nodes; subtract a constant from "
                                f"the weight")


def truncation_gate_at(b, points, rows=None) -> float:
    """:func:`worst_truncation_gap` of the basis ``b`` at the fiber
    ``points`` (M, d), from one frame evaluation
    (``BergmanBasis.diag_convergence_gap``, from their monomial ``rows``
    where given)."""
    return worst_truncation_gap(b.diag_convergence_gap(points, rows), points, b.N, b.t)


def worst_truncation_gap(gaps: np.ndarray, points, N: int, t) -> float:
    """:func:`truncation_gate` at the worst of the ``gaps`` of a degree-N
    basis at the fiber ``points`` over ``t``; the message names that point
    and ``t``.  Returns the worst gap; the message is formatted only when
    the gate fails."""
    k = int(np.argmax(gaps))
    if not gaps[k] <= CONVERGENCE_TOL:  # NaN fails too
        truncation_gate(gaps[k], N, f"at fiber point {points[k].tolist()} over t={t}")
    return float(gaps[k])


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
    """Complex Hessian d^2/dt_i dt_j-bar of a real field around ``st.center``
    at step ``st.h``, by the directional second difference

        Q(u) = (f(+hu) + f(-hu) + f(+ihu) + f(-ihu) - 4 f(0)) / (4 h^2),

    which approximates ``u^T H u-bar``: diagonal entries are ``Q(e_i)`` and
    mixed ones come from polarization along ``e_i + e_j`` (real part) and
    ``e_i + i e_j`` (imaginary part); error O(h^2), ``st.count`` field
    evaluations.  ``field_fn`` takes the point as a tuple and returns a
    scalar or an array; the result is Hermitian, shaped ``value.shape + (n,
    n)``.  Every value is checked finite and real at its stencil point.
    """
    center = np.asarray(st.center)
    h, n = st.h, st.n

    def f(off):
        p = tuple(center + off)
        v = np.asarray(field_fn(p), dtype=complex)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"field value at {p} is not finite")
        if np.any(np.abs(v.imag) > 1e-10 * np.maximum(1.0, np.abs(v.real))):
            raise ValueError(f"field value at {p} is not real: {v}")
        return v.real.astype(complex)

    f0 = f(np.zeros(n, dtype=complex))

    def second(u: np.ndarray):
        v = [f(off) for off in (h * u, -h * u, 1j * h * u, -1j * h * u)]
        return (v[0] + v[1] + v[2] + v[3] - 4.0 * f0) / (4.0 * h * h)

    basis = np.eye(n, dtype=complex)
    diag = [second(basis[i]) for i in range(n)]
    H = np.zeros(f0.shape + (n, n), dtype=complex)
    for i in range(n):
        H[..., i, i] = diag[i]
    for i in range(n):
        for j in range(i + 1, n):
            re = (second(basis[i] + basis[j]) - diag[i] - diag[j]) / 2.0
            im = (second(basis[i] + 1j * basis[j]) - diag[i] - diag[j]) / 2.0
            H[..., i, j] = re + 1j * im
            H[..., j, i] = np.conj(re + 1j * im)
    return H


@dataclass(frozen=True)
class CheckConfig:
    """Shared numerical knobs for the curvature checks."""

    N: int
    quad: object  # QuadratureRule
    tolerance: float = 1e-3


@dataclass(frozen=True)
class CurvatureReport:
    """Trace inequality outcome for one scalar field at one base point."""

    field_name: str
    t0: tuple
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


def section_truncation(w, fam, t0, N: int, quad) -> tuple[float, float]:
    """(B(t0), truncation gap), gated by :func:`truncation_gate`."""
    full, sub = section_value_pair(w, fam, t0, N, quad)
    gap = abs(full - sub) / max(abs(full), 1e-300)
    truncation_gate(gap, N, "at t0")
    return full, gap


def _report(field_name, t0, H, bound, tolerance, diagnostics) -> CurvatureReport:
    trace = float(np.real(np.trace(H)))
    margin = trace - bound
    return CurvatureReport(
        field_name=field_name,
        t0=t0,
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
    B0, conv_gap = section_truncation(w, fam, t0, cfg.N, cfg.quad)
    H = section_hessian(w, fam, t0, cfg.N, cfg.quad).hessian
    diag = {"B0": B0, "convergence_gap": conv_gap, "eps0": eps0}
    tol = cfg.tolerance * max(1.0, B0)
    return _report("section_value", t0, H, w.n * eps0 * B0, tol, diag)


def check_log_inequality(
    w: WeightFamily, fam: SectionFamily, t0, eps0: float, cfg: CheckConfig
) -> CurvatureReport:
    """Trace of the exact Hessian of log B_t<a,a> against n * eps0."""
    t0 = as_complex_tuple(t0)
    B0, conv_gap = section_truncation(w, fam, t0, cfg.N, cfg.quad)
    if B0 <= 0:
        raise ArithmeticError("section functional vanishes at t0; log check undefined")
    H = section_hessian(w, fam, t0, cfg.N, cfg.quad).log_hessian
    diag = {"B0": B0, "convergence_gap": conv_gap, "eps0": eps0}
    return _report("log_section_value", t0, H, w.n * eps0, cfg.tolerance, diag)


def check_det_inequality(dig: DirectImageGram, t0, eps0: float, cfg: CheckConfig
                         ) -> CurvatureReport:
    """Trace of the exact Hessian of -log det G(t) against n * r * eps0, r
    the frame's rank.

    The sign convention (minus log det of the Gram of a holomorphic frame)
    is validated against the rank-one section check on separable weights in
    the test suite.  The frame Gram is factored at ``t0`` only, and a frame
    that fails the pivot test of ``DirectImageGram.factor`` there raises
    ``fiber_numerics.DegenerateBasisError`` naming the frame element.  The
    frame is fixed, not a truncated kernel, so there is no truncation gate.
    """
    t0 = as_complex_tuple(t0)
    H = dig.neg_log_det_hessian(t0)
    diag = {"rank": dig.rank, "eps0": eps0}
    return _report("neg_log_det_gram", t0, H, dig.w.n * dig.rank * eps0, cfg.tolerance, diag)

