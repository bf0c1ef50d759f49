"""The L2-estimate step: derivative fields, orthogonality, the dbar identity.

For a family of sections s_i with amplitudes a_i and kernel K_t at base
point t, define on the fiber

    Gamma(xi)    = sum_i conj(a_i(t0)) K_{t0}(xi, s_i(t0)),
    Lambda_a(xi) = sum_i conj(a_i(t0)) [ d/dt_a - (d phi/dt_a) ] K_t(xi, s_i(t))   at t = t0.

Gamma is the Riesz representer of ``f -> sum_i a_i f(s_i)``, so
``||Gamma||^2`` is the section functional B.  Both are exact and need only
the basis at ``t0``: ``K_t(xi, w) = M(xi)^T P(t) conj(M(w))`` with ``P =
G^-1 = C C^H``, and ``conj(a_i(t) M(s_i(t)))`` is antiholomorphic in t (so
freezing the amplitudes is exact): Gamma has the monomial coefficients ``p
= P conj(u)``, ``u = sum_i a_i(t0) M(s_i(t0))`` as in
``bergman.section_hessian``, and its t-derivative ``-P d_aG p``, ``d_aG``
read from ``bergman.base_gram_jets``.  Every base direction is built, and
the coefficient vectors of Gamma and of all n fields Lambda_a go to the
nodes in one ring synthesis (``fiber_numerics.monomial_synthesis``), and
the moments of the orthogonality test come back through its adjoint, so no
node Vandermonde is built.  Three facts are checked numerically, each on
the weight, base point, degree and rule the :class:`HormanderData` was
built on:

* Lambda_a is orthogonal to every holomorphic function in the truncated
  space (this characterizes the weight-twisted derivative),
* dbar Lambda_a = -Gamma * (mixed Hessian row over the fiber indices),
  evaluated by grid differentiation in polar coordinates,
* the L2 bound ||Lambda_a||^2 <= int |Gamma|^2 (tf ff^{-1} tf^H)_{aa}
  e^{-phi}, and its assembly into the curvature lower bound for the
  section functional, which integrates |Gamma|^2 against the Schur trace
  tr tt - tr(tf ff^{-1} tf^H).  Both read one fiber-block contraction on
  the nodes (``bergman.node_fiber_contraction``), evaluated once per
  (weight, t0) and, for a weight whose blocks are one broadcast matrix,
  on that one block.

Angular derivatives use FFT differentiation (exact for the trigonometric
polynomials a truncated kernel produces on each ring); radial derivatives
use the barycentric collocation matrix on the Gauss-Legendre rings (exact
for polynomials in r of degree below the ring count, which Gamma and
Lambda_a are on every ray: Berrut & Trefethen, SIAM Review 46, 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergman import BergmanBasis, SectionFamily, base_gram_jets, bergman_basis, \
    node_fiber_contraction, section_hessian
from .curvature import section_truncation, truncation_gate_at
from .fiber_numerics import QuadratureRule, monomial_analysis, monomial_synthesis
from .utils import as_complex_tuple
from .weights import WeightFamily, node_hessian, schur_from_contraction

__all__ = [
    "HormanderData",
    "HormanderBoundReport",
    "AssembledReport",
    "build_hormander_data",
    "orthogonality_residual",
    "dbar_identity_residual",
    "hormander_bound_check",
    "assembled_lower_bound",
]

# Fields below this times ||Gamma|| are round-off (an uncoupled direction
# leaves about 1e-16 ||Gamma||), whose relative residuals mean nothing.
ROUNDOFF_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class HormanderData:
    """Gamma, Lambda_a fields and the basis they were built on."""

    t0: tuple
    w: WeightFamily
    fam: SectionFamily
    basis: BergmanBasis
    gamma: np.ndarray = field(repr=False)
    lambdas: tuple = field(default=(), repr=False)  # one node array per base direction

    @property
    def quad(self) -> QuadratureRule:
        return self.basis.quad

    @property
    def node_measure(self) -> np.ndarray:
        """e^{-phi} times quadrature weights."""
        return self.basis.weight_vals * self.quad.weights


def _derivative_coefficients(w, b0, p, alpha):
    """Monomial coefficients ``-P d_aG p`` of ``d/dt_alpha`` of Gamma at t0."""
    C = b0.transform
    dG = base_gram_jets(w, b0.t, b0.N, b0.quad)[0][alpha]
    return -(C @ (C.conj().T @ (dG @ p)))


def build_hormander_data(
    w: WeightFamily,
    fam: SectionFamily,
    t0,
    N: int,
    quad: QuadratureRule,
    include_weight_term: bool = True,
) -> HormanderData:
    """Gamma and every Lambda_a at t0 from the basis there; without
    ``include_weight_term`` the Lambda_a are plain t-derivatives (the
    negative control of the dbar identity)."""
    t0 = as_complex_tuple(t0)
    fam.check_inside(quad.domain, t0)
    b0 = bergman_basis(w, t0, N, quad)
    pts = fam.sections_at(t0)
    truncation_gate_at(b0, pts)
    C = b0.transform
    p = C @ (C.conj().T @ np.conj(fam.amplitudes_at(t0) @ b0.monomials_at(pts)))
    coeffs = np.stack([p] + [_derivative_coefficients(w, b0, p, a) for a in range(w.n)])
    gamma, *lambdas = monomial_synthesis(b0.basis, coeffs, quad)  # one transform for all
    if include_weight_term:
        dphi = w.node_jets(t0, quad)[1]
        lambdas = [dK - dphi[a] * gamma for a, dK in enumerate(lambdas)]
    return HormanderData(t0, w, fam, b0, gamma, tuple(lambdas))


def _weighted_norm(vals: np.ndarray, measure: np.ndarray) -> float:
    return math.sqrt(float(np.sum(np.abs(vals) ** 2 * measure).real))


def orthogonality_residual(data: HormanderData) -> float:
    """max_i |<u_i, Lambda_a>| / ||Lambda_a||, worst over directions.

    Fields below ``ROUNDOFF_FLOOR * ||Gamma||`` count as zero.
    """
    b = data.basis
    measure = data.node_measure
    floor = ROUNDOFF_FLOOR * _weighted_norm(data.gamma, measure)
    worst = 0.0
    for lam in data.lambdas:
        norm = _weighted_norm(lam, measure)
        if norm <= floor:
            continue
        # |<lam, u_i>| = |(C^T conj(m))_i| over the frame u = C^T M, with the
        # monomial moments m = sum_x conj(M(x)) measure lam, whose analysis
        # sums without BLAS: at round-off level a thread-split sum would
        # carry the BLAS thread count into the report hash
        m = monomial_analysis(b.basis, measure * lam, data.quad)
        inner = b.transform.T @ np.conj(m)
        worst = max(worst, float(np.abs(inner).max()) / norm)
    return worst


def _radial_derivative_matrix(r: np.ndarray) -> np.ndarray:
    """Barycentric collocation first-derivative matrix on the nodes ``r``.

    ``D[i, j] = (w_j / w_i) / (r_i - r_j)`` with barycentric weights ``w_j =
    1 / prod_{k != j} (r_j - r_k)`` (taken in logs, so many rings neither
    overflow nor underflow), and rows summing to zero; exact for polynomials
    of degree below ``len(r)``.
    """
    diff = r[:, None] - r[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.log(np.abs(diff)).sum(axis=1)
    wts = np.prod(np.sign(diff), axis=1) * np.exp(logw - logw.max())
    D = wts[None, :] / wts[:, None] / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _angular_derivative(grid: np.ndarray, axis: int) -> np.ndarray:
    na = grid.shape[axis]
    modes = np.fft.fftfreq(na, d=1.0 / na)
    if na % 2 == 0:
        modes[na // 2] = 0.0  # drop the ambiguous Nyquist mode
    shape = [1] * grid.ndim
    shape[axis] = na
    return np.fft.ifft(np.fft.fft(grid, axis=axis) * (1j * modes).reshape(shape), axis=axis)


def dbar_coordinate(vals: np.ndarray, quad: QuadratureRule, coord: int) -> np.ndarray:
    """d/d(conj xi_coord) of node values via polar-grid differentiation.

    Radial: the collocation matrix on the Gauss-Legendre rings.  Angular:
    FFT differentiation, exact below the Nyquist mode.  In polar
    coordinates  d/d(conj xi) = (e^{i theta}/2)(d/dr + (i/r) d/dtheta).
    """
    g = quad.grid_view(np.asarray(vals, dtype=complex))
    axis_r, axis_t = 2 * coord, 2 * coord + 1
    nr, na = quad.shape[coord]
    r = quad.radial_nodes[coord]
    D = _radial_derivative_matrix(r)
    dr = np.moveaxis(np.tensordot(D, np.moveaxis(g, axis_r, 0), axes=(1, 0)), 0, axis_r)
    dt = _angular_derivative(g, axis_t)
    rshape = [1] * g.ndim
    rshape[axis_r] = nr
    tshape = [1] * g.ndim
    tshape[axis_t] = na
    theta = (2 * np.pi * np.arange(na) / na).reshape(tshape)
    rr = r.reshape(rshape)
    out = 0.5 * np.exp(1j * theta) * (dr + 1j / rr * dt)
    return out.reshape(-1)


def dbar_identity_residual(data: HormanderData) -> float:
    """Relative L2 defect of  dbar Lambda_a + Gamma * (mixed Hessian row).

    The norm runs over all nodes; the scale is ||Gamma|| times the largest
    mixed-Hessian entry (falling back to ||Gamma|| itself for weights with
    no base-fiber coupling, where both sides vanish).
    """
    w, quad = data.w, data.quad
    measure = data.node_measure
    _tt, tf, _ff = node_hessian(w, data.t0, quad)
    gnorm = _weighted_norm(data.gamma, measure)
    worst = 0.0
    for a, lam in enumerate(data.lambdas):
        defect2 = 0.0
        coupling = 0.0
        for c in range(w.d):
            lhs = dbar_coordinate(lam, quad, c)
            rhs = data.gamma * tf[:, a, c]
            defect2 += np.sum(np.abs(lhs + rhs) ** 2 * measure).real
            coupling = max(coupling, float(np.abs(tf[:, a, c]).max()))
        scale = gnorm * coupling
        if scale < 1e-14 * max(gnorm, 1.0):
            scale = max(gnorm, 1e-300)
        worst = max(worst, math.sqrt(defect2) / scale)
    return worst


@dataclass(frozen=True)
class HormanderBoundReport:
    """Per-direction L2 bound lhs = ||Lambda_a||^2 vs the kernel-weighted rhs."""

    t0: tuple
    lhs: tuple
    rhs: tuple
    ratios: tuple
    max_ratio: float


def hormander_bound_check(data: HormanderData) -> HormanderBoundReport:
    """||Lambda_a||^2 <= int |Gamma|^2 (tf ff^{-1} tf^H)_aa e^{-phi} per direction.

    Directions whose rhs vanishes below the numerical floor contribute
    ratio 0 when the lhs vanishes with them (separable weights), and a
    genuine violation otherwise.  The contraction is the memoized
    :func:`bergman.node_fiber_contraction`, which raises
    :class:`weights.FiberDegenerateError` where a fiber block is not
    positive definite.
    """
    measure = data.node_measure
    contraction = node_fiber_contraction(data.w, data.t0, data.quad)  # (M, n), >= 0
    gamma2 = np.abs(data.gamma) ** 2 * measure
    floor = 1e-12 * float(np.sum(gamma2).real)
    lhs_list, rhs_list, ratio_list = [], [], []
    for a, lam in enumerate(data.lambdas):
        lhs = float(np.sum(np.abs(lam) ** 2 * measure).real)
        rhs = float(np.sum(gamma2 * contraction[:, a]).real)
        if rhs <= floor:
            ratio = 0.0 if lhs <= floor else math.inf
        else:
            ratio = lhs / rhs
        lhs_list.append(lhs)
        rhs_list.append(rhs)
        ratio_list.append(ratio)
    return HormanderBoundReport(
        t0=data.t0,
        lhs=tuple(lhs_list),
        rhs=tuple(rhs_list),
        ratios=tuple(ratio_list),
        max_ratio=max(ratio_list) if ratio_list else 0.0,
    )


@dataclass(frozen=True)
class AssembledReport:
    """The assembled curvature lower bound at one base point.

    chain1: trace of the (exact) Hessian of B_t<a,a> >= int |Gamma|^2 *
    (Schur trace of the weight Hessian) * e^{-phi}; chain2: that integral
    >= n * eps0 * B(t0).
    """

    t0: tuple
    lhs_trace: float
    rhs_integral: float
    B0: float
    eps0: float
    chain1_margin: float
    chain2_margin: float
    tolerance: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.chain1_margin >= -self.tolerance and self.chain2_margin >= -self.tolerance


def assembled_lower_bound(data: HormanderData, tolerance: float, eps0: float) -> AssembledReport:
    """The assembled chain at ``data.t0``, at the degree and on the rule the
    fields were built on, with the truncation gate of the section checks
    and ``tolerance`` scaled by ``max(1, B(t0))``.  The Schur trace on the
    nodes is ``Re tr tt`` minus the fiber-block contraction that
    :func:`hormander_bound_check` reads, from the same memo."""
    w, fam, t0, N, quad = data.w, data.fam, data.t0, data.basis.N, data.quad
    full, gap = section_truncation(w, fam, t0, N, quad)
    measure = data.node_measure
    contraction = node_fiber_contraction(w, t0, quad)
    schur = schur_from_contraction(w.node_jets(t0, quad)[2], contraction)
    rhs = float(np.sum(np.abs(data.gamma) ** 2 * schur * measure).real)
    B0_repro = float(np.sum(np.abs(data.gamma) ** 2 * measure).real)
    lhs = float(np.real(np.trace(section_hessian(w, fam, t0, N, quad).hessian)))
    tol = tolerance * max(1.0, full)
    return AssembledReport(
        t0=t0,
        lhs_trace=lhs,
        rhs_integral=rhs,
        B0=full,
        eps0=eps0,
        chain1_margin=lhs - rhs,
        chain2_margin=rhs - w.n * eps0 * full,
        tolerance=tol,
        diagnostics={
            "B0_reproduced": B0_repro,
            "reproduction_gap": abs(full - B0_repro) / max(full, 1e-300),
            "convergence_gap": gap,
        },
    )
