"""Fiberwise Bergman kernels, section functionals, direct-image Grams.

At a fixed base point ``t`` the weighted Hilbert space is the span of the
monomials of degree <= N with inner product ``<f, g> = int f conj(g)
exp(-phi(t, .))``.  The orthonormalizing transform C of the Gram matrix G
(satisfying ``C^H G C = I``) yields the orthonormal frame ``u(x) = C^T
M(x)`` over the monomial column ``M(x)`` and the kernel

    K(z, w) = sum_i u_i(z) conj(u_i(w)) = M(z)^T (C C^H) conj(M(w)),

with ``C C^H = G^{-1}``.  G is accepted when every Cholesky pivot clears
a fixed fraction of its own diagonal entry (``fiber_numerics.orthonormalize``),
a test blind to the scale of the monomials, so a fiber of any radius is
taken as it is.  Everything downstream (extremal values, section
functionals, the fields of the L2-estimate step) is linear algebra over
these objects.

Truncation bookkeeping: since C is triangular in the graded monomial
order, its leading principal block orthonormalizes the degree-(N-2)
sub-basis for free, which is how convergence of kernel diagonals in the
degree is diagnosed without a second Gram build.

Nothing here evaluates monomials or polynomials on the quadrature nodes:
every Gram, of the basis and of a determinant frame alike, is assembled
ring by ring from the weight values, node values of a coefficient vector
such as a kernel column are synthesized ring by ring
(``fiber_numerics.monomial_synthesis``), and so are those of a coefficient
matrix such as the inverse Gram behind the log-kernel weights of the
iteration (``fiber_numerics.ring_synthesis``).  Monomial values are taken
only at small point sets (sections, probes, samples).

Base Hessians of the section functional are exact.  With ``u(t) = sum_i
a_i(t) M(s_i(t))`` (holomorphic in t) and ``P = G^{-1} = C C^H``,
``B_t<a, a> = u^T P conj(u)``.  The nodes do not move with t, so the base
derivatives of G are ring Grams of the differentiated measure,

    d_a G        = Gram of  -d_a phi * exp(-phi) * w,
    d_a dbar_b G = Gram of  (d_a phi * dbar_b phi - d_a dbar_b phi) * exp(-phi) * w,

with ``dbar_b G = (d_b G)^H``; ``d_a P = -P d_aG P`` and ``dbar_b d_a P =
P dbar_bG P d_aG P + P d_aG P dbar_bG P - P d_a dbar_bG P``.  In the frame
coordinates ``v = C^H conj(u)``, ``p = C v``, ``e_a = C^H conj(d_a u)``,
``g_a = C^H d_aG p`` and ``h_a = C^H (d_aG)^H p`` this gives

    d_a B         = (e_a - h_a)^H v,
    d_a dbar_b B  = (e_a - h_a)^H (e_b - h_b) + g_b^H g_a - p^H d_a dbar_bG p,

the discrete form of the curvature formula for direct images (Berndtsson,
Ann. of Math. 169, 2009).  It is the exact Hessian of the same discrete
functional that a finite-difference stencil of :func:`section_value`
differences, from one basis build, ``n`` Grams ``d_a G`` and ``n(n+1)/2``
Grams ``d_a dbar_b G``; the weight derivatives are the weight's node jets
(``WeightFamily.node_jets``: phi, ``d_a phi`` and the base block).

The same ``d_a G`` gives the Hormander fields (see ``hormander``).  A
determinant frame with monomial coefficients ``A`` has the Gram ``A^H G
A`` and the base derivatives ``A^H d_aG A`` and ``A^H d_a dbar_bG A``,
which give the exact Hessian of ``-log det`` against one Cholesky factor of
the frame Gram at the point asked for, under the basis Gram's pivot rule
(building the frame evaluates nothing); and ``d_a G``
with ``d_a dbar_b G`` give the base derivatives of ``P`` behind the
log-kernel jets of the iteration (see ``iteration``).

Every result here goes through the one memo of the rule,
``QuadratureRule.memoize``, owned by the weight: the basis ``("basis", t,
N)``, whose value ``(basis, C, G, weight values)`` each
:func:`bergman_basis` call wraps; all ``d_a G`` and ``d_a dbar_b G``,
``("gram_jets", t, N)`` (:func:`base_gram_jets`), which the section
Hessian, the Hormander fields, the determinant Hessian and the first
log-kernel jets of the iteration share; the section Hessian
``("section_hessian", sections, t, N)``; and the contraction
``("fiber_contraction", t)`` (:func:`node_fiber_contraction`) that the L2
bound and the assembled chain read.  They read the weight's own memoized
node fields (``weights``), so every check of a scenario reads each of them
once per rule, and a repeated call returns the same read-only arrays, hence
bitwise the same numbers.  The ring Gram under ``fiber_numerics.gram_matrix``
and its factorization (``ring_gram``, ``orthonormalize``), the Gram jets
(:func:`gram_jet_arrays`) and the truncation gaps (:func:`truncation_gaps`)
are array functions under the memo, which the iteration's steps call on a
measure and node jets of their own, storing nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exprs import expand_holomorphic_polynomial, parse_expr
from .fiber_numerics import (
    MonomialBasis,
    QuadratureRule,
    cholesky_factor,
    gram_matrix,
    monomial_basis,
    monomial_gradient,
    monomial_synthesis,
    orthonormalize,
    ring_gram,
    vandermonde,
)
from .utils import as_complex_tuple
from .weights import BasePatch, WeightFamily, _as_fiber_array, fiber_contraction, node_hessian

__all__ = [
    "HoloPoly",
    "SectionFamily",
    "BergmanBasis",
    "SectionHessian",
    "DirectImageGram",
    "SectionOutsideDomainError",
    "bergman_basis",
    "kernel_eval",
    "reproducing_residual",
    "extremal_check",
    "section_value",
    "section_value_pair",
    "section_hessian",
    "truncation_gaps",
    "node_fiber_contraction",
    "gram_jet_arrays",
    "base_gram_jets",
    "direct_image_gram",
]

SECTION_MARGIN = 0.05
SECTION_MAX_DEGREE = 4


class SectionOutsideDomainError(ValueError):
    """A section left the fiber domain (or its safety margin)."""


@dataclass(frozen=True)
class HoloPoly:
    """Holomorphic polynomial in ``nvars`` complex variables (sparse)."""

    nvars: int
    coeffs: dict

    def __post_init__(self):
        clean = {}
        for exp, c in self.coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {self.nvars} variables")
            if c != 0:
                clean[exp] = complex(c)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def constant(cls, value: complex, nvars: int = 1) -> "HoloPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def from_text(cls, text: str, variables: tuple[str, ...]) -> "HoloPoly":
        expr = parse_expr(text, variables)
        return cls(len(variables), expand_holomorphic_polynomial(expr, variables))

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    @property
    def key(self) -> tuple:
        """Hashable value of the polynomial (exponents are unique)."""
        return (self.nvars, tuple(sorted(self.coeffs.items())))

    def derivative(self, var: int) -> "HoloPoly":
        """d/d(variable ``var``)."""
        out = {}
        for exp, c in self.coeffs.items():
            if exp[var]:
                lowered = exp[:var] + (exp[var] - 1,) + exp[var + 1 :]
                out[lowered] = c * exp[var]
        return HoloPoly(self.nvars, out)

    def __call__(self, point):
        pts = np.asarray(point, dtype=complex)
        if pts.ndim == 0:
            pts = pts.reshape(1)
        if pts.shape[-1] != self.nvars:
            raise ValueError(f"point has {pts.shape[-1]} coordinates, expected {self.nvars}")
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for exp, c in self.coeffs.items():
            term = np.full(pts.shape[:-1], c, dtype=complex)
            for a, e in enumerate(exp):
                if e:
                    term = term * pts[..., a] ** e
            out = out + term
        return complex(out) if out.shape == () else out


def _outside_error(i: int, point, t) -> SectionOutsideDomainError:
    return SectionOutsideDomainError(
        f"section {i} evaluates to {point.tolist()} at t={t}, outside the "
        f"fiber domain (margin {SECTION_MARGIN})"
    )


@dataclass(frozen=True)
class SectionFamily:
    """Sections s_i: base -> fiber with scalar amplitudes a_i(t).

    Both are polynomial in t of degree <= 4; together they define the
    Hermitian section functional  B_t<a, a> = sum a_i(t) conj(a_j(t))
    K_t(s_i(t), s_j(t)).
    """

    base_dim: int
    fiber_dim: int
    sections: tuple  # r entries, each a tuple of fiber_dim HoloPoly's in t
    amplitudes: tuple  # r HoloPoly's in t

    def __post_init__(self):
        if len(self.sections) != len(self.amplitudes):
            raise ValueError("need one amplitude per section")
        if not self.sections:
            raise ValueError("empty section family")
        for s in self.sections:
            if len(s) != self.fiber_dim:
                raise ValueError("section component count must equal fiber_dim")
            for comp in s:
                if comp.nvars != self.base_dim:
                    raise ValueError("section components are polynomials in the base variables")
                if comp.degree > SECTION_MAX_DEGREE:
                    raise ValueError(f"section degree {comp.degree} exceeds {SECTION_MAX_DEGREE}")
        for a in self.amplitudes:
            if a.nvars != self.base_dim:
                raise ValueError("amplitudes are polynomials in the base variables")
            if a.degree > SECTION_MAX_DEGREE:
                raise ValueError(f"amplitude degree {a.degree} exceeds {SECTION_MAX_DEGREE}")

    @property
    def rank(self) -> int:
        return len(self.sections)

    @classmethod
    def constant(cls, points, amps=None, base_dim: int = 1) -> "SectionFamily":
        """Family of t-independent sections at the given fiber points."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        r, d = pts.shape
        if amps is None:
            amps = [1.0] * r
        sections = tuple(
            tuple(HoloPoly.constant(pts[i, a], base_dim) for a in range(d)) for i in range(r)
        )
        amplitudes = tuple(HoloPoly.constant(complex(a), base_dim) for a in amps)
        return cls(base_dim, d, sections, amplitudes)

    def sections_at(self, t) -> np.ndarray:
        t = np.asarray(as_complex_tuple(t))
        return np.array([[comp(t) for comp in s] for s in self.sections], dtype=complex)

    def amplitudes_at(self, t) -> np.ndarray:
        t = np.asarray(as_complex_tuple(t))
        return np.array([a(t) for a in self.amplitudes], dtype=complex)

    @property
    def key(self) -> tuple:
        """Hashable value of the family, for memo keys."""
        return (
            tuple(tuple(comp.key for comp in s) for s in self.sections),
            tuple(a.key for a in self.amplitudes),
        )

    def derivatives_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Base derivatives at t: ``d a_i / dt_k`` with shape (r, n) and
        ``d s_ic / dt_k`` with shape (r, d, n)."""
        t = np.asarray(as_complex_tuple(t))
        n = self.base_dim
        damps = [[a.derivative(k)(t) for k in range(n)] for a in self.amplitudes]
        dsecs = [[[comp.derivative(k)(t) for k in range(n)] for comp in s] for s in self.sections]
        return np.array(damps, dtype=complex), np.array(dsecs, dtype=complex)

    def check_inside(self, domain, t):
        """Every section at ``t`` lies in ``domain`` by :data:`SECTION_MARGIN`."""
        pts = self.sections_at(t)
        ok = domain.contains(pts, margin_frac=SECTION_MARGIN)
        if not ok.all():
            i = int(np.argmin(ok))
            raise _outside_error(i, pts[i], t)

    def validate_on_patch(self, domain, patch: BasePatch):
        """Check the margin invariant over a deterministic patch sample.

        Every section is evaluated on the whole sample at once; the error
        names the first failing (sample, section) pair in sample order.
        """
        ts = patch.sample(angles=8)
        pts = np.stack([np.stack([comp(ts) for comp in s], axis=-1) for s in self.sections], axis=1)
        ok = domain.contains(pts, margin_frac=SECTION_MARGIN)  # (samples, sections)
        if not ok.all():
            k, i = np.unravel_index(int(np.argmin(ok)), ok.shape)
            raise _outside_error(int(i), pts[k, i], as_complex_tuple(ts[k]))


@dataclass(frozen=True, eq=False)
class BergmanBasis:
    """Orthonormalized truncated basis at one base point.

    The arrays are read-only: they are shared with the quadrature rule's
    memo and with every other basis built for the same key.
    """

    t: tuple
    N: int
    basis: MonomialBasis
    transform: np.ndarray = field(repr=False)
    gram: np.ndarray = field(default=None, repr=False)
    quad: QuadratureRule = field(default=None, repr=False)
    weight_vals: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def monomials_at(self, points) -> np.ndarray:
        """Monomial values, (dim,) at one fiber point, else (M, dim)."""
        pts, single = _as_fiber_array(points, self.basis.fiber_dim)
        V = vandermonde(self.basis, pts)
        return V[0] if single else V

    def orthonormal_at(self, points) -> np.ndarray:
        """Values of the orthonormal frame, shape (..., dim)."""
        return self.monomials_at(points) @ self.transform

    def _point(self, w) -> np.ndarray:
        """One fiber point ``w``, also a shape-(1,) row of :meth:`SectionFamily.sections_at`,
        as :meth:`monomials_at` reads one point: a scalar, or a ``(2,)`` vector."""
        return np.reshape(np.asarray(w, dtype=complex), (2,) if self.basis.fiber_dim == 2 else ())

    def kernel_coefficients(self, w) -> np.ndarray:
        """Monomial coefficient vector of the holomorphic function K(., w)."""
        Mw = self.monomials_at(self._point(w))
        return self.transform @ (self.transform.conj().T @ np.conj(Mw))

    def kernel_column(self, w) -> np.ndarray:
        """K(node, w) over all quadrature nodes, synthesized ring by ring."""
        return monomial_synthesis(self.basis, self.kernel_coefficients(w), self.quad)

    def kernel_diag(self, w) -> float:
        """K(w, w) at one fiber point ``w``."""
        return float(np.sum(np.abs(self.orthonormal_at(self._point(w))) ** 2))

    def diag_convergence_gap(self, w, rows=None) -> np.ndarray:
        """:func:`truncation_gaps` at each fiber point of ``w`` (0-d at one
        point); ``rows``, when given, are the monomial values ``M(w)`` (M,
        dim), evaluated already."""
        M = self.monomials_at(w) if rows is None else rows
        return truncation_gaps(M, self.transform, self.basis, self.N)


def truncation_gaps(M: np.ndarray, C: np.ndarray, basis: MonomialBasis, N: int) -> np.ndarray:
    """Relative change of K(w,w) from degree N-2 to N at the fiber points
    whose monomial values are ``M`` (..., dim), for the degree-N basis with
    transform ``C``, from one frame evaluation: the transform is upper
    triangular, so the leading ``truncated_dim(N-2)`` entries of ``u = M C``
    are the frame of the degree-(N-2) sub-basis.  A kernel beyond the
    double range gives a gap that is not finite, quietly
    (``curvature.truncation_gate``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        u2 = np.abs(M @ C) ** 2
        full = np.sum(u2, axis=-1)
        sub = np.sum(u2[..., : basis.truncated_dim(max(N - 2, 0))], axis=-1)
        return np.abs(full - sub) / np.maximum(np.abs(full), 1e-300)


def node_fiber_contraction(w: WeightFamily, t, quad: QuadratureRule) -> np.ndarray:
    """Read-only ``(tf ff^{-1} tf^H)_aa`` on the nodes, shape (nodes, n):
    :func:`weights.fiber_contraction` of the memoized blocks of
    :func:`weights.node_hessian`, memoized per base point like them.  A
    non-positive fiber block raises :class:`weights.FiberDegenerateError`."""
    t = as_complex_tuple(t)

    def compute():
        _tt, tf, ff = node_hessian(w, t, quad)
        return fiber_contraction(tf, ff, f"on the quadrature nodes at t = {t}")[0]

    return quad.memoize(w, ("fiber_contraction", t), compute)


def gram_jet_arrays(basis: MonomialBasis, mu: list, dphi, tt, quad: QuadratureRule) -> tuple:
    """``(dG, ddG)`` over ``basis``, shapes (n, dim, dim) and (n, n, dim, dim):
    ``dG[a] = d_a G`` is the ring Gram of ``-d_a phi * mu`` and ``ddG[a, c] =
    d_a dbar_c G`` that of ``(d_a phi dbar_c phi - tt_ac) * mu``, assembled
    for ``a <= c``, with ``ddG[c, a] = ddG[a, c]^H``, from the node jets
    ``dphi`` (n, nodes) and ``tt`` (nodes, n, n) and ``mu = exp(-phi) * w``,
    handed over as the one item of the list ``mu``.  Each measure is formed
    in one node-sized buffer, which its Gram consumes, the real (``a = c``)
    ones first; ``mu`` is freed as the last is formed."""
    n, dim = len(dphi), basis.dim

    def measure(a, c):  # in one buffer, which its ring Gram consumes
        if c is None:
            m = np.negative(dphi[a])
        elif c == a:  # real: its Gram takes the half spectrum
            m = np.square(dphi[a].real)
            m += np.square(dphi[a].imag)
            m -= tt[:, a, a].real
        else:
            m = np.conj(dphi[c])
            np.multiply(dphi[a], m, out=m)
            m -= tt[:, a, c]
        m *= mu.pop() if (a, c) == keys[-1] else mu[0]
        return [m]  # handed over: no other reference outlives this call

    keys = [(a, a) for a in range(n)] + [(a, c) for a in range(n) for c in range(a + 1, n)]
    keys += [(a, None) for a in range(n)]  # the real measures first
    dG = np.empty((n, dim, dim), dtype=complex)
    ddG = np.empty((n, n, dim, dim), dtype=complex)
    for a, c in keys:
        G = ring_gram(basis, measure(a, c), quad, _consume=True)
        if c is None:
            dG[a] = G
        else:
            ddG[a, c] = G
            if c != a:
                ddG[c, a] = G.conj().T
    return dG, ddG


def base_gram_jets(w: WeightFamily, t, N: int, quad: QuadratureRule) -> tuple:
    """Read-only ``(dG, ddG)`` of :func:`gram_jet_arrays` at t over the
    degree-N monomials, from the weight's node jets and ``exp(-phi) * w``:
    one memo entry per (weight, t, N), read by the section Hessian, the
    Hormander fields, the determinant Hessian and the first potential of
    the iteration."""
    t = as_complex_tuple(t)

    def compute():
        mu = [w.weight_values(t, quad) * quad.weights]  # the last measure pops it
        _phi, dphi, tt = w.node_jets(t, quad)
        return gram_jet_arrays(monomial_basis(N, quad.domain.dim), mu, dphi, tt, quad)

    return quad.memoize(w, ("gram_jets", t, N), compute)


def bergman_basis(w: WeightFamily, t, N: int, quad: QuadratureRule) -> BergmanBasis:
    """Orthonormalized degree-N basis for the weight slice phi(t, .).

    Built once per (weight, t, N) and quadrature rule; later calls wrap the
    memoized arrays (see the module docstring).  A collapsed Cholesky pivot
    raises ``fiber_numerics.DegenerateBasisError``; failed builds are not
    memoized, so they raise again.
    """
    t = as_complex_tuple(t)

    def compute():
        basis = monomial_basis(N, quad.domain.dim)
        weight_vals = w.weight_values(t, quad)
        G = gram_matrix(basis, weight_vals, quad)
        return basis, orthonormalize(G, basis.exponents), G, weight_vals

    basis, C, G, weight_vals = quad.memoize(w, ("basis", t, N), compute)
    return BergmanBasis(
        t=t,
        N=N,
        basis=basis,
        transform=C,
        gram=G,
        quad=quad,
        weight_vals=weight_vals,
    )


def kernel_eval(b: BergmanBasis, z, w) -> complex:
    """K(z, w) = sum_i u_i(z) conj(u_i(w)), at one fiber point each."""
    uz = b.orthonormal_at(b._point(z))
    uw = b.orthonormal_at(b._point(w))
    return complex(np.sum(uz * np.conj(uw)))


def reproducing_residual(b: BergmanBasis, h, w) -> float:
    """|h(w) - <h, K(., w)>| for h in the truncated space.

    ``h`` takes one argument per fiber coordinate: the grids of the rule the
    basis was built on, whose broadcast it returns on, and the coordinates
    of ``w``.  The inner product is evaluated by quadrature against the
    stored weight values, so this measures quadrature + orthonormalization
    error, not algebraic identity.
    """
    quad = b.quad
    if not callable(h):
        raise TypeError("h must be callable on fiber coordinates")
    h_nodes = np.broadcast_to(h(*quad.grids), quad.grid_shape).reshape(-1)
    h_at_w = h(*np.atleast_1d(w))
    col = b.kernel_column(w)
    integral = np.sum(h_nodes * np.conj(col) * b.weight_vals * quad.weights)
    return float(abs(h_at_w - integral))


def extremal_check(b: BergmanBasis, w) -> tuple[float, float]:
    """Kernel diagonal vs. the extremal value sup{|u(w)|^2 : ||u|| = 1}.

    The sup equals the squared norm of the evaluation functional, computed
    here through the Gram solve M(w)^T G^{-1} conj(M(w)) — an independent
    route from the transform-based diagonal.
    """
    diag = b.kernel_diag(w)
    Mw = b.monomials_at(b._point(w))
    y = np.linalg.solve(b.gram, np.conj(Mw))
    extremal = float(np.real(Mw @ y))
    return diag, extremal


def section_value(w: WeightFamily, fam: SectionFamily, t, N: int, quad: QuadratureRule) -> float:
    """The Hermitian section functional B_t<a, a> (a squared dual norm)."""
    return section_value_pair(w, fam, t, N, quad)[0]


def section_value_pair(
    w: WeightFamily, fam: SectionFamily, t, N: int, quad: QuadratureRule
) -> tuple[float, float]:
    """(value at degree N, value at degree N-2) from a single basis build:
    ``sum_i a_i(t) u(s_i(t))`` in the orthonormal frame, and its leading
    degree-(N-2) entries (the transform is upper triangular), from one
    frame evaluation at the sections; quiet where the kernel is beyond the
    double range, as :meth:`BergmanBasis.diag_convergence_gap` is."""
    t = as_complex_tuple(t)
    fam.check_inside(quad.domain, t)
    b = bergman_basis(w, t, N, quad)
    with np.errstate(over="ignore", invalid="ignore"):
        v2 = np.abs(fam.amplitudes_at(t) @ b.orthonormal_at(fam.sections_at(t))) ** 2
    return float(np.sum(v2)), float(np.sum(v2[: b.basis.truncated_dim(max(N - 2, 0))]))


class SectionHessian(NamedTuple):
    """``B_t<a, a>`` at one base point with its exact base derivatives.

    ``grad[a] = d B / dt_a`` and ``hessian[a, b] = d^2 B / dt_a dt_b-bar``
    (Hermitian), the convention of the finite-difference Hessians.
    """

    t: tuple
    B: float
    grad: np.ndarray
    hessian: np.ndarray

    @property
    def log_hessian(self) -> np.ndarray:
        """``d^2 log B / dt_a dt_b-bar = H / B - grad grad^H / B^2``."""
        if self.B <= 0:
            raise ArithmeticError(f"section functional vanishes at t={self.t}; log B is undefined")
        g = self.grad / self.B
        return self.hessian / self.B - np.outer(g, g.conj())


def section_hessian(
    w: WeightFamily, fam: SectionFamily, t, N: int, quad: QuadratureRule
) -> SectionHessian:
    """Exact base gradient and Hessian of ``B_t<a, a>`` at ``t``.

    One basis build at ``t`` plus the ring Grams of the differentiated
    measures (see the module docstring); memoized per (weight, sections,
    ``t``, ``N``) on the quadrature rule.
    """
    t = as_complex_tuple(t)

    def compute():
        fam.check_inside(quad.domain, t)
        b = bergman_basis(w, t, N, quad)
        C, n = b.transform, w.n
        pts, amps = fam.sections_at(t), fam.amplitudes_at(t)
        damps, dsecs = fam.derivatives_at(t)
        M = b.monomials_at(pts)  # (r, dim)
        dM = monomial_gradient(b.basis, pts)  # (r, d, dim)
        u = amps @ M
        du = damps.T @ M + np.einsum("i,ick,icj->kj", amps, dsecs, dM)  # (n, dim)
        Ch = C.conj().T
        v = Ch @ np.conj(u)
        p = C @ v
        e = np.conj(du) @ np.conj(C)  # rows C^H conj(d_a u)

        dG, ddG = base_gram_jets(w, t, N, quad)
        g = np.array([Ch @ (G @ p) for G in dG])
        eh = e - np.array([Ch @ (G.conj().T @ p) for G in dG])
        H = np.empty((n, n), dtype=complex)
        for a in range(n):
            for c in range(a, n):
                H[a, c] = np.vdot(eh[a], eh[c]) + np.vdot(g[c], g[a]) - np.vdot(p, ddG[a, c] @ p)
                H[c, a] = np.conj(H[a, c])
        H[np.diag_indices(n)] = H.diagonal().real
        B = float(np.vdot(v, v).real)
        if not (math.isfinite(B) and np.all(np.isfinite(H))):
            raise ArithmeticError(f"section functional or its Hessian is not finite at t={t}")
        return SectionHessian(t=t, B=B, grad=eh.conj() @ v, hessian=H)

    return quad.memoize(w, ("section_hessian", fam.key, t, N), compute)


@dataclass(frozen=True, eq=False)
class DirectImageGram:
    """Gram field t -> G(t) of a fixed fiber-holomorphic frame.

    G(t)[j, k] pairs frame element k against the conjugate of element j in
    the weighted fiber inner product at t, the matrix of the varying L2
    metric in the frame: ``A^H G A`` with ``G`` the :func:`gram_matrix` of
    ``basis``, the monomials up to the frame's degree, and ``A`` the frame's
    coefficients.  A dependent frame shows where G(t) is factored.
    """

    w: WeightFamily
    frame: tuple  # HoloPoly's in the fiber variables
    quad: QuadratureRule
    basis: MonomialBasis = field(default=None, repr=False)
    coeffs: np.ndarray = field(default=None, repr=False)  # A, shape (basis.dim, rank)

    @property
    def rank(self) -> int:
        return len(self.frame)

    def _in_frame(self, gram: np.ndarray) -> np.ndarray:
        return self.coeffs.conj().T @ gram @ self.coeffs

    def gram_at(self, t) -> np.ndarray:
        wv = self.w.weight_values(t, self.quad)
        G = self._in_frame(gram_matrix(self.basis, wv, self.quad))
        return 0.5 * (G + G.conj().T)

    def factor(self, t) -> np.ndarray:
        """Lower Cholesky factor ``L`` of G(t) under the basis Gram's pivot
        rule (``fiber_numerics.cholesky_factor``): a pivot at or below
        ``PIVOT_RTOL`` times its own diagonal entry raises
        ``DegenerateBasisError`` naming the frame element."""
        return cholesky_factor(self.gram_at(t), lambda j: f"frame element {j + 1} of {self.rank}",
                               f"frame numerically dependent at t={as_complex_tuple(t)}")

    def neg_log_det(self, t) -> float:
        """-log det G(t) = -2 sum log diag L: the local potential of the
        determinant metric."""
        return -2.0 * float(np.sum(np.log(np.real(np.diag(self.factor(t))))))

    def neg_log_det_hessian(self, t) -> np.ndarray:
        """Exact ``d_a dbar_b (-log det G)`` at t (Hermitian, n x n), Berndtsson's
        direct-image curvature restricted to the frame:

            -d_a dbar_b log det G = tr(G^-1 d_aG G^-1 (d_bG)^H) - tr(G^-1 d_a dbar_bG)

        with ``d_a G`` and ``d_a dbar_b G`` those of the module docstring in
        the frame.  With ``G = L L^H`` and ``X_a = L^-1 d_aG L^-H`` the first
        trace is ``sum X_a * conj(X_b)`` and the second ``tr(L^-1 d_a dbar_bG
        L^-H)``, all against the one factor of :meth:`factor`.
        """
        t = as_complex_tuple(t)
        Li = np.linalg.inv(self.factor(t))
        dG, ddG = base_gram_jets(self.w, t, self.basis.max_degree, self.quad)
        X = [Li @ self._in_frame(D) @ Li.conj().T for D in dG]
        n = self.w.n
        H = np.empty((n, n), dtype=complex)
        for a in range(n):
            for b in range(a, n):
                Y = Li @ self._in_frame(ddG[a, b]) @ Li.conj().T
                H[a, b] = np.sum(X[a] * X[b].conj()) - np.trace(Y)
                H[b, a] = np.conj(H[a, b])
        H[np.diag_indices(n)] = H.diagonal().real
        return H


def direct_image_gram(w: WeightFamily, frame, quad: QuadratureRule) -> DirectImageGram:
    """The Gram field of ``frame``.  Nothing is evaluated here: a dependent
    frame raises where it is factored (:meth:`DirectImageGram.factor`)."""
    frame = tuple(frame)
    if not frame:
        raise ValueError("empty frame")
    basis = monomial_basis(max(f.degree for f in frame), quad.domain.dim)
    if any(f.nvars != basis.fiber_dim for f in frame):
        raise ValueError(f"frame polynomials must be in the {basis.fiber_dim} fiber variables")
    A = np.array([[f.coeffs.get(e, 0) for f in frame] for e in basis.exponents], dtype=complex)
    return DirectImageGram(w=w, frame=frame, quad=quad, basis=basis, coeffs=A)
