"""Fiberwise Bergman kernels, section functionals, direct-image Grams.

At a fixed base point ``t`` the weighted Hilbert space is the span of the
monomials of degree <= N with inner product ``<f, g> = int f conj(g)
exp(-phi(t, .))``.  The orthonormalizing transform C of the Gram matrix G
(satisfying ``C^H G C = I``) yields the orthonormal frame ``u(x) = C^T
M(x)`` over the monomial column ``M(x)`` and the kernel

    K(z, w) = sum_i u_i(z) conj(u_i(w)) = M(z)^T (C C^H) conj(M(w)),

with ``C C^H = G^{-1}``.  Everything downstream (extremal values, section
functionals, the fields of the L2-estimate step) is linear algebra over
these objects.

Truncation bookkeeping: since C is triangular in the graded monomial
order, its leading principal block orthonormalizes the degree-(N-2)
sub-basis for free, which is how convergence of kernel diagonals in the
degree is diagnosed without a second Gram build.

Nothing here evaluates monomials on the quadrature nodes: the Gram is
assembled ring by ring from the weight values, node values of a
coefficient vector such as a kernel column are synthesized ring by ring
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
Grams ``d_a dbar_b G``; the weight derivatives come from the weight's own
``grad_base`` and Hessian blocks on the nodes.

The same ``d_a G`` gives the Hormander fields (see ``hormander``), the
frame Grams of the same measures give the exact Hessian of ``-log det G``,
and ``d_a G`` with ``d_a dbar_b G`` give the base derivatives of ``P`` behind
the log-kernel jets of the iteration (see ``iteration``).

Basis builds are memoized on the quadrature rule, keyed by (weight object,
base point, degree): every check of a scenario reads the basis at ``t0``,
so each point's Gram and transform are computed once per rule.  Section
Hessians are memoized the same way, keyed by (sections, base point,
degree), and so are each ``d_a G`` and ``d_a dbar_b G``, keyed by (base
point, degree, directions), which the section Hessian, the Hormander
fields and the log-kernel jets share.
The weight values ``exp(-phi)``, the node values of ``d_a phi`` and the
Hessian blocks of phi on the nodes (:func:`node_hessian`) do not depend on
the degree, so they are memoized by base point alone and shared with the
direct-image Grams of the determinant check and the Hormander residuals;
so is the fiber-block contraction ``(tf ff^{-1} tf^H)_aa`` of those blocks
(:func:`node_fiber_contraction`), which the L2 bound and the assembled
chain both read.
The memo holds only those read-only arrays, weakly keyed by the weight,
so an entry lives no longer than its weight or its rule (one rule per
scenario run) unless released earlier (the iteration releases each step's
weights); a repeated call returns the same arrays, hence bitwise the same
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exprs import expand_holomorphic_polynomial, parse_expr
from .fiber_numerics import (
    MonomialBasis,
    QuadratureRule,
    gram_matrix,
    monomial_basis,
    monomial_gradient,
    monomial_synthesis,
    orthonormalize,
    ring_gram,
    vandermonde,
)
from .utils import as_complex_tuple
from .weights import BasePatch, WeightFamily, fiber_contraction

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
    "node_base_gradient",
    "node_hessian",
    "node_fiber_contraction",
    "base_gram_derivative",
    "base_gram_hessian",
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


def _outside_error(i: int, point, t, margin_frac: float) -> SectionOutsideDomainError:
    return SectionOutsideDomainError(
        f"section {i} evaluates to {point.tolist()} at t={t}, outside the "
        f"fiber domain (margin {margin_frac})"
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

    def check_inside(self, domain, t, margin_frac: float = SECTION_MARGIN):
        pts = self.sections_at(t)
        ok = domain.contains(pts, margin_frac=margin_frac)
        if not ok.all():
            i = int(np.argmin(ok))
            raise _outside_error(i, pts[i], t, margin_frac)

    def validate_on_patch(self, domain, patch: BasePatch, margin_frac: float = SECTION_MARGIN):
        """Check the margin invariant over a deterministic patch sample.

        Every section is evaluated on the whole sample at once; the error
        names the first failing (sample, section) pair in sample order.
        """
        ts = patch.sample(radii=(0.0, 0.5, 1.0), angles=8)
        pts = np.stack([np.stack([comp(ts) for comp in s], axis=-1) for s in self.sections], axis=1)
        ok = domain.contains(pts, margin_frac=margin_frac)  # (samples, sections)
        if not ok.all():
            k, i = np.unravel_index(int(np.argmin(ok)), ok.shape)
            raise _outside_error(int(i), pts[k, i], tuple(ts[k]), margin_frac)


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
    weight_ref: str = ""
    gram: np.ndarray = field(default=None, repr=False)
    quad: QuadratureRule = field(default=None, repr=False)
    weight_vals: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def monomials_at(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        single = pts.ndim == 0 or (pts.ndim == 1 and self.basis.fiber_dim > 1)
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1 and self.basis.fiber_dim == 1:
            pts = pts.reshape(-1, 1)
        elif pts.ndim == 1:
            pts = pts.reshape(1, -1)
        V = vandermonde(self.basis, pts)
        return V[0] if single else V

    def orthonormal_at(self, points) -> np.ndarray:
        """Values of the orthonormal frame, shape (..., dim)."""
        return self.monomials_at(points) @ self.transform

    def kernel_coefficients(self, w) -> np.ndarray:
        """Monomial coefficient vector of the holomorphic function K(., w)."""
        Mw = self.monomials_at(w)
        return self.transform @ (self.transform.conj().T @ np.conj(Mw))

    def kernel_column(self, w) -> np.ndarray:
        """K(node, w) over all quadrature nodes, synthesized ring by ring."""
        return monomial_synthesis(self.basis, self.kernel_coefficients(w), self.quad)

    def kernel_diag(self, w, degree: int | None = None) -> float:
        """K(w, w), optionally truncated to a smaller degree sub-basis.

        Triangularity of the transform makes the leading k x k block the
        orthonormalizer of the leading sub-basis, so truncation is a slice.
        """
        u = self.orthonormal_at(w)
        if degree is not None:
            k = self.basis.truncated_dim(degree)
            Msub = self.monomials_at(w)[..., :k]
            u = Msub @ self.transform[:k, :k]
        return float(np.sum(np.abs(u) ** 2, axis=-1))

    def diag_convergence_gap(self, w) -> float:
        """Relative change of K(w,w) from degree N-2 to N."""
        full = self.kernel_diag(w)
        sub = self.kernel_diag(w, degree=max(self.N - 2, 0))
        return abs(full - sub) / max(abs(full), 1e-300)


def _node_weight_values(w: WeightFamily, t, quad: QuadratureRule) -> np.ndarray:
    """Read-only ``exp(-phi(t, .))`` on the nodes, memoized per base point.

    The values do not depend on the degree, so every basis build and every
    direct-image Gram at ``t`` shares one evaluation per rule.
    """
    t = as_complex_tuple(t)
    return quad.memoize(w, ("weight_values", t), lambda: w.weight_values(t, quad))


def node_base_gradient(w: WeightFamily, t, quad: QuadratureRule) -> np.ndarray:
    """Read-only ``d phi / dt_a`` on the nodes, shape (n, nodes), memoized
    per base point like the weight values."""
    t = as_complex_tuple(t)
    return quad.memoize(w, ("grad_base", t),
                        lambda: np.asarray(w.grad_base(t, quad.nodes)).reshape(w.n, quad.size))


def node_hessian(w: WeightFamily, t, quad: QuadratureRule, base_only: bool = False):
    """Read-only Hessian blocks ``(tt, tf, ff)`` of ``w`` on the nodes,
    memoized per base point like the gradient.

    ``base_only`` returns the base block ``tt`` alone, shape (nodes, n, n),
    sliced from the full blocks.  Only a weight that overrides
    ``base_hessian`` (iterated weights give just that block on the nodes)
    has it computed alone, unless its full blocks are memoized already.
    """
    t = as_complex_tuple(t)
    full = quad.memo(w).get(("hessian", t))
    if full is None and base_only and type(w).base_hessian is not WeightFamily.base_hessian:
        return quad.memoize(w, ("base_hessian", t), lambda: np.asarray(w.base_hessian(t, quad.nodes)))
    if full is None:
        full = quad.memoize(w, ("hessian", t),
                            lambda: tuple(np.asarray(b) for b in w.hessian_field(t, quad.nodes)))
    return full[0] if base_only else full


def node_fiber_contraction(w: WeightFamily, t, quad: QuadratureRule) -> np.ndarray:
    """Read-only ``(tf ff^{-1} tf^H)_aa`` on the nodes, shape (nodes, n):
    :func:`weights.fiber_contraction` of the memoized blocks, memoized per
    base point like them.  A non-positive fiber block raises
    :class:`weights.FiberDegenerateError`."""
    t = as_complex_tuple(t)

    def compute():
        _tt, tf, ff = node_hessian(w, t, quad)
        return fiber_contraction(tf, ff, f"on the quadrature nodes at t = {t}")[0]

    return quad.memoize(w, ("fiber_contraction", t), compute)


def base_gram_derivative(w: WeightFamily, t, N: int, quad: QuadratureRule, a: int) -> np.ndarray:
    """Read-only ``d_a G`` at t: the ring Gram of ``-d_a phi * exp(-phi) * w``,
    memoized per (weight, t, N, a) next to the basis."""
    t = as_complex_tuple(t)

    def compute():
        b = bergman_basis(w, t, N, quad)
        mu = b.weight_vals * quad.weights
        return ring_gram(b.basis, -node_base_gradient(w, t, quad)[a] * mu, quad)

    return quad.memoize(w, ("d_G", t, N, a), compute)


def base_gram_hessian(w: WeightFamily, t, N: int, quad: QuadratureRule, a: int, c: int) -> np.ndarray:
    """``d_a dbar_c G`` at t: the ring Gram of ``(d_a phi dbar_c phi - d_a
    dbar_c phi) * exp(-phi) * w``, memoized for ``a <= c``; ``a > c`` is the
    conjugate transpose of ``(c, a)``."""
    if a > c:
        return base_gram_hessian(w, t, N, quad, c, a).conj().T
    t = as_complex_tuple(t)

    def compute():
        b = bergman_basis(w, t, N, quad)
        mu = b.weight_vals * quad.weights
        dphi = node_base_gradient(w, t, quad)
        tt = node_hessian(w, t, quad, base_only=True)
        return ring_gram(b.basis, (dphi[a] * np.conj(dphi[c]) - tt[:, a, c]) * mu, quad)

    return quad.memoize(w, ("dd_G", t, N, a, c), compute)


def bergman_basis(w: WeightFamily, t, N: int, quad: QuadratureRule) -> BergmanBasis:
    """Orthonormalized degree-N basis for the weight slice phi(t, .).

    Built once per (weight, t, N) and quadrature rule; later calls wrap the
    memoized arrays (see the module docstring).  Failed builds are not
    memoized, so they raise again.
    """
    t = as_complex_tuple(t)
    memo = quad.memo(w)
    parts = memo.get((t, N))
    if parts is None:
        basis = monomial_basis(N, quad.domain.dim)
        weight_vals = _node_weight_values(w, t, quad)
        G = gram_matrix(basis, weight_vals, quad)
        C = orthonormalize(G, exponents=basis.exponents)
        for arr in (G, C):
            arr.flags.writeable = False
        parts = memo[(t, N)] = (basis, C, G, weight_vals)
    basis, C, G, weight_vals = parts
    return BergmanBasis(
        t=t,
        N=N,
        basis=basis,
        transform=C,
        weight_ref=w.label,
        gram=G,
        quad=quad,
        weight_vals=weight_vals,
    )


def kernel_eval(b: BergmanBasis, z, w) -> complex:
    """K(z, w) = sum_i u_i(z) conj(u_i(w))."""
    uz = b.orthonormal_at(z)
    uw = b.orthonormal_at(w)
    return complex(np.sum(uz * np.conj(uw), axis=-1))


def reproducing_residual(b: BergmanBasis, h, w, quad: QuadratureRule) -> float:
    """|h(w) - <h, K(., w)>| for h in the truncated space.

    The inner product is evaluated by quadrature against the stored weight
    values, so this measures quadrature + orthonormalization error, not
    algebraic identity.
    """
    if quad.size != b.quad.size:
        raise ValueError("quadrature rule does not match the one the basis was built on")
    if callable(h):
        h_nodes = h(quad.points if quad.domain.dim == 1 else quad.nodes)
        h_at_w = h(w)
    else:
        raise TypeError("h must be callable on fiber points")
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
    Mw = b.monomials_at(w)
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
    ``sum_i a_i(t) u(s_i(t))`` in the orthonormal frame and in its leading
    degree-(N-2) part, from one evaluation of the monomials at the sections."""
    t = as_complex_tuple(t)
    fam.check_inside(quad.domain, t)
    b = bergman_basis(w, t, N, quad)
    amps = fam.amplitudes_at(t)
    M = b.monomials_at(fam.sections_at(t))
    full = float(np.sum(np.abs(amps @ (M @ b.transform)) ** 2))
    k = b.basis.truncated_dim(max(N - 2, 0))
    sub = float(np.sum(np.abs(amps @ (M[:, :k] @ b.transform[:k, :k])) ** 2))
    return full, sub


@dataclass(frozen=True, eq=False)
class SectionHessian:
    """``B_t<a, a>`` at one base point with its exact base derivatives.

    ``grad[a] = d B / dt_a`` and ``hessian[a, b] = d^2 B / dt_a dt_b-bar``
    (Hermitian), the convention of the finite-difference Hessians.
    """

    t: tuple
    B: float
    grad: np.ndarray = field(repr=False)
    hessian: np.ndarray = field(repr=False)

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
    memo = quad.memo(w)
    key = ("section_hessian", fam.key, t, N)
    out = memo.get(key)
    if out is not None:
        return out
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

    dG = [base_gram_derivative(w, t, N, quad, a) for a in range(n)]
    g = np.array([Ch @ (G @ p) for G in dG])
    eh = e - np.array([Ch @ (G.conj().T @ p) for G in dG])
    H = np.empty((n, n), dtype=complex)
    for a in range(n):
        for c in range(a, n):
            ddG = base_gram_hessian(w, t, N, quad, a, c)
            H[a, c] = np.vdot(eh[a], eh[c]) + np.vdot(g[c], g[a]) - np.vdot(p, ddG @ p)
            H[c, a] = np.conj(H[a, c])
    H[np.diag_indices(n)] = H.diagonal().real
    B = float(np.vdot(v, v).real)
    if not (math.isfinite(B) and np.all(np.isfinite(H))):
        raise ArithmeticError(f"section functional or its Hessian is not finite at t={t}")
    grad = eh.conj() @ v
    for arr in (grad, H):
        arr.flags.writeable = False
    out = memo[key] = SectionHessian(t=t, B=B, grad=grad, hessian=H)
    return out


@dataclass(frozen=True, eq=False)
class DirectImageGram:
    """Gram field t -> G(t) of a fixed fiber-holomorphic frame.

    G(t)[j, k] pairs frame element k against the conjugate of element j in
    the weighted fiber inner product at t, the matrix of the varying L2
    metric in the frame.
    """

    w: WeightFamily
    frame: tuple  # HoloPoly's in the fiber variables
    patch: BasePatch
    quad: QuadratureRule
    frame_values: np.ndarray = field(default=None, repr=False)  # (nodes, r)

    @property
    def rank(self) -> int:
        return len(self.frame)

    def _frame_gram(self, measure: np.ndarray) -> np.ndarray:
        F = self.frame_values
        return F.conj().T @ (measure[:, None] * F)

    def gram_at(self, t) -> np.ndarray:
        G = self._frame_gram(_node_weight_values(self.w, t, self.quad) * self.quad.weights)
        return 0.5 * (G + G.conj().T)

    def neg_log_det(self, t) -> float:
        """-log det G(t): the local potential of the determinant metric."""
        sign, logabs = np.linalg.slogdet(self.gram_at(t))
        if sign.real <= 0:
            raise ArithmeticError(f"Gram determinant not positive at t={t}")
        return -float(logabs)

    def neg_log_det_hessian(self, t) -> np.ndarray:
        """Exact ``d_a dbar_b (-log det G)`` at t (Hermitian, n x n), Berndtsson's
        direct-image curvature restricted to the frame values ``F``:

            -d_a dbar_b log det G = tr(G^-1 d_aG G^-1 (d_bG)^H) - tr(G^-1 d_a dbar_bG)

        with ``d_a G`` and ``d_a dbar_b G`` the frame Grams of the measures of
        the module docstring.  Raises ``ArithmeticError`` unless det G > 0.
        """
        t = as_complex_tuple(t)
        self.neg_log_det(t)
        G, n = self.gram_at(t), self.w.n
        mu = _node_weight_values(self.w, t, self.quad) * self.quad.weights
        dphi = node_base_gradient(self.w, t, self.quad)
        tt = node_hessian(self.w, t, self.quad, base_only=True)
        dG = [self._frame_gram(-dphi[a] * mu) for a in range(n)]
        X = [np.linalg.solve(G, D) for D in dG]
        Y = [np.linalg.solve(G, D.conj().T) for D in dG]
        H = np.empty((n, n), dtype=complex)
        for a in range(n):
            for b in range(a, n):
                ddG = self._frame_gram((dphi[a] * np.conj(dphi[b]) - tt[:, a, b]) * mu)
                H[a, b] = np.sum(X[a] * Y[b].T) - np.trace(np.linalg.solve(G, ddG))
                H[b, a] = np.conj(H[a, b])
        H[np.diag_indices(n)] = H.diagonal().real
        return H


def direct_image_gram(
    w: WeightFamily, frame, patch: BasePatch, quad: QuadratureRule
) -> DirectImageGram:
    """Build the Gram field, validating frame independence at the center."""
    frame = tuple(frame)
    if not frame:
        raise ValueError("empty frame")
    F = np.stack([f(quad.nodes) for f in frame], axis=1)
    dig = DirectImageGram(w=w, frame=frame, patch=patch, quad=quad, frame_values=F)
    G0 = dig.gram_at(patch.center)
    eigs = np.linalg.eigvalsh(G0)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
        raise ValueError(
            f"frame numerically dependent: Gram eigenvalues at the patch center {eigs.tolist()}"
        )
    return dig
