"""Fiber-side numerics on product Reinhardt domains.

Quadrature is a tensor product, per complex fiber coordinate, of a
Gauss-Legendre rule in the radius (mapped to ``[r_inner, r_outer]``, with the
polar Jacobian folded into the weights) and a uniform trapezoid rule in the
angle.  On a periodic integrand the trapezoid rule integrates angular modes
``exp(i k theta)`` exactly for ``|k| < n_angular``, so monomials ``z^a
conj(z)^b`` are integrated exactly whenever ``a, b <= n_angular/2 - 1`` and
the radial polynomial degree stays within Gauss-Legendre exactness.

Inner products follow the convention ``<f, g> = sum f * conj(g) * w`` over
the nodes, ``w = exp(-phi) * quadrature weight``.  Gram matrices are stored
so that ``v^H G v`` is the squared norm of the coefficient vector ``v``
(entry ``G[j, k]`` pairs basis element ``k`` against the conjugate of basis
element ``j``); this is the layout under which the orthonormalizing
transform satisfies ``C^H G C = I``.

The Gram matrix is assembled ring by ring.  On a polar node ``z = r
e^{i theta}`` the product ``conj(z^j) z^k`` is ``r^(j+k) e^{i (k-j) theta}``
per coordinate, so the node sum factors into an angular DFT of ``w`` on each
ring followed by a contraction with radial powers::

    G[j, k] = sum_rings  prod_c r_c^(j_c+k_c) * W_rings(k - j),
    W_ring(m) = sum_theta w(r, theta) e^{i m theta}.

This is the same discrete sum as ``V^H diag(w) V`` over the node
Vandermonde ``V`` (same aliasing, same positivity test), only added in a
different order.  :func:`ring_gram` assembles it for any complex node
measure; :func:`gram_matrix` is the positivity-checked Gram of a weight on
top of it.  The base derivatives of a weighted Gram are ring Grams of
complex measures (``-d_a phi * exp(-phi) * w`` and so on), which is how
the exact base Hessians of the section functional are assembled (see
``bergman``).

Node values of a coefficient matrix are the adjoint of the ring Gram:
``sum_jk A[j, k] M_j(x) conj(M_k(x))`` is ``sum_jk A[j, k] r^(j+k) e^{i
(j-k) theta}`` per coordinate, so :func:`ring_synthesis` scatters ``A``
into the ``(s, m)`` table through the same gather indices, contracts each
``s`` axis with that coordinate's ring powers, places the modes with the
same mode table and takes one inverse FFT over the angular axes, for a
whole stack of matrices at once.  That costs about ``rings * (2N+1)^2``
per coordinate and matrix plus one node-sized FFT, against ``nodes *
dim^2`` for the frame ``V C`` on the nodes.  The kernel diagonal
(:func:`kernel_diagonal`) is the case ``A = P = C C^H``, the inverse Gram;
the base derivatives of ``P`` give the log-kernel jets of the iteration.

Linear node fields have the same structure one index lower.  A
coefficient vector ``c`` has node values ``sum_j c_j M_j(x) = sum_e c_e
prod_c r_c^(e_c) e^{i e_c theta_c}``: :func:`monomial_synthesis` scales
each coordinate's coefficient table by the ring powers (an outer product)
and puts exponent ``e`` at angular mode ``e`` of one inverse FFT.  Its
adjoint :func:`monomial_analysis` turns a node field ``f`` into the
moments ``sum_x conj(M_j(x)) f(x)``: a forward FFT over the angular axes,
modes ``0..N`` kept, each ring axis contracted with ``r^e``.  The pair is
``V c`` and ``V^H f`` over the node Vandermonde ``V`` without building
it, so no ``(nodes x dim)`` array exists anywhere; the kernel columns,
the fields of the L2 step and their orthogonality residual are read
through it.  :func:`vandermonde` itself serves small point sets
(sections, probes, samples).

A :class:`QuadratureRule` keeps the radial-power and mode-index tables of
the ring transforms for its lifetime and, through
:meth:`QuadratureRule.memo`, the per-weight results that callers (the
Bergman basis builds) store on it.
A rule holds at most :data:`MAX_NODES` nodes.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "FiberDomain",
    "QuadratureRule",
    "MonomialBasis",
    "GramIndefiniteError",
    "DegenerateBasisError",
    "build_quadrature",
    "check_resolution",
    "max_exact_degree",
    "monomial_basis",
    "vandermonde",
    "monomial_gradient",
    "ring_gram",
    "gram_matrix",
    "ring_synthesis",
    "monomial_synthesis",
    "monomial_analysis",
    "kernel_diagonal",
    "orthonormalize",
]

DOMAIN_KINDS = ("disk", "polydisc", "annulus")

# Node cap of one quadrature rule.  A complex node field then takes at most
# 16 MB; a 2-D fiber at the 64 x 128 default would need 67M nodes.
MAX_NODES = 2**20

# Largest Gram factored by one LAPACK Cholesky call (see _cholesky).
CHOLESKY_BLOCK = 48


class GramIndefiniteError(ArithmeticError):
    """Gram matrix failed positivity (quadrature too coarse for the degree)."""


class DegenerateBasisError(ArithmeticError):
    """Cholesky pivot collapsed: basis numerically dependent at some degree."""


@dataclass(frozen=True)
class FiberDomain:
    """Product Reinhardt fiber domain with at most two complex coordinates.

    ``radii`` holds the outer radius of each coordinate; ``inner_radii`` is
    zero except for the annulus kind, where it must be strictly between 0 and
    the outer radius coordinate-wise.
    """

    kind: str
    radii: tuple[float, ...]
    inner_radii: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ValueError(f"unknown fiber domain kind {self.kind!r}")
        radii = tuple(float(r) for r in self.radii)
        inner = tuple(float(r) for r in self.inner_radii)
        if self.kind != "annulus":
            if inner and any(r != 0.0 for r in inner):
                raise ValueError("inner radii only make sense for the annulus kind")
            inner = (0.0,) * len(radii)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "inner_radii", inner)
        d = len(radii)
        if not 1 <= d <= 2:
            raise ValueError(f"fiber dimension must be 1 or 2, got {d}")
        if self.kind == "disk" and d != 1:
            raise ValueError("disk domain has exactly one coordinate; use polydisc for d=2")
        if len(inner) != d:
            raise ValueError("inner radii must match the number of coordinates")
        if any(r <= 0 for r in radii):
            raise ValueError("outer radii must be positive")
        if self.kind == "annulus" and any(not 0 < ri < ro for ri, ro in zip(inner, radii)):
            raise ValueError("annulus needs 0 < inner radius < outer radius")

    @property
    def dim(self) -> int:
        return len(self.radii)

    @property
    def volume(self) -> float:
        v = 1.0
        for ro, ri in zip(self.radii, self.inner_radii):
            v *= math.pi * (ro * ro - ri * ri)
        return v

    @classmethod
    def disk(cls, radius: float = 1.0) -> "FiberDomain":
        return cls("disk", (radius,))

    @classmethod
    def polydisc(cls, *radii: float) -> "FiberDomain":
        return cls("polydisc", tuple(radii))

    @classmethod
    def annulus(cls, inner: float, outer: float) -> "FiberDomain":
        return cls("annulus", (outer,), (inner,))

    def contains(self, points: np.ndarray, margin_frac: float = 0.0) -> np.ndarray:
        """Coordinate-wise membership with a relative safety margin.

        ``points`` has shape ``(..., d)``.  The outer bound shrinks by
        ``margin_frac * outer``; the annulus inner bound grows by
        ``margin_frac * (outer - inner)``.
        """
        pts = np.asarray(points, dtype=complex)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have {pts.shape[-1]} coordinates, domain has {self.dim}")
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for c, (ro, ri) in enumerate(zip(self.radii, self.inner_radii)):
            r = np.abs(pts[..., c])
            ok &= r <= ro * (1.0 - margin_frac)
            if ri > 0:
                ok &= r >= ri + margin_frac * (ro - ri)
        return ok


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Flattened tensor-product polar rule over a :class:`FiberDomain`.

    ``nodes`` has shape ``(M, d)``; ``weights`` already include the polar
    Jacobian.  ``shape`` records ``(n_radial, n_angular)`` per coordinate and
    ``radial_nodes`` the per-coordinate radii, so grid-structured finite
    differences can reshape node-indexed fields to
    ``(nr_1, na_1, ..., nr_d, na_d)``.
    """

    domain: FiberDomain
    shape: tuple[tuple[int, int], ...]
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    radial_nodes: tuple[np.ndarray, ...] = field(repr=False)
    # Per-basis tables built on first use; they live and die with the rule.
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def memo(self, owner) -> dict:
        """This rule's store of results computed for ``owner`` (a weight).

        Stores are held weakly by owner, so an entry is freed as soon as its
        owner or the rule goes.  Stored values must not refer to the owner
        (that would keep it alive) or to the rule (a cycle that only the
        cyclic garbage collector frees).
        """
        stores = self._tables.get("memo")
        if stores is None:
            stores = self._tables.setdefault("memo", weakref.WeakKeyDictionary())
        store = stores.get(owner)
        if store is None:
            store = stores.setdefault(owner, {})
        return store

    def memoize(self, owner, key, compute):
        """``compute()``, kept in ``self.memo(owner)`` under ``key``.

        The result is an array or a tuple of arrays; each is made read-only
        before it is stored, so every caller shares the same numbers.
        """
        store = self.memo(owner)
        out = store.get(key)
        if out is None:
            out = compute()
            for arr in out if isinstance(out, tuple) else (out,):
                arr.flags.writeable = False
            store[key] = out
        return out

    def release(self, owner) -> None:
        """Drop this rule's store for ``owner`` while the owner lives on
        (a chain of iterated weights keeps every link alive)."""
        stores = self._tables.get("memo")
        if stores is not None:
            stores.pop(owner, None)

    def ring_tables(self, basis: MonomialBasis) -> tuple:
        """Index and radial-power tables of the ring Gram, built once per basis.

        Returns ``(modes, powers, gather)``: per coordinate the DFT indices
        of the angular modes ``-N..N`` (negated, see :func:`ring_gram`)
        and the ring powers ``r^s`` for ``s = 0..2N``; ``gather`` indexes
        the contracted ``(s_1, m_1, s_2, m_2, ...)`` tensor at ``s = j + k``,
        ``m = k - j`` (shifted by N) for every basis pair ``(j, k)``.  The
        powers ``s <= N`` also serve the linear transforms
        (:func:`monomial_synthesis`, :func:`monomial_analysis`).  All
        tables are read-only.
        """
        key = ("ring", basis)
        tables = self._tables.get(key)
        if tables is None:
            N = basis.max_degree
            span = np.arange(-N, N + 1)
            modes = tuple(-span % na for _nr, na in self.shape)
            powers = tuple(r[:, None] ** np.arange(2 * N + 1)[None, :] for r in self.radial_nodes)
            E = basis.exponent_array
            gather = []
            for c in range(basis.fiber_dim):
                gather.append(E[:, None, c] + E[None, :, c])
                gather.append(E[None, :, c] - E[:, None, c] + N)
            for arr in modes + powers + tuple(gather):
                arr.flags.writeable = False
            tables = self._tables[key] = (modes, powers, tuple(gather))
        return tables

    @property
    def points(self) -> np.ndarray:
        """Nodes as a 1-d complex array (single-coordinate fibers only)."""
        if self.domain.dim != 1:
            raise ValueError("points is only available for one-dimensional fibers")
        return self.nodes[:, 0]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """``(nr_1, na_1, ..., nr_d, na_d)``, the node order of the rule."""
        return tuple(n for pair in self.shape for n in pair)

    def grid_view(self, values: np.ndarray) -> np.ndarray:
        """Reshape node-indexed fields (the last axis) to the full polar grid."""
        values = np.asarray(values)
        return values.reshape(values.shape[:-1] + self.grid_shape)


def check_resolution(n_radial: int, n_angular: int, dim: int = 1) -> None:
    """Reject per-coordinate resolutions below the rule's floor, and rules
    on a ``dim``-coordinate fiber with more than :data:`MAX_NODES` nodes.

    The check is arithmetic only, so an oversized request fails before
    anything is allocated; the message names a resolution that fits.
    """
    if n_radial < 4:
        raise ValueError(f"n_radial must be at least 4, got {n_radial}")
    if n_angular < 8:
        raise ValueError(f"n_angular must be at least 8, got {n_angular}")
    nodes = (n_radial * n_angular) ** dim
    if nodes > MAX_NODES:
        per_coord = MAX_NODES if dim == 1 else math.isqrt(MAX_NODES)
        fit_radial = per_coord // n_angular
        fit = (fit_radial, n_angular) if fit_radial >= 4 else (4, per_coord // 4)
        raise ValueError(
            f"quadrature {n_radial} {n_angular} on a {dim}-coordinate fiber has "
            f"{nodes:,} nodes, above the cap of {MAX_NODES:,}; use at most "
            f"{per_coord:,} nodes per coordinate, e.g. quadrature {fit[0]} {fit[1]}"
        )


def max_exact_degree(n_angular: int) -> int:
    """Largest basis degree N with ``N <= n_angular/2 - 1``.

    Up to this degree every monomial product ``z^a conj(z)^b`` with ``a, b
    <= N`` is integrated exactly by the angular rule; above it angular modes
    alias.
    """
    return n_angular // 2 - 1


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on ``[-1, 1]``, computed
    once per node count."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_quadrature(domain: FiberDomain, n_radial: int = 64, n_angular: int = 128) -> QuadratureRule:
    """Tensor Gauss-Legendre (radius) x trapezoid (angle) rule on ``domain``.

    Node count grows as ``(n_radial * n_angular) ** d``; d = 2 fibers should
    use a much coarser per-coordinate resolution than the d = 1 default.
    Above :data:`MAX_NODES` nodes a ``ValueError`` is raised before any
    allocation.
    """
    check_resolution(n_radial, n_angular, domain.dim)
    x, w = _gauss_legendre(n_radial)
    coord_nodes, coord_wts, radial = [], [], []
    for ro, ri in zip(domain.radii, domain.inner_radii):
        r = ri + (x + 1.0) * 0.5 * (ro - ri)
        wr = w * 0.5 * (ro - ri) * r  # polar Jacobian
        theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
        wt = 2.0 * np.pi / n_angular
        z = r[:, None] * np.exp(1j * theta)[None, :]
        coord_nodes.append(z.ravel())
        coord_wts.append((wr[:, None] * np.full(n_angular, wt)[None, :]).ravel())
        radial.append(r)
    if domain.dim == 1:
        nodes = coord_nodes[0][:, None]
        weights = coord_wts[0]
    else:
        a, b = coord_nodes
        nodes = np.stack([np.repeat(a, b.size), np.tile(b, a.size)], axis=1)
        weights = np.repeat(coord_wts[0], b.size) * np.tile(coord_wts[1], a.size)
    rule = QuadratureRule(
        domain=domain,
        shape=tuple((n_radial, n_angular) for _ in range(domain.dim)),
        nodes=nodes,
        weights=weights,
        radial_nodes=tuple(radial),
    )
    vol = domain.volume
    if abs(weights.sum() - vol) > 1e-12 * vol:
        raise AssertionError("quadrature weights do not sum to the domain volume")
    return rule


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of total degree <= max_degree in graded lexicographic order.

    ``exponent_array`` holds the exponents as a read-only ``(dim,
    fiber_dim)`` integer array, built once per basis: its columns index
    the per-coordinate power tables of :func:`vandermonde`.
    """

    fiber_dim: int
    max_degree: int
    exponents: tuple[tuple[int, ...], ...]
    exponent_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        E = np.array(self.exponents, dtype=int).reshape(len(self.exponents), self.fiber_dim)
        E.flags.writeable = False
        object.__setattr__(self, "exponent_array", E)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def truncated_dim(self, degree: int) -> int:
        """Number of leading exponents of total degree <= degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return math.comb(degree + self.fiber_dim, self.fiber_dim)


def monomial_basis(max_degree: int, fiber_dim: int = 1) -> MonomialBasis:
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if not 1 <= fiber_dim <= 2:
        raise ValueError("fiber_dim must be 1 or 2")
    exps = []
    for total in range(max_degree + 1):
        if fiber_dim == 1:
            exps.append((total,))
        else:
            exps.extend((total - j, j) for j in range(total + 1))
    basis = MonomialBasis(fiber_dim, max_degree, tuple(exps))
    assert basis.dim == math.comb(max_degree + fiber_dim, fiber_dim)
    return basis


def _power_tables(basis: MonomialBasis, nodes) -> list[np.ndarray]:
    """Per-coordinate powers ``z_c^k``, ``k = 0..max_degree``, of the points."""
    pts = np.asarray(nodes, dtype=complex)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != basis.fiber_dim:
        raise ValueError("node coordinate count does not match the basis fiber_dim")
    k = np.arange(basis.max_degree + 1)[None, :]
    return [pts[:, c, None] ** k for c in range(basis.fiber_dim)]


def vandermonde(basis: MonomialBasis, nodes: np.ndarray) -> np.ndarray:
    """Matrix of monomial values, shape ``(n_nodes, basis.dim)``."""
    powers = _power_tables(basis, nodes)
    # per-coordinate power tables, then product across coordinates
    out = np.ones((powers[0].shape[0], basis.dim), dtype=complex)
    for c, P in enumerate(powers):
        out *= P[:, basis.exponent_array[:, c]]
    return out


def monomial_gradient(basis: MonomialBasis, points: np.ndarray) -> np.ndarray:
    """Holomorphic derivatives ``d M_j / d z_c`` at the points.

    Shape ``(n_points, fiber_dim, basis.dim)``: ``e_c z_c^(e_c - 1)`` times
    the other coordinates' powers, zero where ``e_c = 0``.
    """
    powers = _power_tables(basis, points)
    E = basis.exponent_array
    out = np.empty((powers[0].shape[0], basis.fiber_dim, basis.dim), dtype=complex)
    for c in range(basis.fiber_dim):
        g = E[:, c] * powers[c][:, np.maximum(E[:, c] - 1, 0)]
        for c2, P in enumerate(powers):
            if c2 != c:
                g = g * P[:, E[:, c2]]
        out[:, c] = g
    return out


def ring_gram(basis: MonomialBasis, measure: np.ndarray, quad: QuadratureRule) -> np.ndarray:
    """``sum_x conj(M_j(x)) M_k(x) measure(x)`` over the nodes, ring by ring.

    ``measure`` is any (real or complex) node field, quadrature weights
    included.  The node sum is taken as an angular DFT of the measure on
    every ring, contracted with the ring powers ``r^(j+k)`` per coordinate
    (see the module docstring).  No symmetrization and no positivity test:
    the result is Hermitian only for a real measure.
    """
    mu = np.asarray(measure)
    if mu.shape != (quad.size,):
        raise ValueError(f"expected {quad.size} measure values, got shape {mu.shape}")
    modes, powers, gather = quad.ring_tables(basis)
    grid = quad.grid_view(mu)  # axes (r_1, theta_1, r_2, theta_2, ...)
    # sum_theta mu e^{+i m theta} = fft(mu)[-m]: the mode tables hold the
    # negated indices.
    F = np.fft.fftn(grid, axes=tuple(range(1, grid.ndim, 2)))
    for c, (idx, P) in enumerate(zip(modes, powers)):
        F = np.take(F, idx, axis=2 * c + 1)
        # replace ring axis c by the radial power s = j_c + k_c
        F = np.moveaxis(np.tensordot(P, F, axes=([0], [2 * c])), 0, 2 * c)
    return F[gather]


def gram_matrix(
    basis: MonomialBasis, weight_values: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """Weighted Gram matrix of the monomial basis, assembled ring by ring.

    Entry ``G[j, k]`` pairs monomial ``k`` against the conjugate of monomial
    ``j``, so ``v^H G v = ||sum_j v_j m_j||^2``.  The node sum is the
    :func:`ring_gram` of the measure ``weight_values * quad.weights``,
    symmetrized against roundoff.  Raises :class:`GramIndefiniteError`
    when the assembled matrix fails positivity, which is the signature of a
    quadrature too coarse for the degree (angular aliasing makes distinct
    monomials collide on the nodes).
    """
    wv = np.asarray(weight_values, dtype=float)
    if wv.shape != (quad.size,):
        raise ValueError(f"expected {quad.size} weight values, got shape {wv.shape}")
    if not np.all(np.isfinite(wv)) or np.any(wv <= 0):
        raise ValueError("weight values must be finite and positive")
    G = ring_gram(basis, wv * quad.weights, quad)
    G = 0.5 * (G + G.conj().T)  # symmetrize roundoff
    eigs = np.linalg.eigvalsh(G)
    # relative floor: exact rank deficiency lands at +-eps * max_eig
    if eigs[0] <= 1e-14 * eigs[-1]:
        raise GramIndefiniteError(
            f"Gram matrix is not positive definite (min eigenvalue {eigs[0]:.3e}); "
            f"degree {basis.max_degree} needs a finer quadrature than {quad.shape}"
        )
    return G


def ring_synthesis(
    basis: MonomialBasis, coeffs: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """``M(x)^T A conj(M(x))`` on every node, for a stack of coefficient matrices.

    ``coeffs`` has shape ``(..., dim, dim)`` and the result ``(..., nodes)``
    (complex; real up to round-off where ``A`` is Hermitian).  The adjoint
    of :func:`ring_gram`: each ``A`` is scattered into the ``(s, m)`` table
    at ``s = j + k``, ``m = k - j`` through the same gather indices, each
    radial-power axis ``s`` is contracted with that coordinate's ring
    powers, and one inverse FFT over the angular axes of the whole stack
    turns the modes into node values (see the module docstring).  No node
    Vandermonde is evaluated.
    """
    A = np.asarray(coeffs)
    lead = A.shape[:-2]
    A = A.reshape((-1,) + A.shape[-2:])
    modes, powers, gather = quad.ring_tables(basis)
    T = np.zeros((A.shape[0],) + (2 * basis.max_degree + 1,) * (2 * basis.fiber_dim), dtype=complex)
    T[(slice(None),) + gather] = A  # (j, k) -> (s, m) is one-to-one
    for c, (idx, P) in enumerate(zip(modes, powers)):
        # replace radial-power axis s of coordinate c by the ring axis
        axis = 1 + 2 * c
        T = np.moveaxis(np.tensordot(P, T, axes=([1], [axis])), 0, axis)
        shape = list(T.shape)
        shape[axis + 1] = quad.shape[c][1]
        X = np.zeros(shape, dtype=complex)
        # M_j conj(M_k) carries e^{-i m theta} for m = k - j: the inverse DFT
        # index -m, which is what the mode table holds
        X[(slice(None),) * (axis + 1) + (idx,)] = T
        T = X
    angular = tuple(range(2, T.ndim, 2))
    n_angular = math.prod(T.shape[a] for a in angular)
    K = np.fft.ifftn(T, axes=angular) * n_angular
    return K.reshape(lead + (quad.size,))


def monomial_synthesis(
    basis: MonomialBasis, coeffs: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """``sum_j c_j M_j(x)`` on every node, for a stack of coefficient vectors.

    ``coeffs`` has shape ``(..., dim)`` and the result ``(..., nodes)``: the
    product ``V c`` with the node Vandermonde ``V``, which is not built.
    Each coordinate's exponent axis ``e`` is scaled by the ring powers
    ``r^e`` (an outer product, which adds the ring axis), exponent ``e``
    is placed at angular mode ``e``, and one inverse FFT over the angular
    axes sums the modes (see the module docstring).
    """
    c = np.asarray(coeffs)
    lead = c.shape[:-1]
    c = c.reshape(-1, basis.dim)
    N = basis.max_degree
    _modes, powers, _gather = quad.ring_tables(basis)
    T = np.zeros((c.shape[0],) + (N + 1,) * basis.fiber_dim, dtype=complex)
    T[(slice(None),) + tuple(basis.exponent_array.T)] = c
    for c_axis, P in enumerate(powers):
        # axes so far (stack, r_1, e_1, ..., e_c, ...): add r_c before e_c
        axis = 1 + 2 * c_axis
        T = np.expand_dims(T, axis)
        shape = [1] * T.ndim
        shape[axis : axis + 2] = P.shape[0], N + 1
        T = T * P[:, : N + 1].reshape(shape)
    X = np.zeros((c.shape[0],) + quad.grid_shape, dtype=complex)
    X[(slice(None),) + (slice(None), slice(N + 1)) * basis.fiber_dim] = T
    angular = tuple(range(2, X.ndim, 2))
    n_angular = math.prod(X.shape[a] for a in angular)
    return (np.fft.ifftn(X, axes=angular) * n_angular).reshape(lead + (quad.size,))


def monomial_analysis(
    basis: MonomialBasis, values: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """Moments ``sum_x conj(M_j(x)) f(x)`` of a stack of node fields.

    ``values`` has shape ``(..., nodes)`` and the result ``(..., dim)``:
    the product ``V^H f``, the adjoint of :func:`monomial_synthesis`.  A
    forward FFT over the angular axes gives ``sum_theta f e^{-i e theta}``
    at mode ``e``; modes ``0..N`` are kept and each ring axis is contracted
    with ``r^e``.  The contraction is one plain ``einsum``, not a BLAS
    product, so its summation order, and hence every bit of the result,
    does not follow the BLAS thread count.
    """
    f = np.asarray(values)
    lead = f.shape[:-1]
    if f.shape[-1:] != (quad.size,):
        raise ValueError(f"expected {quad.size} node values, got shape {f.shape}")
    N, d = basis.max_degree, basis.fiber_dim
    _modes, powers, _gather = quad.ring_tables(basis)
    F = np.fft.fftn(quad.grid_view(f.reshape(-1, quad.size)), axes=tuple(range(2, 2 + 2 * d, 2)))
    F = F[(slice(None),) + (slice(None), slice(N + 1)) * d]
    axes = ("aj", "bk")[:d]  # (ring, exponent) per coordinate
    spec = "s" + "".join(axes) + "," + ",".join(axes) + "->s" + "jk"[:d]
    M = np.einsum(spec, F, *(P[:, : N + 1] for P in powers))
    return M[(slice(None),) + tuple(basis.exponent_array.T)].reshape(lead + (basis.dim,))


def kernel_diagonal(
    basis: MonomialBasis, transform: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """Kernel diagonal ``K(x, x) = M(x)^T (C C^H) conj(M(x))`` on every node:
    the Hermitian case of :func:`ring_synthesis`, ``P = C C^H``."""
    return ring_synthesis(basis, transform @ transform.conj().T, quad).real


def orthonormalize(
    gram: np.ndarray,
    pivot_rtol: float = 1e-13,
    exponents: tuple[tuple[int, ...], ...] | None = None,
) -> np.ndarray:
    """Cholesky-based orthonormalizing transform for a Hermitian Gram matrix.

    Returns ``transform`` with ``transform^H G transform = I``; its columns
    are coefficient vectors of an orthonormal frame.  Because the
    factorization is triangular, the leading principal block of the
    transform orthonormalizes the corresponding leading sub-basis, which
    keeps degree-truncation diagnostics cheap.

    One LAPACK Cholesky factorization up to :data:`CHOLESKY_BLOCK` rows,
    a blocked one above (see :func:`_cholesky`); a pivot ``diag(L)**2`` at
    or below ``pivot_rtol * max(diag)`` aborts with
    :class:`DegenerateBasisError` naming the offending basis element.
    """
    G = np.array(gram, dtype=complex)
    dim = G.shape[0]
    if G.shape != (dim, dim):
        raise ValueError("gram must be square")
    scale = max(float(np.abs(G).max()), 1e-300)
    if float(np.abs(G - G.conj().T).max()) > 1e-12 * scale:
        raise ValueError("gram must be Hermitian")
    max_diag = float(np.real(np.diag(G)).max())
    threshold = pivot_rtol * max_diag
    try:
        L = _cholesky(G)
        pivots = np.real(np.diag(L)) ** 2
        low = np.flatnonzero(pivots <= threshold)
        collapsed = (int(low[0]), float(pivots[low[0]])) if low.size else None
    except np.linalg.LinAlgError:
        collapsed = _collapsed_pivot(G, threshold)
    if collapsed is not None:
        j, pivot = collapsed
        label = f"exponent {exponents[j]}" if exponents is not None else f"index {j}"
        raise DegenerateBasisError(
            f"degenerate basis: Cholesky pivot {pivot:.3e} at {label} "
            f"(threshold {pivot_rtol:.1e} * max diagonal {max_diag:.3e})"
        )
    return np.linalg.inv(L).conj().T


def _cholesky(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``G`` whose bits do not follow the BLAS
    thread count.

    LAPACK's factorization splits its updates by thread above about 64
    rows, so the last bits of a 2-D basis would follow the thread count
    into the report hashes.  Up to :data:`CHOLESKY_BLOCK` rows it is one
    LAPACK call, as before; above, LAPACK only factors and solves against
    diagonal blocks of at most that size, and the Schur updates between
    blocks are plain ``einsum`` sums, in a fixed order.
    """
    dim = G.shape[0]
    if dim <= CHOLESKY_BLOCK:
        return np.linalg.cholesky(G)
    L = np.zeros_like(G)
    for s in range(0, dim, CHOLESKY_BLOCK):
        e = min(s + CHOLESKY_BLOCK, dim)
        Ls = L[s:, :s]
        S = G[s:, s:e] - np.einsum("ik,jk->ij", Ls, Ls[: e - s].conj())
        D = np.linalg.cholesky(S[: e - s])
        L[s:e, s:e] = D
        # L[e:, s:e] D^H = S[e - s:], a solve of at most CHOLESKY_BLOCK rows
        L[e:, s:e] = np.linalg.solve(D, S[e - s :].conj().T).conj().T
    return L


def _collapsed_pivot(G: np.ndarray, threshold: float) -> tuple[int, float]:
    """Index and value of the first Cholesky pivot at or below ``threshold``.

    Error path only: LAPACK reports that a factorization failed, not where.
    The leading blocks are factored in turn; the pivot of the first block
    that fails is the Schur complement of its last diagonal entry against
    the block before it.
    """
    L = np.zeros((0, 0), dtype=complex)
    for j in range(G.shape[0]):
        try:
            L = np.linalg.cholesky(G[: j + 1, : j + 1])
        except np.linalg.LinAlgError:
            x = np.linalg.solve(L, G[:j, j]) if j else np.zeros(0)
            return j, float(np.real(G[j, j]) - np.real(np.vdot(x, x)))
        pivot = float(np.real(L[j, j])) ** 2
        if pivot <= threshold:
            return j, pivot
    raise AssertionError("the full Cholesky factorization failed but every leading block passed")
