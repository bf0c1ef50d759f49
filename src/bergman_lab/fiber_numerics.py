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
Vandermonde ``V`` (same aliasing), only added in a different order.
:func:`ring_gram` assembles it for any real or complex node measure,
:func:`gram_matrix` the weighted Gram of a weight.  A 1-D Gram is one
angular FFT, one real GEMM over the rings and one gather.  A 2-D Gram
transforms only what it reads (FFT pruning; Markel, IEEE Trans. Audio
Electroacoust. 19, 1971): an FFT over ``theta_1`` (in place on a complex
buffer handed over); per DFT column ``q_1``, ``r_1`` strided rows, one real
GEMM over ``r_1`` at the distinct ``(s_1, q_1)`` rows read (121 of ``(2N+1) *
n_angular = 504`` at degree 10 on 24 angles); the ``theta_2`` FFT in place
on those rows; and the last rings contracted at the entries alone
(``rings * dim^2`` multiply-adds in an ``einsum``).  A real measure has
``W(-m) = conj(W(m))``, so its Gram is Hermitian and half of it is redundant: one
real FFT of the first angular axis gives the half spectrum ``m_1 >= 0``,
only that half is contracted, and the entries with ``k_1 - j_1 < 0`` are
filled in as conjugates (the real-input FFT saving; Sorensen, Jones,
Heideman and Burrus, IEEE Trans. ASSP 35, 1987).  Such a Gram is exactly
Hermitian, with an exactly real diagonal, and is not symmetrized
afterwards.  The base derivatives of a weighted Gram are ring Grams of the
measures ``-d_a phi * exp(-phi) * w`` (complex) and ``(d_a phi dbar_b phi
- d_a dbar_b phi) * exp(-phi) * w`` (real for ``a = b``), which give the
exact base Hessians of the section functional (``bergman``).

Node values of a coefficient matrix are the adjoint of the ring Gram:
``sum_jk A[j, k] M_j(x) conj(M_k(x))`` is ``sum_jk A[j, k] r^(j+k) e^{i
(j-k) theta}`` per coordinate, so :func:`ring_synthesis` scatters ``A``
into the ``(s, e)`` table, ``e = j - k``, contracts each ``s`` axis with
that coordinate's ring powers, places the modes and takes one inverse FFT
over the angular axes, for a whole stack of matrices at once.  That costs
about ``rings * (2N+1)^2`` per coordinate and matrix plus one node-sized
FFT, against ``nodes * dim^2`` for the frame ``V C`` on the nodes.  The
kernel diagonal is the case ``A = P = C C^H``, the inverse Gram; the base
derivatives of ``P`` give the log-kernel jets of the iteration.

Every transform places angular modes by one rule, :func:`_fold`: mode ``e``
of a coordinate sits at DFT index ``e mod n``, ``n = n_angular``, and modes
that alias add.  The modes span that coordinate's exponent range ``lo..hi``
in the basis: ``e = j - k`` of a pair over ``lo - hi..hi - lo``, a
monomial's exponent over ``lo..hi``.  Mode ``e = a + p`` of a span starting
at ``a`` has the fold position ``(a + p) % n + n * (p // n)``, in rows of
``n`` laid end to end.  The synthesis directions write each mode there and
sum the rows where there is more than one; the reading directions (the
Gram's index tables and :func:`monomial_analysis`) gather at the position
modulo ``n``.  So each transform is the same discrete sum as its node
Vandermonde product at every degree, aliased or not.

Positivity is decided once per factored Gram, in :func:`cholesky_factor`
(a basis through :func:`orthonormalize`, a determinant frame directly):
each Cholesky pivot ``diag(L)_j^2`` against its own diagonal entry
``G_jj``.  That is the pivot test of the equilibrated Gram ``D^{-1/2} G
D^{-1/2}``, ``D = diag(G)``, and Cholesky's accuracy does not depend on
that scaling (van der Sluis, Numer. Math. 14, 1969; Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., sec. 10.1), so monomial norms
``~ R^(2k+2)`` spanning many decades on a disk of radius R are accepted
without rescaling anything.

Linear node fields have the same structure one index lower.  A
coefficient vector ``c`` has node values ``sum_j c_j M_j(x) = sum_e c_e
prod_c r_c^(e_c) e^{i e_c theta_c}``: :func:`monomial_synthesis` scales
each coordinate's coefficient table by the ring powers (an outer product)
and places the modes ``e`` for one inverse FFT.  Its adjoint
:func:`monomial_analysis` turns a node field ``f`` into the moments
``sum_x conj(M_j(x)) f(x)``: a forward FFT over the angular axes, the modes
gathered, each ring axis contracted with ``r^e``.  The pair is
``V c`` and ``V^H f`` over the node Vandermonde ``V`` without building
it, so no ``(nodes x dim)`` array exists anywhere; the kernel columns,
the fields of the L2 step and their orthogonality residual are read
through it.  :func:`vandermonde` itself serves small point sets
(sections, probes, samples).

A :class:`QuadratureRule` keeps its nodes per coordinate: one ``(n_radial,
n_angular)`` complex grid each, shaped to broadcast against the others, so
a node field that is a sum of per-coordinate terms (a weight and its base
jets, ``weights``) is evaluated term by term on ``n_radial * n_angular``
points and broadcast once; no ``(nodes, d)`` list of the nodes is built.
A rule holds at most :data:`MAX_NODES` nodes, and :meth:`QuadratureRule.memoize`
is the one store of results computed on it: read-only, one per ``(owner,
key)``, owners held weakly.  A :class:`MonomialBasis` owns its ring tables,
``("ring", real)``, and the iteration's sample frames; a weight what
``weights`` and ``bergman`` compute for it, keyed by base point (and
degree); the rule its radial derivative matrices.  :func:`build_quadrature`
returns one shared, read-only rule per ``(domain, n_radial, n_angular)`` for
the process, as :func:`monomial_basis` one basis per degree, so ring tables
are built once per process, not per scenario.  It keeps the last 8 rules; one
at the node cap takes 8 MB for its weights alone.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "FiberDomain",
    "QuadratureRule",
    "MonomialBasis",
    "DegenerateBasisError",
    "UnconvergedBasisError",
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
    "orthonormalize",
    "cholesky_factor",
]

DOMAIN_KINDS = ("disk", "polydisc", "annulus")

# Node cap of one quadrature rule.  A complex node field then takes at most
# 16 MB; a 2-D fiber at the 64 x 128 default would need 67M nodes.
MAX_NODES = 2**20

# Largest Gram factored by one LAPACK Cholesky call (see _cholesky).
CHOLESKY_BLOCK = 48

# A Cholesky pivot ``diag(L)_j^2`` at or below this fraction of its own
# diagonal entry ``G_jj`` marks basis element j as numerically dependent on
# the ones before it (see :func:`orthonormalize`).
PIVOT_RTOL = 1e-13


class DegenerateBasisError(ArithmeticError):
    """Cholesky pivot collapsed: basis numerically dependent at some degree."""


class UnconvergedBasisError(ArithmeticError):
    """Convergence diagnostics failed; no verdict was produced."""


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
        if not all(0 < r < math.inf for r in radii):
            raise ValueError(f"outer radii must be finite and positive, got {radii}")
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


def _freeze(value):
    """``value``, with every array in it made read-only, also inside nested
    tuples: the one place arrays are frozen."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    return value


class RingTables(NamedTuple):
    """Tables of the ring transforms over one basis (:meth:`QuadratureRule.ring_tables`)."""

    fold: tuple  # per coordinate, _fold of the pair modes e_c = j_c - k_c, lo_c - hi_c..hi_c - lo_c
    powers: tuple  # per coordinate, the ring powers r^s over the pair sums s_c = 2 lo_c..2 hi_c
    monomials: tuple  # per coordinate, (e_c - lo_c over the basis, r^e and _fold of e = lo_c..hi_c)
    kept: int  # 1-D: leading DFT indices of the angular axis that ring_gram contracts
    index: tuple  # 1-D: (s_1, q_1), q the DFT index, of each value ring_gram reads; 2-D: (row, q_2)
    columns: tuple  # 2-D: per DFT column q_1 read, (q_1, its rows' slice, r_1^(s_1) of those rows)
    read_powers: np.ndarray  # r_2^(s_2) for those values, leading ring axis; empty in 1-D
    dest: tuple | None  # (rows, cols) each value is written to; None: every entry, row-major


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tensor-product polar rule over a :class:`FiberDomain`, kept per coordinate.

    ``grids`` holds one read-only complex ``(n_radial, n_angular)`` node
    grid per coordinate, shaped to broadcast against the others: ``(nr,
    na)`` on a 1-D fiber, ``(nr, na, 1, 1)`` and ``(1, 1, nr, na)`` on a
    2-D one.  A node field is a field on their broadcast, raveled in the
    node order ``(r_1, theta_1, ..., r_d, theta_d)``.  ``weights``, one per
    node, are the outer product of the per-coordinate weights and already
    include the polar Jacobian.  ``shape`` records ``(n_radial,
    n_angular)`` per coordinate and ``radial_nodes`` the per-coordinate
    radii; :meth:`grid_view` reshapes node fields to the full polar grid.
    """

    domain: FiberDomain
    shape: tuple[tuple[int, int], ...]
    grids: tuple[np.ndarray, ...] = field(repr=False)
    weights: np.ndarray = field(repr=False)
    radial_nodes: tuple[np.ndarray, ...] = field(repr=False)
    # The one store of results computed on this rule, weakly keyed by owner.
    _memo: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def memo(self, owner) -> dict:
        """This rule's store of results computed for ``owner``: a weight, for
        its node fields (``weights``) and its bases, Gram derivatives,
        section values and Hessians and node contractions (``bergman``); a
        :class:`MonomialBasis`, for its ring tables and the iteration's
        sample frames (``iteration``); or the rule itself, for its radial
        derivative matrices and polar factors (``hormander``).  The iteration's steps store nothing: their
        potentials and mixed weights are arrays, not owners.

        Stores are held weakly by owner, so an entry is freed as soon as its
        owner goes, or the rule, which :func:`build_quadrature` keeps past
        any one scenario.  Stored values must not refer to the owner (that
        would keep it alive) or to the rule (a cycle that only the cyclic
        garbage collector frees).
        """
        store = self._memo.get(owner)
        if store is None:
            store = self._memo[owner] = {}
        return store

    def memoize(self, owner, key, compute):
        """``compute()``, kept in ``self.memo(owner)`` under ``key``: the one
        store of per-rule results.  Every array of the result, also inside
        nested tuples, is made read-only (:func:`_freeze`) before it is
        stored, so every caller shares the same numbers.  A ``compute`` that
        raises stores nothing, so it raises again.
        """
        store = self.memo(owner)
        out = store.get(key)
        if out is None:
            out = store[key] = _freeze(compute())
        return out

    def ring_tables(self, basis: MonomialBasis, real: bool = False) -> RingTables:
        """Index and radial-power tables of the ring transforms over ``basis``
        on this rule over each coordinate's exponent range ``lo..hi`` (module
        docstring), memoized under ``basis``, one set per front end of
        :func:`ring_gram`.  The complex front end reads every
        Gram entry ``(j, k)`` at the DFT index of ``e``.  The real one reads
        only ``basis.half_pairs`` from the half spectrum ``0..n_angular // 2``
        of its first angular axis: at ``-e``, whose conjugate is ``G[j, k]``,
        so the value is written to ``(k, j)``; or, where ``-e_1`` aliases past
        the half spectrum, at ``e``, which is ``G[j, k]`` itself.  In 2-D the
        distinct ``(s_1, q_1)`` rows read are grouped by column (``columns``).
        """
        return self.memoize(basis, ("ring", real), lambda: self._ring_tables(basis, real))

    def _ring_tables(self, basis: MonomialBasis, real: bool) -> RingTables:
        E, ranges, na = basis.exponent_array, basis.exponent_range, [n for _nr, n in self.shape]
        w = [b - a for a, b in ranges]
        j, k, *se = basis.half_pairs if real else basis.pairs  # mode -e sits at 2w - (e + w)
        if real:
            fold, powers, monomials = self.ring_tables(basis)[:3]
            dft = [f % n for f, n in zip(fold, na)]
            direct = dft[0][2 * w[0] - se[1]] > na[0] // 2
            q = tuple(d[np.where(direct, e, 2 * v - e)] for d, v, e in zip(dft, w, se[1::2]))
            dest, kept = (np.where(direct, j, k), np.where(direct, k, j)), min(w[0], na[0] // 2) + 1
        else:
            fold = tuple(_fold(-v, v, n) for v, n in zip(w, na))
            powers = tuple(r[:, None] ** np.arange(2 * a, 2 * b + 1)[None, :]
                           for r, (a, b) in zip(self.radial_nodes, ranges))
            monomials = tuple((E[:, c] - a, P[:, -a : b - 2 * a + 1], _fold(a, b, n))
                              for c, (P, (a, b), n) in enumerate(zip(powers, ranges, na)))
            q = tuple((f % n)[e] for f, e, n in zip(fold, se[1::2], na))
            dest, kept = None, na[0]
        index, columns, read_powers = (se[0],) + q, (), np.empty(0)
        if basis.fiber_dim == 2:  # the distinct (q_1, s_1) rows read, grouped by column q_1
            S = powers[0].shape[1]
            rows, row = np.unique(q[0] * S + se[0], return_inverse=True)
            cols, start = np.unique(rows // S, return_index=True)
            bounds = zip(cols.tolist(), start.tolist(), start[1:].tolist() + [len(rows)])
            columns = tuple((c, slice(a, b), powers[0].T[rows[a:b] % S]) for c, a, b in bounds)
            index, read_powers = (row, q[1]), powers[1][:, se[2]]
        return RingTables(fold, powers, monomials, kept, index, columns, read_powers, dest)

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
    return _freeze(leggauss(n))


def build_quadrature(domain: FiberDomain, n_radial: int = 64, n_angular: int = 128) -> QuadratureRule:
    """Tensor Gauss-Legendre (radius) x trapezoid (angle) rule on ``domain``,
    one shared, read-only rule per resolution however it is spelled (module
    docstring); ``build_quadrature.cache_clear()`` drops the kept rules.

    Node count grows as ``(n_radial * n_angular) ** d``; d = 2 fibers should
    use a much coarser per-coordinate resolution than the d = 1 default.
    Above :data:`MAX_NODES` nodes a ``ValueError`` is raised before any
    allocation.
    """
    return _quadrature(domain, operator.index(n_radial), operator.index(n_angular))


@functools.lru_cache(maxsize=8)  # at most 64 MB of weights at the node cap
def _quadrature(domain: FiberDomain, n_radial: int, n_angular: int) -> QuadratureRule:
    check_resolution(n_radial, n_angular, domain.dim)
    x, w = _gauss_legendre(n_radial)
    d = domain.dim
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular
    grids, coord_wts, radial = [], [], []
    for c, (ro, ri) in enumerate(zip(domain.radii, domain.inner_radii)):
        r = ri + (x + 1.0) * 0.5 * (ro - ri)
        wr = w * 0.5 * (ro - ri) * r  # polar Jacobian
        z = r[:, None] * np.exp(1j * theta)[None, :]
        z = z.reshape((1, 1) * c + z.shape + (1, 1) * (d - 1 - c))  # broadcasts against the others
        grids.append(_freeze(z))
        coord_wts.append(wr[:, None] * np.full(n_angular, wt)[None, :])
        radial.append(r)
    weights = functools.reduce(np.multiply.outer, coord_wts).ravel()  # node order
    vol = domain.volume
    if abs(weights.sum() - vol) > 1e-12 * vol:
        raise AssertionError("quadrature weights do not sum to the domain volume")
    return QuadratureRule(
        domain=domain,
        shape=tuple((n_radial, n_angular) for _ in range(d)),
        grids=tuple(grids),
        weights=_freeze(weights),
        radial_nodes=_freeze(tuple(radial)),
    )


build_quadrature.cache_clear = _quadrature.cache_clear


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of total degree <= max_degree in graded lexicographic order.

    ``exponent_array`` holds the exponents as a read-only ``(dim,
    fiber_dim)`` integer array, built once per basis: its columns index
    the per-coordinate power tables of :func:`vandermonde`, and
    ``exponent_range`` each column's ``(lo, hi)``.  ``pairs`` holds ``(j, k,
    s_1, e_1, ..., s_d, e_d)`` over every pair of basis elements, row-major,
    at their places in the ring tables: ``s_c = j_c + k_c - 2 lo_c`` and
    ``e_c = j_c - k_c + hi_c - lo_c``; and ``half_pairs`` the same over the
    pairs a Hermitian Gram needs, ``j_1 < k_1``, or ``j_1 = k_1`` and ``j <=
    k`` (see :meth:`QuadratureRule.ring_tables`).
    """

    fiber_dim: int
    max_degree: int
    exponents: tuple[tuple[int, ...], ...]
    exponent_array: np.ndarray = field(init=False, repr=False, compare=False)
    exponent_range: tuple = field(init=False, repr=False, compare=False)
    pairs: tuple = field(init=False, repr=False, compare=False)
    half_pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        E = np.array(self.exponents, dtype=int).reshape(len(self.exponents), self.fiber_dim)
        ranges = tuple(zip(E.min(axis=0).tolist(), E.max(axis=0).tolist()))
        j, k = np.indices((len(E), len(E))).reshape(2, -1)
        pairs = (j, k)
        for c, (lo, hi) in enumerate(ranges):
            pairs += (E[j, c] + E[k, c] - 2 * lo, E[j, c] - E[k, c] + hi - lo)
        e1 = E[j, 0] - E[k, 0]
        half = tuple(x[(e1 < 0) | (e1 == 0) & (j <= k)] for x in pairs)
        _freeze((E,) + pairs + half)
        object.__setattr__(self, "exponent_array", E)
        object.__setattr__(self, "exponent_range", ranges)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "half_pairs", half)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def truncated_dim(self, degree: int) -> int:
        """Number of leading exponents of total degree <= degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return math.comb(degree + self.fiber_dim, self.fiber_dim)


@functools.lru_cache(maxsize=32)
def monomial_basis(max_degree: int, fiber_dim: int = 1) -> MonomialBasis:
    """The degree-``max_degree`` basis, one shared (frozen, read-only)
    instance per ``(max_degree, fiber_dim)``."""
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


def ring_gram(basis: MonomialBasis, measure, quad: QuadratureRule, *, _consume=False) -> np.ndarray:
    """``sum_x conj(M_j(x)) M_k(x) measure(x)`` over the nodes, ring by ring.

    ``measure`` is any real or complex node field, quadrature weights
    included (see the module docstring).  A real measure's Gram is
    Hermitian, with a real diagonal, by construction.  Both front ends read
    their rows and entries through :meth:`QuadratureRule.ring_tables`: one
    radial GEMM and one gather in 1-D, a GEMM per DFT column ``q_1`` in 2-D
    (module docstring).  No positivity test, and ``measure`` is not written
    to (the private ``_consume=True`` hands a buffer over in a one-item list).
    """
    grid = np.asarray(measure.pop() if _consume else measure)
    if grid.shape != (quad.size,):
        raise ValueError(f"expected {quad.size} measure values, got shape {grid.shape}")
    real = not np.iscomplexobj(grid)
    tables = quad.ring_tables(basis, real)
    grid = quad.grid_view(grid)  # axes (r_1, theta_1[, r_2, theta_2])
    fft = np.fft.rfft if real else np.fft.fft
    if basis.fiber_dim == 1:
        G = _real_product(tables.powers[0].T, fft(grid, axis=1)[:, : tables.kept])[tables.index]
    else:
        nr2, na2 = quad.shape[1]
        # DFT column q_1 is r_1 strided rows, each one contiguous (r_2, theta_2)
        # block; a consumed complex measure becomes its own spectrum
        F = fft(grid, axis=1, out=grid if _consume and not real else None)
        del grid  # a consumed measure lives on only as F (complex) or not at all (real)
        Y = np.empty((tables.columns[-1][1].stop, nr2, na2), dtype=complex)  # every row read
        for q1, rows, P in tables.columns:  # ring axis 1 -> s_1, only at the rows read
            _real_product(P, F[:, q1], out=Y[rows])
        del F  # the gather below takes its memory, not fresh pages
        Y = np.fft.fft(Y, axis=2, out=Y)
        row, q2 = tables.index  # ring axis 2 only at the (row, q_2) the Gram reads
        G = np.einsum("...r,r...->...", Y[row, :, q2], tables.read_powers)
    if tables.dest is None:
        return G.reshape(basis.dim, basis.dim)
    out = np.empty((basis.dim, basis.dim), dtype=complex)
    out[tables.dest] = G
    out[tables.dest[::-1]] = G.conj()
    return out


def _real_product(P: np.ndarray, T: np.ndarray, out=None) -> np.ndarray:
    """``P @ T`` over the first axis of a complex ``T`` as one real GEMM on
    its (re, im) pairs, written to the contiguous ``out`` where one is given;
    ``T`` is copied only where its trailing axes do not flatten to one
    contiguous row per entry of the first axis."""
    T2 = T.reshape(len(T), -1).view(float)
    if out is None:
        return (P @ T2).view(complex).reshape(P.shape[:1] + T.shape[1:])
    np.matmul(P, T2, out=out.reshape(len(P), -1).view(float))
    return out


def gram_matrix(
    basis: MonomialBasis, weight_values: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """Weighted Gram matrix of the monomial basis, assembled ring by ring.

    Entry ``G[j, k]`` pairs monomial ``k`` against the conjugate of monomial
    ``j``, so ``v^H G v = ||sum_j v_j m_j||^2``.  The node sum is the
    :func:`ring_gram` of the real measure ``weight_values * quad.weights``,
    Hermitian by construction.  Weight values must be finite and
    nonnegative: an ``exp(-phi)`` that underflows to 0 is accepted.
    Positivity is tested by :func:`orthonormalize`, not here: a quadrature
    too coarse for the degree (angular aliasing makes distinct monomials
    collide on the nodes), or zeros on too many nodes, shows there as a
    collapsed pivot.
    """
    wv = np.asarray(weight_values, dtype=float)
    if wv.shape != (quad.size,):
        raise ValueError(f"expected {quad.size} weight values, got shape {wv.shape}")
    if not np.all(np.isfinite(wv)) or np.any(wv < 0):
        raise ValueError("weight values must be finite and nonnegative")
    return ring_gram(basis, wv * quad.weights, quad)


def ring_synthesis(
    basis: MonomialBasis, coeffs: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """``M(x)^T A conj(M(x))`` on every node, for a stack of coefficient matrices.

    ``coeffs`` has shape ``(..., dim, dim)`` and the result ``(..., nodes)``
    (complex; real up to round-off where ``A`` is Hermitian): the adjoint of
    :func:`ring_gram`, with one inverse FFT for the whole stack and no node
    Vandermonde (see the module docstring).
    """
    A = np.asarray(coeffs)
    lead = A.shape[:-2]
    A = A.reshape((-1,) + A.shape[-2:])
    fold, powers = quad.ring_tables(basis)[:2]
    T = np.zeros((len(A),) + sum(((P.shape[1], f.size) for P, f in zip(powers, fold)), ()), complex)
    T[(slice(None),) + basis.pairs[2:]] = A.reshape(len(A), -1)  # (j, k) -> (s, e) is one-to-one
    for c, (f, P) in enumerate(zip(fold, powers)):
        # replace radial-power axis s of coordinate c by the ring axis
        axis = 1 + 2 * c
        T = np.moveaxis(_real_product(P, np.moveaxis(T, axis, 0)), 0, axis)
        T = _place_modes(T, f, quad.shape[c][1], axis + 1)
    K = _angular_fft(np.fft.ifft, T, out=T)  # in place: no stack-sized temporaries
    K *= math.prod(quad.grid_shape[1::2])
    return K.reshape(lead + (quad.size,))


def _fold(lo: int, hi: int, n: int) -> np.ndarray:
    """Fold positions of the angular modes ``lo..hi`` on ``n`` angles (module docstring)."""
    p = np.arange(hi - lo + 1)
    return (lo + p) % n + n * (p // n)


def _place_modes(T: np.ndarray, fold: np.ndarray, n: int, axis: int) -> np.ndarray:
    """``T`` with its mode axis ``axis`` replaced by ``n`` angles, each mode
    written at its ``fold`` position and the rows summed: aliases add.  One
    row (no mode aliases) is a run of positions that wraps at most once, so
    it is written by two slice copies."""
    rows = int(fold[-1]) // n + 1
    X = np.zeros(T.shape[:axis] + (rows * n,) + T.shape[axis + 1 :], dtype=complex)
    at = (slice(None),) * axis
    if rows == 1:
        a = int(fold[0])
        split = min(len(fold), n - a)  # modes before the wrap to index 0
        X[at + (slice(a, a + split),)] = T[at + (slice(None, split),)]
        X[at + (slice(None, len(fold) - split),)] = T[at + (slice(split, None),)]
        return X
    X[at + (fold,)] = T
    return X.reshape(T.shape[:axis] + (rows, n) + T.shape[axis + 1 :]).sum(axis)


def _angular_fft(transform, grid: np.ndarray, out=None) -> np.ndarray:
    """``np.fft.fftn`` (or ``ifftn``) of a stack ``grid`` over its angular
    axes ``2, 4, ...``, one ``transform`` per axis in the order
    ``fftn`` takes them (the last first), so the same numbers without its
    argument handling.  The first pass writes to ``out`` (a new array when
    none is given) and every later pass runs in place on it."""
    for axis in range(grid.ndim - 1, 1, -2):
        grid = out = transform(grid, axis=axis, out=out)
    return grid


def monomial_synthesis(
    basis: MonomialBasis, coeffs: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """``sum_j c_j M_j(x)`` on every node, for a stack of coefficient vectors.

    ``coeffs`` has shape ``(..., dim)`` and the result ``(..., nodes)``: the
    product ``V c`` with the node Vandermonde ``V``, which is not built (see
    the module docstring).
    """
    c = np.asarray(coeffs)
    lead = c.shape[:-1]
    c = c.reshape(-1, basis.dim)
    exps, powers, folds = zip(*quad.ring_tables(basis).monomials)
    T = np.zeros((c.shape[0],) + tuple(len(f) for f in folds), dtype=complex)
    T[(slice(None),) + exps] = c
    for c_axis, (P, f) in enumerate(zip(powers, folds)):
        axis = 1 + 2 * c_axis  # axes (stack, r_1, theta_1, ..., e_c, ...): add r_c before e_c
        T = np.expand_dims(T, axis) * P.reshape(P.shape + (1,) * (T.ndim - axis - 1))
        T = _place_modes(T, f, quad.shape[c_axis][1], axis + 1)
    X = _angular_fft(np.fft.ifft, T, out=T)
    return (X * math.prod(quad.grid_shape[1::2])).reshape(lead + (quad.size,))


def monomial_analysis(
    basis: MonomialBasis, values: np.ndarray, quad: QuadratureRule
) -> np.ndarray:
    """Moments ``sum_x conj(M_j(x)) f(x)`` of a stack of node fields.

    ``values`` has shape ``(..., nodes)`` and the result ``(..., dim)``:
    the product ``V^H f``, the adjoint of :func:`monomial_synthesis`.  The
    ring axes are contracted by one plain ``einsum``, not a BLAS product, so
    its summation order, and hence every bit of the result, does not follow
    the BLAS thread count.
    """
    f = np.asarray(values)
    lead = f.shape[:-1]
    if f.shape[-1:] != (quad.size,):
        raise ValueError(f"expected {quad.size} node values, got shape {f.shape}")
    exps, powers, folds = zip(*quad.ring_tables(basis).monomials)
    F = _angular_fft(np.fft.fft, quad.grid_view(f.reshape(-1, quad.size)))
    for c, fold in enumerate(folds):
        F = np.take(F, fold % quad.shape[c][1], axis=2 + 2 * c)
    axes = ("aj", "bk")[: basis.fiber_dim]  # (ring, exponent) per coordinate
    spec = "s" + "".join(axes) + "," + ",".join(axes) + "->s" + "jk"[: basis.fiber_dim]
    M = np.einsum(spec, F, *powers)
    return M[(slice(None),) + exps].reshape(lead + (basis.dim,))


def orthonormalize(gram: np.ndarray, exponents: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Cholesky-based orthonormalizing transform for a Hermitian Gram matrix.

    Returns ``transform`` with ``transform^H G transform = I``; its columns
    are coefficient vectors of an orthonormal frame.  Because the
    factorization is triangular, the leading principal block of the
    transform orthonormalizes the corresponding leading sub-basis, which
    keeps degree-truncation diagnostics cheap.  The factor is
    :func:`cholesky_factor`'s, so a collapsed pivot raises
    :class:`DegenerateBasisError` naming the offending exponent.
    """
    label = lambda j: f"exponent {exponents[j]}"
    return np.linalg.inv(cholesky_factor(gram, label, "degenerate basis")).conj().T


def cholesky_factor(gram: np.ndarray, label, what: str) -> np.ndarray:
    """Lower Cholesky factor ``L``, ``G = L L^H``, of a Hermitian Gram matrix.

    One LAPACK Cholesky factorization up to :data:`CHOLESKY_BLOCK` rows,
    a blocked one above (see :func:`_cholesky`).  This is the one
    positivity test of every Gram, of a basis and of a determinant frame
    alike: a pivot ``diag(L)_j**2`` at or below ``PIVOT_RTOL * G_jj``, its
    own diagonal entry, raises :class:`DegenerateBasisError` with the
    message ``what: ...`` naming ``label(j)``.  On ``D G D``, ``D``
    positive diagonal, pivots and diagonal scale alike, so the test does
    not see the scale of the monomials (module docstring).  A failed
    factorization with no such pivot raises :class:`UnconvergedBasisError`
    (:func:`_collapsed_pivot`).
    """
    G = np.array(gram, dtype=complex)
    dim = G.shape[0]
    if G.shape != (dim, dim):
        raise ValueError("gram must be square")
    scale = max(float(np.abs(G).max()), 1e-300)
    if float(np.abs(G - G.conj().T).max()) > 1e-12 * scale:
        raise ValueError("gram must be Hermitian")
    threshold = PIVOT_RTOL * np.real(np.diag(G))
    try:
        L = _cholesky(G)
        pivots = np.real(np.diag(L)) ** 2
        low = np.flatnonzero(pivots <= threshold)
        collapsed = (int(low[0]), float(pivots[low[0]])) if low.size else None
    except np.linalg.LinAlgError:
        collapsed = _collapsed_pivot(G, threshold)
    if collapsed is not None:
        j, pivot = collapsed
        raise DegenerateBasisError(
            f"{what}: Cholesky pivot {pivot:.3e} at {label(j)} "
            f"(threshold {PIVOT_RTOL:.1e} * its diagonal entry {np.real(G[j, j]):.3e})"
        )
    return L


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


def _collapsed_pivot(G: np.ndarray, threshold: np.ndarray) -> tuple[int, float]:
    """Index and value of the first Cholesky pivot at or below its entry of
    ``threshold`` (one per index).

    Error path only: LAPACK reports that a factorization failed, not where.
    The leading blocks are factored in turn; the pivot of the first block
    that fails is the Schur complement of its last diagonal entry against
    the block before it.  When every leading block passes, the failure is
    one of precision at this size, not a dependent basis element: it
    raises :class:`UnconvergedBasisError`, which names the degree.
    """
    L = np.zeros((0, 0), dtype=complex)
    for j in range(G.shape[0]):
        try:
            L = np.linalg.cholesky(G[: j + 1, : j + 1])
        except np.linalg.LinAlgError:
            x = np.linalg.solve(L, G[:j, j]) if j else np.zeros(0)
            return j, float(np.real(G[j, j]) - np.real(np.vdot(x, x)))
        pivot = float(np.real(L[j, j])) ** 2
        if pivot <= threshold[j]:
            return j, pivot
    raise UnconvergedBasisError(
        f"degree too high for double precision: the Cholesky factorization of a "
        f"{G.shape[0]}-row Gram failed although every leading block passed its pivot test; "
        f"lower degree")
