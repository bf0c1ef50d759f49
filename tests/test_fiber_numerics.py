"""Fiber quadrature, monomial bases, Gram assembly, orthonormalization.

Reference values used below, all classical:

* area of the unit disk = pi; integral of |z|^2 over it = pi/2,
* Gaussian radial moments over the unit disk,
      integral |z|^(2k) exp(-|z|^2) dA = pi * lowergamma(k+1, 1),
  which scipy provides as ``gammainc(k+1, 1) * k!`` (regularized times
  Gamma); spelled out, the first few are pi*(1-1/e), pi*(1-2/e), pi*(2-5/e),
* the unweighted disk kernel at the center: K(0,0) = 1/pi at every degree.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import bergman_lab.fiber_numerics as fiber_numerics
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc

import bergman_lab.bergman as bergman_module
from bergman_lab.bergman import bergman_basis, kernel_eval
from bergman_lab.fiber_numerics import (
    DegenerateBasisError,
    FiberDomain,
    build_quadrature,
    MAX_NODES,
    gram_matrix,
    ring_synthesis,
    monomial_analysis,
    monomial_basis,
    monomial_synthesis,
    monomial_gradient,
    orthonormalize,
    ring_gram,
    vandermonde,
)
from bergman_lab.weights import QuadraticWeight
from helpers import node_list, weighted_inner_product


def gaussian_moment(k: int) -> float:
    """pi * lowergamma(k+1, 1): the weighted norm^2 of z^k on the unit disk."""
    return math.pi * gammainc(k + 1, 1.0) * math.factorial(k)


class TestDomains:
    def test_volumes(self):
        assert FiberDomain.disk(1.0).volume == pytest.approx(math.pi, rel=1e-15)
        assert FiberDomain.polydisc(1.0, 1.0).volume == pytest.approx(math.pi**2, rel=1e-15)
        assert FiberDomain.annulus(0.5, 1.0).volume == pytest.approx(math.pi * 0.75, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiberDomain("ball", (1.0,))
        with pytest.raises(ValueError):
            FiberDomain.polydisc(1.0, 1.0, 1.0)  # fiber dimension capped at 2
        with pytest.raises(ValueError):
            FiberDomain.annulus(1.0, 0.5)
        with pytest.raises(ValueError):
            FiberDomain.disk(-1.0)
        with pytest.raises(ValueError):
            FiberDomain("disk", (1.0,), (0.2,))

    def test_contains_margin(self):
        dom = FiberDomain.disk(1.0)
        pts = np.array([[0.0], [0.97 + 0j], [1.2 + 0j]])
        assert dom.contains(pts).tolist() == [True, True, False]
        assert dom.contains(pts, margin_frac=0.05).tolist() == [True, False, False]

    def test_contains_annulus(self):
        dom = FiberDomain.annulus(0.5, 1.0)
        pts = np.array([[0.6 + 0j], [0.4 + 0j], [0.51 + 0j]])
        assert dom.contains(pts).tolist() == [True, False, True]
        assert not dom.contains(pts, margin_frac=0.1)[2]


class TestQuadrature:
    def test_disk_area(self, disk_quad):
        assert disk_quad.weights.sum() == pytest.approx(math.pi, rel=1e-14)

    def test_disk_second_moment(self, disk_quad):
        val = np.sum(np.abs(node_list(disk_quad)[:, 0]) ** 2 * disk_quad.weights)
        assert val == pytest.approx(math.pi / 2, rel=1e-13)

    def test_gaussian_moments(self, disk_quad):
        w = np.exp(-np.abs(node_list(disk_quad)[:, 0]) ** 2)
        for k in range(6):
            val = np.sum(np.abs(node_list(disk_quad)[:, 0]) ** (2 * k) * w * disk_quad.weights)
            assert val == pytest.approx(gaussian_moment(k), rel=1e-12)

    def test_angular_exactness(self, disk_quad):
        # z^a conj(z)^b integrates to zero unless a == b
        z = node_list(disk_quad)[:, 0]
        for a, b in [(1, 0), (3, 1), (0, 2), (5, 2)]:
            val = np.sum(z**a * np.conj(z) ** b * disk_quad.weights)
            assert abs(val) < 1e-13

    def test_annulus_moments(self):
        quad = build_quadrature(FiberDomain.annulus(0.5, 1.0), n_radial=32, n_angular=64)
        assert quad.weights.sum() == pytest.approx(math.pi * 0.75, rel=1e-13)
        # integral of |z|^2: 2*pi*(R^4 - r^4)/4
        val = np.sum(np.abs(node_list(quad)[:, 0]) ** 2 * quad.weights)
        assert val == pytest.approx(math.pi * (1 - 0.5**4) / 2, rel=1e-12)

    def test_polydisc_volume(self):
        quad = build_quadrature(FiberDomain.polydisc(1.0, 1.0), n_radial=12, n_angular=24)
        assert quad.weights.sum() == pytest.approx(math.pi**2, rel=1e-12)
        # one grid per coordinate, broadcasting to the node grid; no node list
        assert [g.shape for g in quad.grids] == [(12, 24, 1, 1), (1, 1, 12, 24)]
        assert not hasattr(quad, "nodes") and not hasattr(quad, "points")

    def test_polydisc_mixed_moment(self):
        quad = build_quadrature(FiberDomain.polydisc(1.0, 1.0), n_radial=12, n_angular=24)
        z = node_list(quad)
        val = np.sum(np.abs(z[:, 0]) ** 2 * np.abs(z[:, 1]) ** 4 * quad.weights)
        assert val == pytest.approx((math.pi / 2) * (math.pi / 3), rel=1e-12)

    def test_one_rule_per_resolution(self):
        dom = FiberDomain.annulus(0.4, 1.0)
        rule = build_quadrature(dom, 20, 40)
        assert build_quadrature(FiberDomain.annulus(0.4, 1.0), n_radial=20, n_angular=40) is rule
        assert build_quadrature(dom, np.int64(20), n_angular=40) is rule
        assert build_quadrature(FiberDomain.disk(1.0)) is build_quadrature(FiberDomain.disk(1.0), 64, 128)
        assert build_quadrature(dom, 20, 48) is not rule
        assert build_quadrature(FiberDomain.annulus(0.5, 1.0), 20, 40) is not rule
        for arr in (rule.weights, *rule.grids, *rule.radial_nodes):
            assert not arr.flags.writeable
        with pytest.raises(TypeError):
            build_quadrature(dom, 20.0, 40)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            build_quadrature(FiberDomain.disk(1.0), n_radial=3)
        with pytest.raises(ValueError):
            build_quadrature(FiberDomain.disk(1.0), n_angular=6)

    def test_node_cap(self):
        # 33 x 32 per coordinate: 1056^2 nodes, just above the 2^20 cap
        assert (33 * 32) ** 2 > MAX_NODES
        with pytest.raises(ValueError, match=r"1,115,136 nodes.*quadrature 32 32"):
            build_quadrature(FiberDomain.polydisc(1.0, 1.0), n_radial=33, n_angular=32)
        quad = build_quadrature(FiberDomain.polydisc(1.0, 1.0), n_radial=32, n_angular=32)
        assert quad.size == MAX_NODES
        # the d = 1 rule at the same per-coordinate resolution is far below the cap
        assert build_quadrature(FiberDomain.disk(1.0), 33, 32).size == 33 * 32

    @pytest.mark.parametrize("dom", [FiberDomain.disk(1.0), FiberDomain.annulus(0.3, 1.0),
                                     FiberDomain.polydisc(1.0, 0.6)], ids=["disk", "annulus", "polydisc"])
    def test_weights_and_grids_equal_the_repeat_tile_node_list(self, dom):
        # the reference construction: np.repeat / np.tile of the flat
        # per-coordinate nodes and weights
        nr, na = 8, 16
        quad = build_quadrature(dom, nr, na)
        x, w = leggauss(nr)
        theta = 2.0 * np.pi * np.arange(na) / na
        nodes, wts = [], []
        for ro, ri in zip(dom.radii, dom.inner_radii):
            r = ri + (x + 1.0) * 0.5 * (ro - ri)
            nodes.append((r[:, None] * np.exp(1j * theta)[None, :]).ravel())
            wts.append((w * 0.5 * (ro - ri) * r)[:, None] * np.full(na, 2.0 * np.pi / na)[None, :])
        if dom.dim == 1:
            ref_nodes, ref_weights = nodes[0][:, None], wts[0].ravel()
        else:
            (a, b), (wa, wb) = nodes, (wts[0].ravel(), wts[1].ravel())
            ref_nodes = np.stack([np.repeat(a, b.size), np.tile(b, a.size)], axis=1)
            ref_weights = np.repeat(wa, wb.size) * np.tile(wb, wa.size)
        assert np.array_equal(quad.weights, ref_weights)
        on_grids = np.stack(np.broadcast_arrays(*quad.grids), axis=-1).reshape(-1, dom.dim)
        assert np.array_equal(on_grids, ref_nodes)
        assert all(not g.flags.writeable for g in quad.grids)

    def test_grid_view_roundtrip(self, disk_quad):
        vals = np.arange(disk_quad.size, dtype=float)
        grid = disk_quad.grid_view(vals)
        assert grid.shape == (48, 96)
        assert np.array_equal(grid.ravel(), vals)


class TestMonomialBasis:
    def test_dimension_1d(self):
        basis = monomial_basis(5, fiber_dim=1)
        assert basis.dim == 6
        assert basis.exponents[:3] == ((0,), (1,), (2,))

    def test_dimension_2d_graded(self):
        basis = monomial_basis(2, fiber_dim=2)
        assert basis.dim == 6
        assert basis.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_truncated_dim(self):
        basis = monomial_basis(6, fiber_dim=2)
        assert basis.truncated_dim(4) == 15
        assert basis.truncated_dim(0) == 1

    @given(st.integers(0, 9), st.integers(1, 2))
    def test_dim_formula(self, n, d):
        assert monomial_basis(n, d).dim == math.comb(n + d, d)

    def test_vandermonde_values(self):
        basis = monomial_basis(2, fiber_dim=2)
        pts = np.array([[2.0 + 0j, 3.0 + 0j]])
        row = vandermonde(basis, pts)[0]
        assert np.allclose(row, [1, 2, 3, 4, 6, 9])

    def test_vandermonde_1d_accepts_flat(self):
        basis = monomial_basis(3)
        z = np.array([0.5 + 0.5j, -1j])
        V = vandermonde(basis, z)
        assert np.allclose(V[:, 2], z**2)


def vandermonde_reference(basis, nodes):
    """The Vandermonde as built before the exponent table moved onto the
    basis: index arrays rebuilt from ``basis.exponents`` on every call."""
    pts = np.asarray(nodes, dtype=complex)
    if pts.ndim == 1:
        pts = pts[:, None]
    out = np.ones((pts.shape[0], basis.dim), dtype=complex)
    for c in range(basis.fiber_dim):
        powers = pts[:, c, None] ** np.arange(basis.max_degree + 1)[None, :]
        idx = np.fromiter((e[c] for e in basis.exponents), dtype=int, count=basis.dim)
        out *= powers[:, idx]
    return out


class TestVandermondeTables:
    @pytest.mark.parametrize("N, d", [(0, 1), (16, 1), (10, 2), (7, 2)])
    def test_bitwise_unchanged(self, N, d, rng):
        basis = monomial_basis(N, d)
        pts = rng.normal(size=(37, d)) + 1j * rng.normal(size=(37, d))
        V = vandermonde(basis, pts)
        assert V.tobytes() == vandermonde_reference(basis, pts).tobytes()

    def test_exponent_table_built_once_and_read_only(self):
        basis = monomial_basis(5, 2)
        assert basis.exponent_array.tolist() == [list(e) for e in basis.exponents]
        assert not basis.exponent_array.flags.writeable
        # the table takes no part in equality or hashing
        assert basis == monomial_basis(5, 2) and hash(basis) == hash(monomial_basis(5, 2))

    @pytest.mark.parametrize("d", [1, 2])
    def test_monomial_gradient_matches_differences(self, d, rng):
        basis = monomial_basis(6, d)
        pts = 0.5 * (rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d)))
        grad = monomial_gradient(basis, pts)
        h = 1e-6
        for c in range(d):
            step = np.zeros(d, dtype=complex)
            step[c] = h
            # holomorphic: d/dz is the complex difference quotient
            fd = (vandermonde(basis, pts + step) - vandermonde(basis, pts - step)) / (2 * h)
            assert np.abs(grad[:, c] - fd).max() < 1e-8


class TestInnerProduct:
    def test_matches_oracle(self, disk_quad):
        w = np.exp(-np.abs(node_list(disk_quad)[:, 0]) ** 2)
        val = weighted_inner_product(lambda z: z, lambda z: z, w, disk_quad)
        assert val == pytest.approx(gaussian_moment(1), rel=1e-12)

    def test_conjugate_symmetry(self, disk_quad):
        w = np.exp(-np.abs(node_list(disk_quad)[:, 0]) ** 2)
        a = weighted_inner_product(lambda z: z, lambda z: z**2 + 1, w, disk_quad)
        b = weighted_inner_product(lambda z: z**2 + 1, lambda z: z, w, disk_quad)
        assert a == pytest.approx(np.conj(b), abs=1e-14)

    def test_rejects_bad_weight(self, disk_quad):
        w = np.ones(disk_quad.size)
        w[0] = -1.0
        with pytest.raises(ValueError):
            weighted_inner_product(lambda z: z, lambda z: z, w, disk_quad)


class TestGram:
    def test_diagonal_matches_moments(self, disk_quad):
        basis = monomial_basis(4)
        w = np.exp(-np.abs(node_list(disk_quad)[:, 0]) ** 2)
        G = gram_matrix(basis, w, disk_quad)
        for k in range(5):
            assert G[k, k] == pytest.approx(gaussian_moment(k), rel=1e-12)
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-13

    def test_quadratic_form_is_norm(self, disk_quad, rng):
        basis = monomial_basis(3)
        w = np.exp(-np.abs(node_list(disk_quad)[:, 0]) ** 2)
        G = gram_matrix(basis, w, disk_quad)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        V = vandermonde(basis, node_list(disk_quad)[:, 0])
        direct = np.sum(np.abs(V @ v) ** 2 * w * disk_quad.weights)
        assert np.real(v.conj() @ G @ v) == pytest.approx(direct, rel=1e-12)

    def test_underflowed_zeros_accepted_negative_and_nonfinite_refused(self, disk_quad):
        # exp(-800|z|^2) is an exact 0 on the outer rings: a weight value,
        # not an error; the Gram equals the node sum over the other nodes
        basis = monomial_basis(4)
        w = np.exp(-800.0 * np.abs(node_list(disk_quad)[:, 0]) ** 2)
        assert (w == 0).any() and (w > 0).any()
        G = gram_matrix(basis, w, disk_quad)
        assert np.abs(G - brute_force_gram(basis, w, disk_quad)).max() <= 1e-13 * np.abs(G).max()
        for bad in (-1e-300, np.nan, np.inf):
            w_bad = w.copy()
            w_bad[0] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                gram_matrix(basis, w_bad, disk_quad)

    def test_rank_deficiency_detected(self):
        # more basis elements (33) than quadrature nodes (4 * 8 = 32)
        quad = build_quadrature(FiberDomain.disk(1.0), n_radial=4, n_angular=8)
        basis = monomial_basis(32)
        w = np.ones(quad.size)
        with pytest.raises(DegenerateBasisError):
            orthonormalize(gram_matrix(basis, w, quad), basis.exponents)


def brute_force_gram(basis, weight_values, quad):
    """V^H diag(w) V over the node Vandermonde: the node sum taken directly."""
    V = vandermonde(basis, node_list(quad))
    return V.conj().T @ ((weight_values * quad.weights)[:, None] * V)


# (domain, n_radial, n_angular, degree): a disk, an annulus, a 12 x 24 polydisc
RING_CASES = [
    (FiberDomain.disk(1.0), 48, 96, 16),
    (FiberDomain.annulus(0.3, 1.0), 32, 64, 12),
    (FiberDomain.polydisc(1.0, 0.8), 12, 24, 10),
]


# RING_CASES with an odd angular count, and aliased rules: pair modes -6..6
# wrap around 8 and 9 angles; on the last two, pair modes -9..9 wrap around 8
# angles twice and so do the monomials' own modes 0..9 (N >= n_angular), so
# on the bidisc several e_1 share one DFT column of the 2-D Gram's rows
RING_GRAM_CASES = RING_CASES + [
    (FiberDomain.disk(1.0), 10, 11, 4),
    (FiberDomain.disk(1.0), 8, 8, 6),
    (FiberDomain.polydisc(1.0, 0.7), 6, 9, 6),
    (FiberDomain.disk(1.0), 16, 8, 9),
    (FiberDomain.polydisc(1.0, 0.7), 6, 8, 9),
]
RING_GRAM_IDS = ["disk", "annulus", "bidisc", "odd", "aliased", "bidisc-odd-aliased", "wrapped",
                 "bidisc-wrapped"]
# the same cases, the polydisc under the name the node-transform tests give it
TRANSFORM_IDS = ["disk", "annulus", "polydisc"] + RING_GRAM_IDS[3:]


def coefficients(rng, kind, shape):
    """A standard normal real array, or a complex one with real and
    imaginary parts standard normal."""
    x = rng.normal(size=shape)
    return x if kind == "real" else x + 1j * rng.normal(size=shape)


def cross_term_weight(nodes, t=0.3 + 0.2j, lam=0.5):
    """exp(-phi) of |z|^2 + 2 Re(lam conj(t) z_1): not radial for t != 0."""
    phi = np.sum(np.abs(nodes) ** 2, axis=1) + 2 * np.real(lam * np.conj(t) * nodes[:, 0])
    return np.exp(-phi)


def polynomial_weight(nodes):
    """exp(-phi) of a polynomial with angular modes 1..3 in every coordinate."""
    z = nodes[:, 0]
    w = nodes[:, -1]
    phi = (np.sum(np.abs(nodes) ** 2, axis=1) + 0.4 * np.real(z**3)
           + 0.3 * np.real(z * np.conj(w)) + 0.2 * np.abs(z * w) ** 2 + 0.1 * np.imag(w))
    return np.exp(-phi)


def polydisc_bits_per_blas_threads(body: str) -> list:
    """``[shape, sha256]`` of the array ``C`` that ``body`` computes from a
    weight ``wv`` on a 12 x 24 polydisc rule ``q``, in a fresh interpreter
    with one and with two BLAS threads."""
    code = (
        "import hashlib, numpy as np\n"
        "from bergman_lab.fiber_numerics import *\n"
        "q = build_quadrature(FiberDomain.polydisc(1.0, 1.0), 12, 24)\n"
        "z = np.stack(np.broadcast_arrays(*q.grids), axis=-1).reshape(-1, 2)\n"
        "wv = np.exp(-np.abs(z[:, 0]) ** 2 - np.abs(z[:, 1]) ** 2 + z[:, 0].real)\n"
        + body
        + "print(C.shape[0], hashlib.sha256(C.tobytes()).hexdigest())\n"
    )
    src = str(Path(fiber_numerics.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    return out


def pair_table_index(basis):
    """``(s_1, e_1 + N, ..., s_d, e_d + N)``, ``s = j + k`` and ``e = j - k``
    per coordinate, over every pair ``(j, k)`` row-major, from
    ``basis.exponents``."""
    E = np.array(basis.exponents).reshape(basis.dim, basis.fiber_dim)
    j, k = np.indices((basis.dim, basis.dim)).reshape(2, -1)
    return sum(((E[j, c] + E[k, c], E[j, c] - E[k, c] + basis.max_degree)
                for c in range(basis.fiber_dim)), ())


def ring_powers(quad, N):
    """Per coordinate, ``r^s`` on the rings, ``s = 0..2N``."""
    return [r[:, None] ** np.arange(2 * N + 1)[None, :] for r in quad.radial_nodes]


def tensordot_ring_gram(basis, measure, quad):
    """The ring Gram with every ring axis contracted by a complex tensordot
    over the whole ``(s, e)`` table, mode ``e = -N..N`` read at DFT index
    ``e mod n_angular``: the reference formulation."""
    N = basis.max_degree
    grid = quad.grid_view(measure)
    F = np.fft.fftn(grid, axes=tuple(range(1, grid.ndim, 2)))
    for c, (P, (_nr, na)) in enumerate(zip(ring_powers(quad, N), quad.shape)):
        F = np.take(F, np.arange(-N, N + 1) % na, axis=2 * c + 1)
        F = np.moveaxis(np.tensordot(P, F, axes=([0], [2 * c])), 0, 2 * c)
    return F[pair_table_index(basis)].reshape(basis.dim, basis.dim)


def half_spectrum_ring_gram(basis, measure, quad):
    """The ring Gram of a real measure on a 1-D fiber from the half spectrum
    of one real FFT, contracted by a complex tensordot: entry ``(j, k)``,
    ``m = e_k - e_j >= 0`` for the exponents ``e``, is the conjugate of the
    contracted ``(e_j + e_k, m)`` entry, or the ``(e_j + e_k, -m)`` entry
    where ``m`` aliases past the half spectrum, and ``(k, j)`` is its
    conjugate: the reference formulation."""
    ((_nr, na),) = quad.shape
    R = np.fft.rfft(quad.grid_view(measure), axis=1)
    Y = np.tensordot(ring_powers(quad, basis.max_degree)[0], R, axes=([0], [0]))
    G = np.empty((basis.dim, basis.dim), dtype=complex)
    for j, (ej,) in enumerate(basis.exponents):
        for k, (ek,) in enumerate(basis.exponents[j:], start=j):
            m = ek - ej
            G[j, k] = np.conj(Y[ej + ek, m % na]) if m % na <= na // 2 else Y[ej + ek, -m % na]
            G[k, j] = np.conj(G[j, k])
    return G


def tensordot_ring_synthesis(basis, coeffs, quad):
    """:func:`ring_synthesis` with complex tensordots, mode ``e = j - k`` of
    the ``(s, e)`` table written at DFT index ``e mod n_angular``: the
    reference formulation where no two modes alias (``2N < n_angular``)."""
    N = basis.max_degree
    A = coeffs.reshape((-1,) + coeffs.shape[-2:])
    T = np.zeros((A.shape[0],) + (2 * N + 1,) * (2 * basis.fiber_dim), dtype=complex)
    T[(slice(None),) + pair_table_index(basis)] = A.reshape(len(A), -1)
    for c, (P, (_nr, na)) in enumerate(zip(ring_powers(quad, N), quad.shape)):
        axis = 1 + 2 * c
        T = np.moveaxis(np.tensordot(P, T, axes=([1], [axis])), 0, axis)
        shape = list(T.shape)
        shape[axis + 1] = na
        X = np.zeros(shape, dtype=complex)
        X[(slice(None),) * (axis + 1) + (np.arange(-N, N + 1) % na,)] = T
        T = X
    angular = tuple(range(2, T.ndim, 2))
    K = np.fft.ifftn(T, axes=angular) * math.prod(T.shape[a] for a in angular)
    return K.reshape(coeffs.shape[:-2] + (quad.size,))


class TestRingGram:
    @pytest.mark.parametrize("case", RING_CASES[:2], ids=["disk", "annulus"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_one_dimensional_bits_equal_complex_tensordot(self, case, kind, rng):
        # the real GEMM on (re, im) pairs adds the same products in the same
        # order; a real measure's reference is the half-spectrum one
        dom, nr, na, N = case
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        measure = cross_term_weight(node_list(quad)) * quad.weights
        A = rng.normal(size=(3, basis.dim, basis.dim)) + 1j * rng.normal(size=(3, basis.dim, basis.dim))
        if kind == "complex":
            measure = measure * (rng.normal(size=quad.size) + 1j * rng.normal(size=quad.size))
            reference = tensordot_ring_gram(basis, measure, quad)
        else:
            A = A + A.conj().transpose(0, 2, 1)  # Hermitian, as the kernel diagonal's P
            reference = half_spectrum_ring_gram(basis, measure, quad)
        assert np.array_equal(ring_gram(basis, measure, quad), reference)
        assert np.array_equal(ring_synthesis(basis, A, quad), tensordot_ring_synthesis(basis, A, quad))
        assert np.array_equal(ring_synthesis(basis, A[1], quad), tensordot_ring_synthesis(basis, A[1], quad))

    def test_two_dimensional_read_entries_equal_full_table_to_round_off(self, rng):
        dom, nr, na, N = RING_CASES[2]
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        phase = rng.normal(size=quad.size) + 1j * rng.normal(size=quad.size)
        measure = phase * cross_term_weight(node_list(quad)) * quad.weights
        G, R = ring_gram(basis, measure, quad), tensordot_ring_gram(basis, measure, quad)
        assert np.abs(G - R).max() <= 1e-15 * np.abs(R).max()
        A = rng.normal(size=(2, basis.dim, basis.dim)) + 1j * rng.normal(size=(2, basis.dim, basis.dim))
        S, RS = ring_synthesis(basis, A, quad), tensordot_ring_synthesis(basis, A, quad)
        assert np.abs(S - RS).max() <= 1e-15 * np.abs(RS).max()

    def test_two_dimensional_bits_do_not_follow_blas_threads(self):
        # a complex measure and a real one, side by side
        out = polydisc_bits_per_blas_threads(
            "b, mu = monomial_basis(10, 2), wv * q.weights\n"
            "C = np.hstack([ring_gram(b, (1.0 + 0.5j * z[:, 1]) * mu, q), ring_gram(b, mu, q)])\n"
        )
        assert out[0][0] == "66"
        assert out[0] == out[1]

    def test_two_dimensional_peak_is_one_spectrum_and_the_rows_read(self):
        # the theta_1 spectrum and the (N + 1)^2 rows the Gram reads, not a
        # contracted (2N + 1) x n_angular row table
        dom, nr, na, N = RING_CASES[2]
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        z = node_list(quad)
        mu = cross_term_weight(z) * quad.weights
        for measure, columns in ((mu, na // 2 + 1), ((1.0 + 0.5j * z[:, 1]) * mu, na)):
            ring_gram(basis, measure, quad)  # its tables are built outside the measurement
            tracemalloc.start()
            try:
                ring_gram(basis, measure, quad)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * (columns * nr + (N + 1) ** 2) * nr * na * 16

    @pytest.mark.parametrize("case", RING_CASES, ids=["disk", "annulus", "polydisc"])
    @pytest.mark.parametrize("weight", [cross_term_weight, polynomial_weight],
                             ids=["cross", "polynomial"])
    def test_equals_brute_force_node_sum(self, case, weight):
        dom, nr, na, N = case
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        wv = weight(node_list(quad))
        G = gram_matrix(basis, wv, quad)
        B = brute_force_gram(basis, wv, quad)
        assert np.abs(G - B).max() <= 1e-13 * np.abs(B).max()
        # the weights really are non-radial: some off-diagonal entry is O(1)
        assert np.abs(B - np.diag(np.diag(B))).max() > 1e-3 * np.abs(B).max()

    def test_aliasing_matches_node_sum(self):
        # modes -6..6 wrap around 8 angles: both routes alias identically
        quad = build_quadrature(FiberDomain.disk(1.0), n_radial=8, n_angular=8)
        basis = monomial_basis(6)
        wv = polynomial_weight(node_list(quad))
        G = gram_matrix(basis, wv, quad)
        B = brute_force_gram(basis, wv, quad)
        assert np.abs(G - B).max() <= 1e-13 * np.abs(B).max()


    @pytest.mark.parametrize("case", RING_CASES, ids=["disk", "annulus", "polydisc"])
    def test_complex_measure_equals_brute_force(self, case, rng):
        # the measures of the base-derivative Grams are complex
        dom, nr, na, N = case
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        phase = rng.normal(size=quad.size) + 1j * rng.normal(size=quad.size)
        measure = phase * cross_term_weight(node_list(quad)) * quad.weights
        G = ring_gram(basis, measure, quad)
        V = vandermonde(basis, node_list(quad))
        B = V.conj().T @ (measure[:, None] * V)
        assert np.abs(G - B).max() <= 1e-13 * np.abs(B).max()
        assert np.abs(B - B.conj().T).max() > 1e-3 * np.abs(B).max()  # not Hermitian

    @pytest.mark.parametrize("case", RING_GRAM_CASES, ids=RING_GRAM_IDS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_both_front_ends_equal_brute_force(self, case, kind, rng):
        dom, nr, na, N = case
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        measure = polynomial_weight(node_list(quad)) * quad.weights
        if kind == "complex":
            measure = measure * (rng.normal(size=quad.size) + 1j * rng.normal(size=quad.size))
        before = measure.copy()
        G = ring_gram(basis, measure, quad)
        assert measure.flags.writeable and np.array_equal(measure, before)  # never written to
        V = vandermonde(basis, node_list(quad))
        B = V.conj().T @ (measure[:, None] * V)
        assert np.abs(G - B).max() <= 1e-13 * np.abs(B).max()
        if kind == "real":
            # Hermitian by construction: every bit, and a real diagonal
            assert np.array_equal(G, G.conj().T)
            assert np.all(np.diag(G).imag == 0)

    @pytest.mark.parametrize("case", RING_GRAM_CASES, ids=RING_GRAM_IDS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_consuming_route_equals_the_public_one(self, case, kind, rng):
        # the private hand-off: the buffer is taken out of its one-item list,
        # and a complex 2-D measure becomes its own theta_1 spectrum
        dom, nr, na, N = case
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        measure = polynomial_weight(node_list(quad)) * quad.weights
        if kind == "complex":
            measure = measure * (rng.normal(size=quad.size) + 1j * rng.normal(size=quad.size))
        public = ring_gram(basis, measure, quad)
        buffer = measure.copy()
        holder = [buffer]
        assert np.array_equal(ring_gram(basis, holder, quad, _consume=True), public)
        assert holder == []
        if kind == "complex" and dom.dim == 2:
            spectrum = np.fft.fft(quad.grid_view(measure), axis=1)
            assert np.array_equal(quad.grid_view(buffer), spectrum)
        else:
            assert np.array_equal(buffer, measure)

    def test_gram_matrix_is_ring_gram_of_weighted_measure(self, disk_quad):
        basis = monomial_basis(8)
        wv = cross_term_weight(node_list(disk_quad))
        G = ring_gram(basis, wv * disk_quad.weights, disk_quad)
        assert np.array_equal(gram_matrix(basis, wv, disk_quad), G)

    def test_rejects_wrong_measure_shape(self, disk_quad):
        with pytest.raises(ValueError, match="measure values"):
            ring_gram(monomial_basis(2), np.ones(3), disk_quad)


class TestNodeTransforms:
    @pytest.mark.parametrize("case", RING_GRAM_CASES, ids=TRANSFORM_IDS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_synthesis_and_analysis_equal_vandermonde_products(self, case, kind, monkeypatch):
        # aliased modes add, on every rule, even where a monomial's own
        # modes wrap around the angles (N >= n_angular)
        dom, nr, na, N = case
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        V = vandermonde(basis, node_list(quad))
        rng = np.random.default_rng(5)
        c = coefficients(rng, kind, (2, basis.dim))
        f = coefficients(rng, kind, (3, quad.size))
        built = []
        monkeypatch.setattr(fiber_numerics, "vandermonde", lambda *a: built.append(a))
        values = monomial_synthesis(basis, c, quad)
        moments = monomial_analysis(basis, f, quad)
        assert built == []  # both directions read the ring tables only
        ref_values, ref_moments = c @ V.T, f @ V.conj()
        assert values.shape == (2, quad.size) and moments.shape == (3, basis.dim)
        assert np.abs(values - ref_values).max() <= 1e-13 * np.abs(ref_values).max()
        assert np.abs(moments - ref_moments).max() <= 1e-13 * np.abs(ref_moments).max()
        # a single vector or field keeps its own shape
        one_value, one_moment = monomial_synthesis(basis, c[1], quad), monomial_analysis(basis, f[2], quad)
        assert one_value.shape == (quad.size,) and one_moment.shape == (basis.dim,)
        assert np.abs(one_value - values[1]).max() <= 1e-15 * np.abs(ref_values).max()
        assert np.abs(one_moment - moments[2]).max() <= 1e-15 * np.abs(ref_moments).max()

    def test_analysis_is_adjoint_of_synthesis(self, disk_quad):
        basis = monomial_basis(12)
        rng = np.random.default_rng(3)
        c = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        f = rng.normal(size=disk_quad.size) + 1j * rng.normal(size=disk_quad.size)
        lhs = np.vdot(monomial_synthesis(basis, c, disk_quad), f)
        rhs = np.vdot(c, monomial_analysis(basis, f, disk_quad))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_rejects_wrong_field_shape(self, disk_quad):
        with pytest.raises(ValueError, match="node values"):
            monomial_analysis(monomial_basis(2), np.ones(3), disk_quad)

    def test_kernel_columns_build_no_vandermonde(self, monkeypatch):
        built = []
        original = fiber_numerics.vandermonde

        def counting(basis, nodes):
            built.append((basis.max_degree, np.shape(nodes)[0]))
            return original(basis, nodes)

        monkeypatch.setattr(fiber_numerics, "vandermonde", counting)
        monkeypatch.setattr(bergman_module, "vandermonde", counting)
        quad = build_quadrature(FiberDomain.disk(1.0), 24, 48)
        w = QuadraticWeight.cross_term(0.5, 1, 1)
        bases = [bergman_basis(w, (t,), 10, quad) for t in (0.0, 0.1, 0.2j, -0.15)]
        assert built == []  # basis builds evaluate no monomial on the nodes
        cols = [b.kernel_column(0.3) for b in bases]
        assert all(size == 1 for _deg, size in built)  # only the point w itself
        # the column really is K(node, w) of each basis
        V = original(monomial_basis(10), node_list(quad))
        for b, col in zip(bases, cols):
            ref = V @ b.kernel_coefficients(0.3)
            assert np.abs(col - ref).max() <= 1e-13 * np.abs(ref).max()
            assert abs(col[0] - kernel_eval(b, node_list(quad)[0, 0], 0.3)) <= 1e-12 * abs(col[0])

    def test_ring_tables_are_read_only(self):
        quad = build_quadrature(FiberDomain.polydisc(1.0, 1.0), 8, 16)
        basis = monomial_basis(3, 2)
        E = basis.exponent_array
        for real in (False, True):
            tables = quad.ring_tables(basis, real)
            assert quad.ring_tables(basis, real) is tables  # built once per basis and front end
            shared = quad.ring_tables(basis)[:3]
            assert all(a is b for a, b in zip(shared, tables[:3]))  # one set of shared tables
            rows, cols = tables.dest or np.indices((basis.dim, basis.dim)).reshape(2, -1)
            row, _q2 = tables.index
            # rows grouped by DFT column q_1, one per distinct s_1 read there
            kept, slices, P1 = zip(*tables.columns)
            assert list(kept) == ([0, 1, 2, 3] if real else [0, 1, 2, 3, 13, 14, 15])  # real: 0..N
            assert [sl.start for sl in slices] == [0] + [sl.stop for sl in slices[:-1]]
            q1 = np.repeat(kept, [sl.stop - sl.start for sl in slices])
            P1 = np.concatenate(P1)
            assert len(set(zip(q1, map(bytes, P1)))) == len(P1) == row.max() + 1  # distinct rows
            assert np.array_equal(P1[row], tables.powers[0].T[E[rows, 0] + E[cols, 0]])  # s_1 = j_1 + k_1
            if not real:
                assert np.array_equal(q1[row], tables.fold[0][basis.pairs[3]] % 16)
            assert np.array_equal(tables.read_powers, tables.powers[1][:, E[rows, 1] + E[cols, 1]])
            if real:  # each entry written once, as itself or as its conjugate's transpose
                hits = np.zeros((basis.dim, basis.dim), dtype=int)
                np.add.at(hits, (rows, cols), 1)
                np.add.at(hits, (cols, rows), 1)
                assert np.array_equal(hits, 1 + np.eye(basis.dim, dtype=int))
            # one fold per coordinate and span: pair modes -3..3, exponents 0..3
            assert [f.tolist() for f in tables.fold] == [[13, 14, 15, 0, 1, 2, 3]] * 2
            assert [m[2].tolist() for m in tables.monomials] == [[0, 1, 2, 3]] * 2
            arrays = tables.fold + tables.powers + sum(tables.monomials, ())
            arrays += tables.index + (tables.read_powers,) + (tables.dest or ())
            arrays += tuple(P for _c, _sl, P in tables.columns)
            for arr in arrays + basis.pairs + basis.half_pairs:
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 2


class TestGaussLegendreMemo:
    def test_rule_computed_once_and_bitwise_unchanged(self, monkeypatch):
        from numpy.polynomial.legendre import leggauss

        calls = []

        def counting(n):
            calls.append(n)
            return leggauss(n)

        fiber_numerics._gauss_legendre.cache_clear()
        monkeypatch.setattr(fiber_numerics, "leggauss", counting)
        quads = [build_quadrature(dom, 20, 16) for dom in
                 (FiberDomain.disk(1.0), FiberDomain.disk(0.5), FiberDomain.annulus(0.2, 1.0))]
        assert calls == [20]
        x, w = leggauss(20)
        for q, (ro, ri) in zip(quads, ((1.0, 0.0), (0.5, 0.0), (1.0, 0.2))):
            r = ri + (x + 1.0) * 0.5 * (ro - ri)
            assert q.radial_nodes[0].tobytes() == r.tobytes()
        xm, wm = fiber_numerics._gauss_legendre(20)
        assert xm.tobytes() == x.tobytes() and wm.tobytes() == w.tobytes()
        with pytest.raises(ValueError):
            xm[0] = 0.0
        fiber_numerics._gauss_legendre.cache_clear()


def kernel_diagonal(basis, transform, quad):
    """K(x, x) on every node: the Hermitian case ``P = C C^H`` of ring_synthesis."""
    return ring_synthesis(basis, transform @ transform.conj().T, quad).real


def brute_force_diagonal(basis, transform, quad):
    """sum_i |u_i(node)|^2 over the orthonormal frame u = V C on the nodes."""
    return np.sum(np.abs(vandermonde(basis, node_list(quad)) @ transform) ** 2, axis=1)


class TestKernelDiagonal:
    @pytest.mark.parametrize("case", RING_GRAM_CASES, ids=TRANSFORM_IDS)
    @pytest.mark.parametrize("weight", [cross_term_weight, polynomial_weight],
                             ids=["cross", "polynomial"])
    def test_equals_brute_force_frame_sum(self, case, weight, monkeypatch):
        dom, nr, na, N = case
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        C = orthonormalize(gram_matrix(basis, weight(node_list(quad)), quad), basis.exponents)
        ref = brute_force_diagonal(basis, C, quad)
        built = []
        monkeypatch.setattr(fiber_numerics, "vandermonde", lambda *a: built.append(a))
        K = kernel_diagonal(basis, C, quad)
        assert built == []  # synthesized from the ring tables, no node Vandermonde
        assert K.shape == (quad.size,) and K.dtype == float
        assert np.abs(K - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("case", RING_GRAM_CASES, ids=TRANSFORM_IDS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_stack_synthesis_equals_brute_force_bilinear_form(self, case, kind, monkeypatch):
        # a stack of arbitrary coefficient matrices, one inverse FFT; the
        # modes of pairs that alias add
        dom, nr, na, N = case
        quad = build_quadrature(dom, nr, na)
        basis = monomial_basis(N, dom.dim)
        rng = np.random.default_rng(7)
        A = coefficients(rng, kind, (2, basis.dim, basis.dim))
        V = vandermonde(basis, node_list(quad))
        ref = np.sum((V @ A) * V.conj(), axis=-1)  # sum_jk V[x, j] A[j, k] conj(V[x, k])
        built = []
        monkeypatch.setattr(fiber_numerics, "vandermonde", lambda *a: built.append(a))
        S = ring_synthesis(basis, A, quad)
        assert built == []
        assert S.shape == (2, quad.size)
        assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()
        one = ring_synthesis(basis, A[1], quad)
        assert one.shape == (quad.size,)
        assert np.abs(one - ref[1]).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("N", [2, 8, 20])
    def test_unweighted_disk_closed_form(self, disk_quad, N):
        # ||z^k||^2 = pi / (k + 1) on the unit disk, so K_N(z, z) is the
        # partial sum of (k + 1) |z|^(2k) / pi
        basis = monomial_basis(N)
        C = orthonormalize(gram_matrix(basis, np.ones(disk_quad.size), disk_quad), basis.exponents)
        r2 = np.abs(node_list(disk_quad)[:, 0]) ** 2
        oracle = sum((k + 1) * r2**k for k in range(N + 1)) / math.pi
        K = kernel_diagonal(basis, C, disk_quad)
        assert np.abs(K - oracle).max() <= 1e-12 * oracle.max()


class TestOrthonormalize:
    def test_contract(self, disk_quad):
        basis = monomial_basis(6)
        w = np.exp(-np.abs(node_list(disk_quad)[:, 0]) ** 2)
        G = gram_matrix(basis, w, disk_quad)
        C = orthonormalize(G, basis.exponents)
        assert np.abs(C.conj().T @ G @ C - np.eye(basis.dim)).max() < 1e-10
        assert np.abs(np.tril(C, -1)).max() <= 1e-12 * np.abs(C).max()

    def test_unweighted_disk_coefficients(self, disk_quad):
        # flat weight: orthonormal frame is z^k * sqrt((k+1)/pi)
        basis = monomial_basis(5)
        G = gram_matrix(basis, np.ones(disk_quad.size), disk_quad)
        C = orthonormalize(G, basis.exponents)
        expect = np.diag([math.sqrt((k + 1) / math.pi) for k in range(6)])
        assert np.abs(np.abs(C) - expect).max() < 1e-12

    def test_triangular_nesting(self, disk_quad):
        # leading block orthonormalizes the leading sub-basis
        basis = monomial_basis(6)
        w = np.exp(-np.abs(node_list(disk_quad)[:, 0]) ** 2)
        G = gram_matrix(basis, w, disk_quad)
        C = orthonormalize(G, basis.exponents)
        k = basis.truncated_dim(4)
        sub = C[:k, :k]
        assert np.abs(sub.conj().T @ G[:k, :k] @ sub - np.eye(k)).max() < 1e-10

    def test_degenerate_pivot_named(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(DegenerateBasisError, match="exponent"):
            orthonormalize(G, exponents=((0,), (1,)))

    def test_small_pivot_named_after_successful_factorization(self):
        # LAPACK factors it (pivot 1.1e-15 > 0), but the second row is the
        # first up to 1e-15 of its own diagonal entry
        G = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
        with pytest.raises(DegenerateBasisError, match=r"exponent \(1,\)"):
            orthonormalize(G, exponents=((0,), (1,)))

    def test_failed_factorization_names_first_collapse(self):
        G = np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=complex)
        with pytest.raises(DegenerateBasisError, match=r"pivot 0\.000e\+00 at exponent \(2,\)"):
            orthonormalize(G, exponents=((0,), (1,), (2,)))

    def test_blocked_factorization_matches_lapack(self):
        # above CHOLESKY_BLOCK rows the factor is assembled block by block
        quad = build_quadrature(FiberDomain.polydisc(1.0, 1.0), 16, 32)
        basis = monomial_basis(12, 2)
        assert basis.dim > fiber_numerics.CHOLESKY_BLOCK
        G = gram_matrix(basis, cross_term_weight(node_list(quad)), quad)
        C = orthonormalize(G, basis.exponents)
        ref = np.linalg.inv(np.linalg.cholesky(G)).conj().T
        assert np.abs(np.tril(C, -1)).max() <= 1e-12 * np.abs(C).max()
        assert np.abs(C - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(C.conj().T @ G @ C - np.eye(basis.dim)).max() < 1e-12

    def test_collapse_in_a_later_block_is_named(self):
        n = 60
        rng = np.random.default_rng(2)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A[:, 55] = A[:, :3] @ np.array([1.0, -2.0, 0.5j])  # column 55 depends on 0..2
        exps = tuple((k,) for k in range(n))
        with pytest.raises(DegenerateBasisError, match=r"at exponent \(55,\)"):
            orthonormalize(A.conj().T @ A, exponents=exps)

    def test_transform_bits_do_not_follow_blas_threads(self):
        # LAPACK's Cholesky splits its updates by thread from about 64 rows
        # on, and the 2-D bases (dimension 66 here) are that large
        out = polydisc_bits_per_blas_threads(
            "b = monomial_basis(10, 2)\nC = orthonormalize(gram_matrix(b, wv, q), b.exponents)\n"
        )
        assert out[0][0] == "66"
        assert out[0] == out[1]

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            orthonormalize(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex), ((0,), (1,)))

    def test_pivot_test_ignores_diagonal_scaling(self):
        # a diagonal Gram is orthonormal up to scale, however wide its range
        C = orthonormalize(np.diag([1.0, 1e-15, 1e20]).astype(complex), ((0,), (1,), (2,)))
        assert np.allclose(np.diag(C), [1.0, 10**7.5, 1e-10], rtol=1e-15)
        # and a dependent pair stays dependent, however it is scaled
        D = np.diag([1.0, 1e20])
        with pytest.raises(DegenerateBasisError, match=r"at exponent \(1,\)"):
            orthonormalize(D @ np.ones((2, 2), dtype=complex) @ D, exponents=((0,), (1,)))

    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_random_spd_contract(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = A @ A.conj().T + 0.1 * np.eye(n)
        C = orthonormalize(G, tuple((k,) for k in range(n)))
        assert np.abs(C.conj().T @ G @ C - np.eye(n)).max() < 1e-9


class TestRescaledFibers:
    """Flat weight on fibers of radius other than 1: the monomial norms
    ||z^k||^2 = pi R^(2k+2) / (k+1) span many decades, and the truncated
    kernel at x is the partial sum of |x^k|^2 / ||z^k||^2 per coordinate."""

    @staticmethod
    def kernel_at(dom, n_radial, n_angular, N, x):
        quad = build_quadrature(dom, n_radial, n_angular)
        basis = monomial_basis(N, dom.dim)
        C = orthonormalize(gram_matrix(basis, np.ones(quad.size), quad), exponents=basis.exponents)
        return float(np.sum(np.abs(vandermonde(basis, np.atleast_2d(x)) @ C) ** 2))

    @pytest.mark.parametrize("R, N", [(2.0, 24), (2.0, 30), (0.5, 24), (0.5, 30)])
    def test_disk_kernel_closed_form(self, R, N):
        x = 0.6 * R * np.exp(0.4j)
        oracle = sum((k + 1) * abs(x) ** (2 * k) / (math.pi * R ** (2 * k + 2)) for k in range(N + 1))
        K = self.kernel_at(FiberDomain.disk(R), 48, 96, N, [x])
        assert K == pytest.approx(oracle, rel=1e-13)

    def test_polydisc_kernel_closed_form(self):
        R, N = (3.0, 0.4), 14
        x = [0.6 * R[0] * np.exp(0.4j), 0.6 * R[1] * np.exp(1.3j)]
        oracle = sum(
            (a + 1) * (b + 1) * abs(x[0]) ** (2 * a) * abs(x[1]) ** (2 * b)
            / (math.pi**2 * R[0] ** (2 * a + 2) * R[1] ** (2 * b + 2))
            for a in range(N + 1) for b in range(N + 1 - a)
        )
        K = self.kernel_at(FiberDomain.polydisc(*R), 12, 32, N, x)
        assert K == pytest.approx(oracle, rel=1e-13)
