"""Bergman bases, kernels, section functionals, direct-image Grams.

Oracles frozen here before implementation details are trusted:

* unweighted unit disk: orthonormal frame z^k sqrt((k+1)/pi), kernel
  K(z, w) = (1/pi) sum (k+1) (z conj(w))^k -> 1/(pi (1 - z conj(w))^2),
* Gaussian weight |z|^2: ||z^k||^2 = pi * lowergamma(k+1, 1) =: g_k,
  so K(0,0) = 1/g_0 = 1/(pi (1 - 1/e)),
* separable weight c|t|^2 + |z|^2: the base factor exp(-c|t|^2) scales all
  norms, so B(t) = exp(c|t|^2)/g_0 for the point section s = 0, a = 1, and
  the frame {1, z} has log det G(t) = -2c|t|^2 + log(g_0 g_1),
* radial weight exp(-sum_c c_c |z_c|^2) on a disk, annulus or bidisc: the
  monomials are orthogonal (Krantz, *Function Theory of SCV*, 2nd ed.,
  ch. 1), so K(z, w) = sum_a prod_c (z_c conj(w_c))^a_c / ||z_c^a_c||^2 over
  the exponents a of the space, ||z^k||^2 = 2 pi int r^(2k+1) exp(-c r^2) dr
  (scipy's adaptive quadrature, independent of the rings, FFTs and
  Gauss-Legendre); with every k <= N in one coordinate this is
  sum_k |z|^(2k) / ||z^k||^2.
"""

import dataclasses
import gc
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import fft, integrate
from scipy.special import gammainc

from bergman_lab import bergman as bergman_module
from bergman_lab.bergman import (
    HoloPoly,
    SectionFamily,
    SectionOutsideDomainError,
    base_gram_jets,
    bergman_basis,
    direct_image_gram,
    extremal_check,
    kernel_eval,
    reproducing_residual,
    section_hessian,
    section_value,
    section_value_pair,
)
from bergman_lab.cli import run_scenario_checks
from bergman_lab.fiber_numerics import DegenerateBasisError, FiberDomain, MonomialBasis, \
    build_quadrature, monomial_basis, ring_gram
from bergman_lab.scenario import parse_scenario
from bergman_lab.weights import BasePatch, PolynomialWeight, QuadraticWeight
from helpers import node_list

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def g_moment(k):
    return math.pi * gammainc(k + 1, 1.0) * math.factorial(k)


FLAT = QuadraticWeight(1, 1, np.zeros((2, 2)), label="flat")
GAUSS = QuadraticWeight(1, 1, np.diag([0.0, 1.0]), label="gauss-fiber")


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(FiberDomain.disk(1.0), n_radial=48, n_angular=96)


class TestHoloPoly:
    def test_eval_and_degree(self):
        p = HoloPoly(1, {(0,): 1.0, (2,): 0.5})
        assert p(np.array([2.0 + 0j])) == pytest.approx(3.0)
        assert p.degree == 2

    def test_from_text(self):
        p = HoloPoly.from_text("(+ 1 (* 2 t1))", ("t1",))
        assert p(np.array([3.0 + 0j])) == pytest.approx(7.0)

    def test_vectorized(self):
        p = HoloPoly(2, {(1, 1): 1.0})
        pts = np.array([[1.0, 2.0], [2.0, 0.5]], dtype=complex)
        assert np.allclose(p(pts), [2.0, 1.0])


class TestDerivatives:
    def test_holopoly_derivative(self):
        p = HoloPoly(2, {(2, 1): 3.0, (0, 1): 1j, (1, 0): 2.0})
        assert p.derivative(0).coeffs == {(1, 1): 6.0, (0, 0): 2.0}
        assert p.derivative(1).coeffs == {(2, 0): 3.0, (0, 0): 1j}
        assert HoloPoly.constant(4.0).derivative(0).coeffs == {}

    def test_section_family_derivatives(self):
        fam = SectionFamily(
            2, 1,
            ((HoloPoly(2, {(0, 0): 0.1, (1, 1): 0.5}),),),
            (HoloPoly(2, {(0, 0): 1.0, (0, 2): 2.0}),),
        )
        damps, dsecs = fam.derivatives_at((0.2, 0.3j))
        assert damps.shape == (1, 2) and dsecs.shape == (1, 1, 2)
        assert np.allclose(damps, [[0.0, 4 * 0.3j]])
        assert np.allclose(dsecs, [[[0.5 * 0.3j, 0.5 * 0.2]]])

    def test_family_key_is_by_value(self):
        p, q = HoloPoly(2, {(1, 0): 1.0, (0, 0): 2.0}), HoloPoly(2, {(0, 0): 2.0, (1, 0): 1.0})
        assert p.key == q.key
        a = SectionFamily.constant([[0.2]])
        assert a.key == SectionFamily.constant([[0.2]]).key
        assert a.key != SectionFamily.constant([[0.3]]).key
        hash(a.key)


class TestBergmanBasis:
    def test_flat_disk_orthonormal_frame(self, quad):
        b = bergman_basis(FLAT, (0j,), 12, quad)
        expected = np.diag([math.sqrt((k + 1) / math.pi) for k in range(13)])
        assert np.abs(np.abs(b.transform) - expected).max() < 1e-10

    def test_gauss_degree_zero(self, quad):
        b = bergman_basis(GAUSS, (0j,), 0, quad)
        assert abs(b.transform[0, 0]) == pytest.approx(1 / math.sqrt(g_moment(0)), rel=1e-12)

    def test_radial_weight_diagonal_transform(self, quad):
        b = bergman_basis(GAUSS, (0j,), 8, quad)
        off = b.transform - np.diag(np.diag(b.transform))
        assert np.abs(off).max() < 1e-10

    def test_orthonormality_contract(self, quad):
        b = bergman_basis(QuadraticWeight.cross_term(0.5), (0.2 + 0.1j,), 10, quad)
        I = b.transform.conj().T @ b.gram @ b.transform
        assert np.abs(I - np.eye(b.dim)).max() < 1e-10


class TestKernel:
    def test_flat_disk_center(self, quad):
        b = bergman_basis(FLAT, (0j,), 12, quad)
        assert kernel_eval(b, 0j, 0j) == pytest.approx(1 / math.pi, abs=1e-6)

    def test_flat_disk_off_center_against_zero(self, quad):
        # K(0.5, 0): only the constant term survives at w = 0
        b = bergman_basis(FLAT, (0j,), 12, quad)
        assert kernel_eval(b, 0.5 + 0j, 0j) == pytest.approx(1 / math.pi, abs=1e-6)

    def test_flat_disk_truncated_series(self, quad):
        # truncated kernel is (1/pi) sum_{k<=N} (k+1)(z conj(w))^k
        b = bergman_basis(FLAT, (0j,), 12, quad)
        z, w = 0.3 + 0.2j, 0.1 - 0.4j
        series = sum((k + 1) * (z * np.conj(w)) ** k for k in range(13)) / math.pi
        assert kernel_eval(b, z, w) == pytest.approx(series, abs=1e-10)
        classical = 1 / (math.pi * (1 - z * np.conj(w)) ** 2)
        assert kernel_eval(b, z, w) == pytest.approx(classical, abs=1e-8)

    def test_gauss_center(self, quad):
        b = bergman_basis(GAUSS, (0j,), 12, quad)
        assert kernel_eval(b, 0j, 0j) == pytest.approx(1 / g_moment(0), rel=1e-10)

    def test_hermitian_symmetry(self, quad):
        b = bergman_basis(QuadraticWeight.cross_term(0.3), (0.1j,), 10, quad)
        z, w = 0.4 + 0.1j, -0.2 + 0.3j
        assert kernel_eval(b, z, w) == pytest.approx(np.conj(kernel_eval(b, w, z)), abs=1e-14)

    def test_kernel_matrix_psd(self, quad, rng):
        b = bergman_basis(GAUSS, (0j,), 10, quad)
        pts = 0.8 * (rng.random(5) + 1j * rng.random(5) - 0.5 - 0.5j)
        K = np.array([[kernel_eval(b, zi, zj) for zj in pts] for zi in pts])
        eigs = np.linalg.eigvalsh(K)
        assert eigs[0] > -1e-12 * max(1.0, eigs[-1])

    def test_diag_monotone_in_degree(self, quad):
        vals = []
        for N in (4, 8, 12):
            b = bergman_basis(FLAT, (0j,), N, quad)
            vals.append(b.kernel_diag(0.7 + 0j))
        assert vals[0] <= vals[1] <= vals[2]

    def test_convergence_gap_small_inside(self, quad):
        b = bergman_basis(GAUSS, (0j,), 24, quad)
        assert b.diag_convergence_gap(0.3 + 0.1j) < 1e-6

    def test_one_point_as_a_section_row(self):
        # on a 1-D fiber a row of sections_at has shape (1,): one point in, a scalar out
        sc = parse_scenario((SCENARIOS / "separable_c1.scn").read_text())
        b = bergman_basis(sc.weight, sc.t0, sc.N, sc.build_quad())
        row = sc.sections.sections_at(sc.t0)[0]
        z = complex(row[0])
        assert row.shape == (1,)
        assert b.kernel_diag(row) == b.kernel_diag(z) == pytest.approx(0.50356, rel=1e-5)
        assert kernel_eval(b, row, 0.1) == kernel_eval(b, z, 0.1)
        assert kernel_eval(b, 0.1, row) == kernel_eval(b, 0.1, z)
        assert extremal_check(b, row) == extremal_check(b, z)
        assert np.array_equal(b.kernel_column(row), b.kernel_column(z))


# Relative tolerance of each radial norm of the oracle.
RADIAL_RTOL = 1e-13


def radial_norm(k: int, c: float, ri: float, ro: float) -> float:
    """||z^k||^2 = 2 pi int_ri^ro r^(2k+1) exp(-c r^2) dr, to RADIAL_RTOL."""
    peak = math.sqrt((2 * k + 1) / (2 * c)) if c > 0 and k >= 0 else ro
    val, err = integrate.quad(lambda r: r ** (2 * k + 1) * math.exp(-c * r * r), ri, ro,
                              epsabs=0.0, epsrel=RADIAL_RTOL, limit=200,
                              points=[peak] if ri < peak < ro else None)
    assert err <= RADIAL_RTOL * val
    return 2 * math.pi * val


def radial_rule_floor(N: int, c: float, ri: float, ro: float) -> int:
    """Gauss-Legendre rings that leave no quadrature error above round-off
    in ``||z^k||^2``, ``k <= N``.  On ``[ri, ro]`` the weight is a
    polynomial of degree ``p`` to within 1e-14 of its largest value: its
    Chebyshev coefficients past ``p``, from one DCT at 2048 Chebyshev
    points, are below that (and above the DCT's own round-off, about
    1e-15).  Past ``p`` they fall faster than geometrically (the weight is
    entire), so a rule exact to degree ``2N + 1 + 2p`` leaves them far below
    round-off also where a norm sees only a small part of the weight's
    largest value."""
    theta = np.pi * (np.arange(2048) + 0.5) / 2048
    a = np.abs(fft.dct(np.exp(-c * (ri + (np.cos(theta) + 1) * (ro - ri) / 2) ** 2), type=2))
    p = np.flatnonzero(a > 1e-14 * a.max())[-1]
    return N + 1 + p


def assert_matches_radial_oracle(dom, cs, N, nr, na, z, w, exponents=None):
    """The Bergman kernel of ``exp(-sum_c cs[c] |z_c|^2)`` at ``(z, z)`` and
    ``(z, w)`` against the radial oracle over ``exponents`` (default: the
    degree-N basis), on the rule ``nr x na``.  The bound comes from the
    rule: a sum of n terms in double precision is good to ``n u`` relative
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., sec.
    4.2), here the node sums of the Gram and the ``dim^2`` products of its
    Cholesky factor and of the kernel, plus the oracle's own tolerance per
    coordinate; an off-diagonal entry is measured against
    ``sqrt(K(z, z) K(w, w))``, its Cauchy-Schwarz bound."""
    d = dom.dim
    quad = build_quadrature(dom, nr, na)
    b = bergman_basis(QuadraticWeight(1, d, np.diag([0.0, *cs])), (0j,), N, quad)
    exponents = b.basis.exponents if exponents is None else exponents
    norms = [{k: radial_norm(k, c, ri, ro) for k in sorted({a[i] for a in exponents})}
             for i, (c, ri, ro) in enumerate(zip(cs, dom.inner_radii, dom.radii))]

    def oracle(x, y):
        return sum(math.prod((x[i] * np.conj(y[i])) ** a[i] / norms[i][a[i]] for i in range(d))
                   for a in exponents)

    bound = (quad.size + b.dim**2) * np.finfo(float).eps / 2 + d * RADIAL_RTOL
    kzz, kww = oracle(z, z).real, oracle(w, w).real
    for x, y, scale in ((z, z, kzz), (z, w, math.sqrt(kzz * kww))):
        got = kernel_eval(b, *((x[0], y[0]) if d == 1 else (np.array(x), np.array(y))))
        assert abs(got - oracle(x, y)) <= bound * scale, (got, oracle(x, y), bound)


@st.composite
def radial_cases(draw):
    """A radial weight on a disk, annulus or bidisc, a degree, a rule above
    its floors (angular exactness and :func:`radial_rule_floor`) and two
    points of the fiber.  On a disk ``c`` reaches values where ``exp(-c
    r^2)`` underflows to 0 on the outer rings (``c r^2 > 745``); on an
    annulus and a bidisc it stays at most 10, so no ring carries a weight
    that is steep on the scale of its own width."""
    kind = draw(st.sampled_from(["disk", "annulus", "bidisc"]))
    d = 2 if kind == "bidisc" else 1
    ro = [draw(st.floats(0.5, 2.0 if d == 1 else 1.5)) for _ in range(d)]
    ri = [draw(st.floats(0.1, 0.8)) * ro[0]] if kind == "annulus" else [0.0] * d
    dom = FiberDomain(kind if d == 1 else "polydisc", tuple(ro), tuple(ri))
    cs = [draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3000.0 if kind == "disk" else 10.0))
          for _ in range(d)]
    N = draw(st.integers(0, 12 if d == 1 else 4))
    nr = max(radial_rule_floor(N, c, a, b) for c, a, b in zip(cs, ri, ro)) + draw(st.integers(0, 8))
    na = max(8, 2 * N + 2) + draw(st.integers(0, 8))
    points = [[draw(st.floats(a, b)) * np.exp(2j * math.pi * draw(st.floats(0.0, 1.0)))
               for a, b in zip(ri, ro)] for _ in range(2)]
    return dom, cs, N, max(nr, 4), na, *points


class TestRadialOracle:
    @given(radial_cases())
    def test_kernel_equals_the_radial_oracle(self, case):
        assert_matches_radial_oracle(*case)

    @pytest.mark.xfail(strict=True, reason="the quadrature error is not gated: 8 Gauss-Legendre "
                       "rings do not resolve exp(-60 |z|^2), and K(0, 0) is off by 3.1e-4")
    def test_coarse_rings_on_a_steep_gaussian(self):
        assert_matches_radial_oracle(FiberDomain.disk(1.0), [60.0], 6, 8, 32, [0j], [0j])

    @pytest.mark.xfail(strict=True, reason="the annulus kernel is built on polynomials only: "
                       "without the negative powers of its Laurent space, K(0.6, 0.6) is off by 0.49")
    def test_annulus_true_space_is_laurent(self):
        dom, N = FiberDomain.annulus(0.3, 1.0), 24
        laurent = [(k,) for k in range(-N, N + 1)]
        assert_matches_radial_oracle(dom, [0.0], N, 64, 128, [0.6 + 0j], [0.6 + 0j], laurent)


class TestReproducing:
    def test_orthonormal_element(self, quad):
        b = bergman_basis(GAUSS, (0j,), 24, quad)
        u0 = 1 / math.sqrt(g_moment(0))
        assert reproducing_residual(b, lambda z: u0 * np.ones_like(z), 0.4 + 0.2j) < 1e-8

    def test_polynomial_in_space(self, quad):
        b = bergman_basis(GAUSS, (0j,), 24, quad)
        assert reproducing_residual(b, lambda z: 3 * z**2 + 1, 0.3 + 0j) < 1e-8

    def test_out_of_space_documents_truncation(self, quad):
        b = bergman_basis(GAUSS, (0j,), 6, quad)
        res = reproducing_residual(b, lambda z: z**8, 0.9 + 0j)
        assert res > 1e-3  # projection is not the identity outside the space


class TestExtremal:
    def test_flat_center(self, quad):
        b = bergman_basis(FLAT, (0j,), 12, quad)
        diag, ext = extremal_check(b, 0j)
        assert diag == pytest.approx(1 / math.pi, abs=1e-6)
        assert ext == pytest.approx(diag, rel=1e-10)

    def test_random_weight_agreement(self, quad):
        b = bergman_basis(QuadraticWeight.cross_term(0.7), (0.3 - 0.2j,), 16, quad)
        for w in (0j, 0.5 + 0.1j, -0.3 + 0.6j):
            diag, ext = extremal_check(b, w)
            assert ext == pytest.approx(diag, rel=1e-10)


class TestSectionValue:
    def test_separable_point_section(self, quad):
        c = 1.0
        w = QuadraticWeight.separable(c)
        fam = SectionFamily.constant([[0.0]])
        t = 0.4 + 0.3j
        expect = math.exp(c * abs(t) ** 2) / g_moment(0)
        assert section_value(w, fam, (t,), 16, quad) == pytest.approx(expect, rel=1e-9)

    def test_rank2_with_zero_amplitude(self, quad):
        w = QuadraticWeight.separable(1.0)
        single = SectionFamily.constant([[0.2]])
        padded = SectionFamily.constant([[0.2], [0.5]], amps=[1.0, 0.0])
        a = section_value(w, single, (0.1j,), 16, quad)
        b = section_value(w, padded, (0.1j,), 16, quad)
        assert b == pytest.approx(a, rel=1e-12)

    def test_zero_amplitudes_zero_value(self, quad):
        fam = SectionFamily.constant([[0.2]], amps=[0.0])
        assert section_value(GAUSS, fam, (0j,), 8, quad) == 0.0

    def test_positive(self, quad):
        fam = SectionFamily.constant([[0.3], [-0.4]], amps=[1.0, 2.0])
        assert section_value(GAUSS, fam, (0j,), 12, quad) > 0

    def test_brute_force_dual_norm(self, quad):
        # independent route: coefficients of sum a_i K(., s_i) via the Gram
        # inverse, then the norm through the Gram quadratic form
        w = QuadraticWeight.cross_term(0.5)
        fam = SectionFamily.constant([[0.25], [-0.3]], amps=[1.0, 0.5 + 0.5j])
        t = (0.1 + 0.05j,)
        N = 8
        val = section_value(w, fam, t, N, quad)
        b = bergman_basis(w, t, N, quad)
        rhs = sum(
            np.conj(a) * np.conj(b.monomials_at(s[0]))
            for a, s in zip(fam.amplitudes_at(t), fam.sections_at(t))
        )
        coeffs = np.linalg.solve(b.gram, rhs)
        brute = float(np.real(coeffs.conj() @ b.gram @ coeffs))
        assert val == pytest.approx(brute, rel=1e-10)

    def test_section_exits_domain(self, quad):
        ident = SectionFamily(
            1, 1, ((HoloPoly(1, {(1,): 1.0}),),), (HoloPoly.constant(1.0),)
        )
        with pytest.raises(SectionOutsideDomainError):
            section_value(GAUSS, ident, (1.2 + 0j,), 8, quad)

    @pytest.mark.parametrize("case", ["first_section", "second_section", "base_dim2", "bidisc"])
    def test_patch_validation_names_the_point_the_loop_named(self, case):
        # the old per-sample loop is the oracle for the vectorized check
        if case == "bidisc":
            domain = FiberDomain.polydisc(1.0, 0.5)
            base = ("t1",)
            texts = [("(* 0.3 t1)", "(+ 0.1 (* 0.9 t1))"), ("0.2", "0.1")]
        elif case == "base_dim2":
            domain = FiberDomain.disk(1.0)
            base = ("t1", "t2")
            texts = [("(+ (* 0.5 t1) (* 3.5 t2 t2))",), ("(* 0.4 t2)",)]
        else:
            domain = FiberDomain.disk(1.0)
            base = ("t1",)
            texts = [("(* 1.9 t1)",), ("(* 2.1 t1)",)]
            if case == "first_section":
                texts.reverse()
        sections = tuple(tuple(HoloPoly.from_text(c, base) for c in sec) for sec in texts)
        amps = tuple(HoloPoly.constant(1.0, len(base)) for _ in texts)
        fam = SectionFamily(len(base), domain.dim, sections, amps)
        patch = BasePatch((0j,) * len(base), 0.5)
        with pytest.raises(SectionOutsideDomainError) as looped:
            for t in patch.sample(angles=8):
                fam.check_inside(domain, tuple(complex(x) for x in t))  # python numbers
        with pytest.raises(SectionOutsideDomainError) as vectorized:
            fam.validate_on_patch(domain, patch)
        assert str(vectorized.value) == str(looped.value)
        fam.validate_on_patch(domain, BasePatch((0j,) * len(base), 0.1))  # inside: no error

    def test_margin_guard(self, quad):
        fam = SectionFamily.constant([[0.97]])
        with pytest.raises(SectionOutsideDomainError):
            section_value(GAUSS, fam, (0j,), 8, quad)

    def test_pair_consistency(self, quad):
        w = QuadraticWeight.separable(1.0)
        fam = SectionFamily.constant([[0.0]])
        full, sub = section_value_pair(w, fam, (0.2j,), 24, quad)
        assert full == pytest.approx(section_value(w, fam, (0.2j,), 24, quad), rel=1e-14)
        assert abs(full - sub) / full < 1e-8  # converged well inside the disk

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            SectionFamily(
                1, 1, ((HoloPoly(1, {(5,): 0.01}),),), (HoloPoly.constant(1.0),)
            )


class TestDirectImageGram:
    def test_rank1_separable(self, quad):
        c = 0.7
        w = QuadraticWeight.separable(c)
        dig = direct_image_gram(w, [HoloPoly.constant(1.0)], quad)
        t = 0.3 + 0.2j
        expect = math.exp(-c * abs(t) ** 2) * g_moment(0)
        assert dig.gram_at((t,))[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_radial_weight_diagonal(self, quad):
        frame = [HoloPoly.constant(1.0), HoloPoly(1, {(1,): 1.0})]
        dig = direct_image_gram(GAUSS, frame, quad)
        G = dig.gram_at((0j,))
        assert abs(G[0, 1]) < 1e-13
        assert G[1, 1] == pytest.approx(g_moment(1), rel=1e-12)

    def test_log_det_separable(self, quad):
        c = 1.0
        w = QuadraticWeight.separable(c)
        frame = [HoloPoly.constant(1.0), HoloPoly(1, {(1,): 1.0})]
        dig = direct_image_gram(w, frame, quad)
        t = 0.25 - 0.4j
        const = -math.log(g_moment(0) * g_moment(1))
        assert dig.neg_log_det((t,)) == pytest.approx(2 * c * abs(t) ** 2 + const, abs=1e-10)

    def test_frame_gram_is_the_monomial_gram_in_frame_coordinates(self, quad):
        # no frame values on the nodes: G(t) = A^H G_mono(t) A with A the
        # frame's monomial coefficients, against the basis Gram at the frame's degree
        w = QuadraticWeight.cross_term(0.5)
        frame = [HoloPoly(1, {(0,): 1.0, (2,): 0.5j}), HoloPoly(1, {(1,): 2.0, (2,): -1.0})]
        dig = direct_image_gram(w, frame, quad)
        for f in dataclasses.fields(dig):
            value = getattr(dig, f.name)
            assert not (isinstance(value, np.ndarray) and value.size >= quad.size), f.name
        A = np.array([[1.0, 0.0], [0.0, 2.0], [0.5j, -1.0]])
        assert np.array_equal(dig.coeffs, A)
        t0 = (0.1 - 0.2j,)
        G = bergman_basis(w, t0, 2, quad).gram
        expected = A.conj().T @ G @ A
        assert np.abs(dig.gram_at(t0) - expected).max() <= 1e-14 * np.abs(expected).max()
        F = np.stack([f(node_list(quad)) for f in frame], axis=1)  # the frame on the nodes
        mu = w.weight_values(t0, quad) * quad.weights
        direct = F.conj().T @ (mu[:, None] * F)
        assert np.abs(dig.gram_at(t0) - direct).max() <= 1e-14 * np.abs(direct).max()

    @pytest.mark.parametrize("w", [
        QuadraticWeight.cross_term(0.5),
        PolynomialWeight.from_text(1, 1, "(+ (abs2 t1) (abs2 z1) (* 0.5 (re (* t1 (conj z1)))))"),
    ], ids=["quadratic", "polynomial"])
    def test_factor_reads_only_phi_at_t0(self, quad, w, monkeypatch):
        # the independence check reads exp(-phi): no node gradient or Hessian
        calls = []
        for name in ("grad_base", "hessian_field"):
            real = getattr(type(w), name)
            monkeypatch.setattr(type(w), name, lambda self, t, xi, real=real, name=name:
                                calls.append(name) or real(self, t, xi))
        frame = [HoloPoly.constant(1.0), HoloPoly(1, {(1,): 1.0})]
        dig = direct_image_gram(w, frame, quad)
        assert list(quad.memo(w)) == []  # building the field evaluates nothing
        t0 = (0.1 - 0.05j,)
        dig.factor(t0)
        assert calls == []
        assert [k[0] for k in quad.memo(w)] == ["phi", "weight_values"]
        phi = w.node_jets(t0, quad)[0]  # the jets read the same phi
        assert phi is w.node_phi(t0, quad) and calls == ["grad_base", "hessian_field"]
        assert np.array_equal(dig.gram_at(t0), dig.gram_at(t0[0]))

    def test_det_check_reads_no_weight_at_patch_center(self):
        # the frame Gram is factored at t0 alone, never at the patch center:
        # the weight values are computed once, at t0 (a memo entry per computation)
        sc = parse_scenario("weight = cross 0.5\npatch = 0 ; 0.45\nt0 = 0.2-0.1j\neps0 = 0.75\n"
                            "degree = 12\nquadrature = 32 64\ndet_frame = 1 | z1\n"
                            "checks = det_inequality\n")
        quad = sc.build_quad()  # the one rule of this resolution, which the run reads
        [rec] = run_scenario_checks(sc, sc.checks)
        assert rec.verdict == "pass", rec.error
        assert [k for k in quad.memo(sc.weight) if k[0] == "weight_values"] == [
            ("weight_values", (0.2 - 0.1j,))]

    def test_dependent_frame_rejected(self, quad):
        frame = [HoloPoly.constant(1.0), HoloPoly.constant(2.0)]
        dig = direct_image_gram(GAUSS, frame, quad)
        with pytest.raises(DegenerateBasisError, match="dependent") as err:
            dig.factor((0j,))
        assert "frame element 2 of 2" in str(err.value)

    def test_orthogonal_frame_of_spread_norms_accepted(self):
        # {1, z^20} on the disk of radius 0.5 is orthogonal for a rotation-invariant
        # weight, with norms about 0.79 and 1e-14: a pivot against its own diagonal
        # accepts it, where an eigenvalue test against the largest one refused it
        q = build_quadrature(FiberDomain.disk(0.5), 48, 96)
        c = 0.5
        w = QuadraticWeight.separable(c)
        frame = [HoloPoly.constant(1.0), HoloPoly(1, {(20,): 1.0})]
        dig = direct_image_gram(w, frame, q)
        t = (0.2 - 0.1j,)
        # ||z^k||^2 = exp(-c|t|^2) pi lowergamma(k + 1, R^2) for phi = c|t|^2 + |z|^2
        norms = [math.pi * gammainc(k + 1, 0.25) * math.factorial(k) for k in (0, 20)]
        expect = 2 * c * abs(t[0]) ** 2 - math.log(norms[0] * norms[1])
        assert dig.neg_log_det(t) == pytest.approx(expect, rel=1e-12)
        assert dig.neg_log_det_hessian(t)[0, 0] == pytest.approx(2 * c, rel=1e-10)


class TestSectionHessian:
    """Exact base derivatives of B against the separable closed form
    B(t) = exp(c|t|^2) B(0): dB/dt = c conj(t) B, d^2B/dt dt-bar = c (1 + c|t|^2) B."""

    @pytest.mark.parametrize("t", [0.0, 0.2 - 0.1j])
    def test_separable_closed_form(self, quad, t):
        c = 0.7
        w = QuadraticWeight.separable(c)
        fam = SectionFamily.constant([[0.3 + 0.1j]])
        sh = section_hessian(w, fam, (t,), 16, quad)
        B = section_value(w, fam, (t,), 16, quad)
        assert sh.B == pytest.approx(B, rel=1e-13)
        assert sh.grad[0] == pytest.approx(c * np.conj(t) * B, abs=1e-13)
        assert sh.hessian[0, 0].real == pytest.approx(c * (1 + c * abs(t) ** 2) * B, rel=1e-12)
        assert sh.log_hessian[0, 0] == pytest.approx(c, abs=1e-13)

    def test_memoized_per_family_point_and_degree(self, quad):
        w = QuadraticWeight.cross_term(0.5)
        fam = SectionFamily.constant([[0.2]])
        first = section_hessian(w, fam, (0.1,), 12, quad)
        assert section_hessian(w, SectionFamily.constant([[0.2]]), 0.1, 12, quad) is first
        assert section_hessian(w, fam, (0.1,), 14, quad) is not first
        assert section_hessian(w, SectionFamily.constant([[0.3]]), (0.1,), 12, quad) is not first
        assert not first.hessian.flags.writeable

    def test_section_leaving_the_domain_raises(self, quad):
        fam = SectionFamily.constant([[0.99]])
        with pytest.raises(SectionOutsideDomainError):
            section_hessian(GAUSS, fam, (0.0,), 12, quad)


class TestBaseGramJets:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("dom, nr, na, N", [
        (FiberDomain.disk(1.0), 48, 96, 12),
        (FiberDomain.polydisc(1.0, 0.8), 12, 24, 6),
    ], ids=["disk", "polydisc"])
    def test_ring_grams_of_fresh_measures(self, n, dom, nr, na, N):
        q = build_quadrature(dom, nr, na)
        w = QuadraticWeight.cross_term(0.5, n, dom.dim)
        t = (0.1 - 0.05j,) + (0.03j,) * (n - 1)
        jets = base_gram_jets(w, t, N, q)
        assert base_gram_jets(w, t, N, q) is jets  # one memo entry for dG and ddG
        assert [k for k in q.memo(w) if k[0] == "gram_jets"] == [("gram_jets", t, N)]
        dG, ddG = jets
        dim = monomial_basis(N, dom.dim).dim
        assert dG.shape == (n, dim, dim) and ddG.shape == (n, n, dim, dim)
        for arr in jets:
            assert not arr.flags.writeable and arr.flags.c_contiguous
        # the measures built afresh from the weight's evaluators
        basis = monomial_basis(N, dom.dim)
        mu = np.exp(-w.value(t, node_list(q))) * q.weights
        dphi = np.asarray(w.grad_base(t, node_list(q))).reshape(n, q.size)
        tt = w.hessian_field(t, node_list(q))[0]
        for a in range(n):
            assert np.array_equal(dG[a], ring_gram(basis, -dphi[a] * mu, q))
            # the diagonal measure |d_a phi|^2 - Re d_a dbar_a phi is real
            diag = (dphi[a].real ** 2 + dphi[a].imag ** 2 - tt[:, a, a].real) * mu
            assert np.array_equal(ddG[a, a], ring_gram(basis, diag, q))
            assert np.array_equal(ddG[a, a], ddG[a, a].conj().T)
            for c in range(a + 1, n):
                fresh = ring_gram(basis, (dphi[a] * np.conj(dphi[c]) - tt[:, a, c]) * mu, q)
                assert np.array_equal(ddG[a, c], fresh)
            for c in range(a + 1, n):
                assert np.array_equal(ddG[c, a], ddG[a, c].conj().T)

    @pytest.mark.parametrize("n", [1, 2])
    def test_two_dimensional_peak_holds_one_measure_at_a_time(self, n):
        # each measure is formed in one buffer that its ring Gram consumes, so
        # a fresh build holds one complex node field, exp(-phi) * w and the
        # Gram's rows at a time, besides the Grams it returns; the weight's
        # node fields and the ring tables are memoized before the measurement
        q = build_quadrature(FiberDomain.polydisc(1.0, 0.8), 12, 24)
        w = QuadraticWeight.cross_term(0.5, n, 2)
        t = (0.1 - 0.05j,) + (0.03j,) * (n - 1)
        basis = monomial_basis(10, 2)
        w.weight_values(t, q), w.node_jets(t, q), q.ring_tables(basis, True), q.ring_tables(basis)
        tracemalloc.start()
        try:
            base_gram_jets(w, t, 10, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grams = (n + n * n) * basis.dim ** 2 * 16
        assert peak <= 2.5 * q.size * 16 + grams


class TestOneFrameTruncation:
    """The degree-(N-2) kernel diagonal is the leading part of the one frame
    evaluation ``M(w) C`` (C is upper triangular), against the two-evaluation
    formula ``M(w)[:k] C[:k, :k]``."""

    CASES = [
        (FiberDomain.disk(1.0), 48, 96, 16, [0.5, 0.3 + 0.4j, 0.9]),
        (FiberDomain.annulus(0.3, 1.0), 32, 64, 12, [0.5, 0.6 + 0.2j]),
        (FiberDomain.polydisc(1.0, 1.0), 12, 24, 8, [(0.5, 0.5), (0.3 + 0.1j, 0.6)]),
    ]

    @staticmethod
    def _two_evaluations(b, amps, M):
        k = b.basis.truncated_dim(b.N - 2)
        full = float(np.sum(np.abs(amps @ (M @ b.transform)) ** 2))
        sub = float(np.sum(np.abs(amps @ (M[:, :k] @ b.transform[:k, :k])) ** 2))
        return full, sub

    @pytest.mark.parametrize("dom, nr, na, N, probes", CASES, ids=["disk", "annulus", "polydisc"])
    def test_gap_and_section_pair_match_two_evaluations(self, dom, nr, na, N, probes):
        q = build_quadrature(dom, nr, na)
        w = QuadraticWeight.cross_term(0.5, 1, dom.dim)
        b = bergman_basis(w, (0.1,), N, q)
        assert np.array_equal(np.triu(b.transform), b.transform)
        for x in probes:
            full, sub = self._two_evaluations(b, np.ones(1), b.monomials_at([x]).reshape(1, -1))
            # the gap is relative to K(x, x), so this bounds the sub-degree
            # diagonal within 1e-15 of K(x, x)
            assert abs(b.diag_convergence_gap(x) - abs(full - sub) / full) <= 1e-15
        fam = SectionFamily.constant([np.atleast_1d(x) for x in probes], amps=[1.0, 0.5j][:len(probes)]
                                     + [0.25] * (len(probes) - 2))
        full, sub = self._two_evaluations(b, fam.amplitudes_at((0.1,)), b.monomials_at(fam.sections_at((0.1,))))
        pair = section_value_pair(w, fam, (0.1,), N, q)
        assert pair[0] == full
        assert abs(pair[1] - sub) <= 1e-15 * full


class CountingWeight(QuadraticWeight):
    """Separable weight that counts its evaluations of phi."""

    def __init__(self, c: float = 1.0):
        super().__init__(1, 1, np.diag([c, 1.0]), label=f"counting c={c}")
        self.evaluations = 0

    def value(self, t, xi):
        self.evaluations += 1
        return super().value(t, xi)


class TestBasisMemo:
    """bergman_basis memoizes per (weight, t, N) on the quadrature rule."""

    @pytest.fixture
    def grams(self, monkeypatch):
        calls = []
        real = bergman_module.gram_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bergman_module, "gram_matrix", counted)
        return calls

    def test_repeated_key_builds_once(self, quad, grams):
        w = CountingWeight()
        b1 = bergman_basis(w, (0.1,), 12, quad)
        b2 = bergman_basis(w, 0.1, 12, quad)  # same key, scalar spelling
        assert (w.evaluations, len(grams)) == (1, 1)
        assert b2.t == b1.t == (0.1 + 0j,)
        for name in ("transform", "gram", "weight_vals"):
            assert getattr(b2, name) is getattr(b1, name)

    def test_reuse_is_bitwise(self, quad):
        w = CountingWeight(0.5)
        first = bergman_basis(w, (0.2 - 0.1j,), 12, quad)
        again = bergman_basis(w, (0.2 - 0.1j,), 12, quad)
        fresh = bergman_basis(CountingWeight(0.5), (0.2 - 0.1j,), 12, quad)
        z = np.array([0.3 + 0.2j, -0.1j])
        assert np.array_equal(again.orthonormal_at(z), first.orthonormal_at(z))
        assert np.array_equal(fresh.transform, first.transform)

    def test_any_key_change_misses(self, quad, grams):
        w = CountingWeight()
        bergman_basis(w, (0.1,), 12, quad)
        twin = CountingWeight()  # equal parameters, different object
        bergman_basis(twin, (0.1,), 12, quad)
        bergman_basis(w, (0.1 + 1e-12j,), 12, quad)
        bergman_basis(w, (0.1,), 10, quad)
        other = build_quadrature(FiberDomain.disk(1.0), n_radial=40, n_angular=96)
        bergman_basis(w, (0.1,), 12, other)
        # another N builds a new basis on the weight values already stored for t
        assert (w.evaluations, twin.evaluations, len(grams)) == (3, 1, 5)

    def test_weight_values_shared_across_degrees_and_gram_fields(self, quad):
        w = CountingWeight(0.5)
        frame = [HoloPoly.constant(1.0), HoloPoly(1, {(1,): 1.0})]
        dig = direct_image_gram(w, frame, quad)
        b12 = bergman_basis(w, (0.1,), 12, quad)
        b10 = bergman_basis(w, (0.1,), 10, quad)
        G = dig.gram_at((0.1,))
        bergman_basis(w, (0.0,), 12, quad)
        assert w.evaluations == 2  # one per base point, whatever reads it
        assert b10.weight_vals is b12.weight_vals
        fresh = QuadraticWeight.separable(0.5).weight_values((0.1,), quad) * quad.weights
        A = dig.coeffs
        expected = A.conj().T @ ring_gram(dig.basis, fresh, quad) @ A
        assert np.array_equal(G, 0.5 * (expected + expected.conj().T))

    def test_cached_arrays_read_only(self, quad):
        b = bergman_basis(CountingWeight(), (0.0,), 8, quad)
        for arr in (b.transform, b.gram, b.weight_vals):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            b.transform[0, 0] = 1.0

    def test_entry_dies_with_weight_without_gc(self):
        q = build_quadrature(FiberDomain.disk(1.0), n_radial=16, n_angular=32)
        gc.disable()
        try:
            w = CountingWeight()
            ref = weakref.ref(bergman_basis(w, (0.0,), 8, q).transform)
            assert ref() is not None  # held by the memo
            del w
            assert ref() is None
        finally:
            gc.enable()

    def test_entry_dies_with_rule_without_gc(self):
        # the rule is shared per resolution: an entry outlives the caller's
        # rule while build_quadrature keeps it, and dies once it lets go too
        w = CountingWeight()
        gc.disable()
        try:
            q = build_quadrature(FiberDomain.disk(1.0), n_radial=16, n_angular=32)
            b = bergman_basis(w, (0.0,), 8, q)
            ref = weakref.ref(b.transform)
            del b, q
            assert ref() is not None
            build_quadrature.cache_clear()
            assert ref() is None
        finally:
            gc.enable()

    def test_scenarios_back_to_back_on_one_rule(self):
        texts = [(SCENARIOS / f"{name}.scn").read_text() for name in ("separable_c1", "cross_term_l05")]
        fresh = []
        for text in texts:
            build_quadrature.cache_clear()  # a rule of its own
            sc = parse_scenario(text)
            fresh.append([r.payload() for r in run_scenario_checks(sc, sc.checks)])
        build_quadrature.cache_clear()
        first, second = (parse_scenario(text) for text in texts)
        quad = first.build_quad()
        assert second.build_quad() is quad
        shared = [[r.payload() for r in run_scenario_checks(sc, sc.checks)] for sc in (first, second)]
        assert shared == fresh
        kept = lambda k: isinstance(k, MonomialBasis) or k is quad  # ring tables, radial matrices
        owners = [weakref.ref(k) for k in quad._memo.keys() if not kept(k)]
        assert owners  # the weights of both scenarios hold entries
        del first, second
        gc.collect()
        assert all(ref() is None for ref in owners)
        assert all(kept(k) for k in quad._memo.keys())  # the per-rule tables stay

    def test_shared_context_matches_fresh_contexts(self):
        sc = parse_scenario((SCENARIOS / "separable_c1.scn").read_text())
        shared = run_scenario_checks(sc, sc.checks)
        fresh = [run_scenario_checks(sc, (name,))[0] for name in sc.checks]  # one run each
        assert [r.payload() for r in shared] == [r.payload() for r in fresh]
        assert [r.verdict for r in shared] == ["pass"] * len(sc.checks)


def _reachable_arrays(obj, seen=None):
    """Every array reachable from ``obj`` through attributes, mappings (weak
    ones too) and sequences."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (dict, weakref.WeakKeyDictionary)):
        for key, value in list(obj.items()):
            yield from _reachable_arrays(key, seen)
            yield from _reachable_arrays(value, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _reachable_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _reachable_arrays(vars(obj), seen)


class TestNoNodeList:
    def test_polydisc_run_leaves_no_node_list_on_its_rule(self):
        sc = parse_scenario((SCENARIOS / "polydisc_cross.scn").read_text())
        quad = sc.build_quad()  # the one rule of this resolution, which the run reads
        records = run_scenario_checks(sc, sc.checks)
        assert [r.verdict for r in records] == ["pass"] * len(sc.checks)
        shapes = {a.shape for a in _reachable_arrays(quad)}
        assert (quad.size, 1) in shapes  # the walk reached the memoized node jets
        assert (quad.size, 2) not in shapes
