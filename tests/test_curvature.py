"""Base Hessians (exact and finite-difference) and the trace inequality checks.

Closed forms behind the assertions:

* the field exp(c|t|^2 + const) has log-Hessian trace exactly c (n = 1),
* for the weight |t|^2 + |z|^2 + 2 lam Re(t conj(z)) the certified constant
  is 1 - lam^2, while the log trace of any constant section is 1:
  multiplying by the holomorphic unit exp(-lam conj(t) z) maps the space at
  t onto the space at 0, so K_t(s, s) = exp(|t|^2 + 2 lam Re(conj(t) s))
  K_0(s, s), whose log is |t|^2 plus a pluriharmonic term (the truncated
  space meets this up to its truncation gap),
* with two base directions of which only t_1 couples, the log Hessian is
  the identity: trace 2, eigenvalues 1 and 1,
* the gradient-tilt multiplier for exp(|t|^2) at t0 is -2 conj(t0).
"""

import math

import numpy as np
import pytest

from bergman_lab import bergman as bergman_module
from bergman_lab.bergman import HoloPoly, SectionFamily, direct_image_gram, section_hessian
from bergman_lab.curvature import (
    CheckConfig,
    Stencil,
    UnconvergedBasisError,
    check_det_inequality,
    check_log_inequality,
    check_section_inequality,
    fd_hessian,
    truncation_gate,
)
from bergman_lab.fiber_numerics import DegenerateBasisError, FiberDomain, build_quadrature
from bergman_lab.weights import CustomWeight, PolynomialWeight, QuadraticWeight
from helpers import log_section_field, psh_spectrum, section_field, tilt_field

ORIGIN_FAM = SectionFamily.constant([[0.0]])


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(FiberDomain.disk(1.0), n_radial=48, n_angular=96)


@pytest.fixture(scope="module")
def cfg(quad):
    return CheckConfig(N=20, quad=quad)


class TestStencil:
    def test_point_count(self):
        assert Stencil((0j,), 1e-2).count == 5
        assert Stencil((0j, 0j), 1e-2).count == 17
        points = []
        fd_hessian(lambda t: points.append(t) or 0.0, Stencil((0j, 0j), 1e-2))
        assert len(points) == 17


class TestFdHessian:
    def test_abs_square(self):
        H = fd_hessian(lambda t: abs(t[0]) ** 2, Stencil((0.2 + 0.1j,), 1e-3))
        assert H[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_pluriharmonic(self):
        H = fd_hessian(lambda t: (t[0] ** 2).real, Stencil((0.3j,), 1e-3))
        assert abs(H[0, 0]) < 1e-10

    def test_two_dims_mixed(self):
        def f(t):
            return abs(t[0]) ** 2 + 2 * abs(t[1]) ** 2 + (t[0] * np.conj(t[1])).real

        H = fd_hessian(f, Stencil((0.1 + 0j, -0.2j), 1e-3))
        assert np.allclose(H, [[1, 0.5], [0.5, 2]], atol=1e-9)

    def test_rejects_non_real_field(self):
        with pytest.raises(ValueError, match="not real"):
            fd_hessian(lambda t: t[0], Stencil((0.5 + 0.5j,), 1e-3))

    def test_array_field_is_the_stack_of_its_scalar_fields(self):
        # one stencil for scalar and array-valued fields: entry k of the
        # array Hessian is, bit for bit, the Hessian of the k-th scalar field
        fields = [
            lambda t: abs(t[0]) ** 2 * abs(t[1]) ** 2,
            lambda t: math.exp((t[0] * np.conj(t[1])).real),
            lambda t: math.log(1 + abs(t[0] + 2 * t[1]) ** 2),
        ]
        st = Stencil((0.2 - 0.1j, 0.05j), 1e-3)
        H = fd_hessian(lambda t: np.array([f(t) for f in fields]), st)
        assert H.shape == (3, 2, 2)
        for k, f in enumerate(fields):
            assert np.array_equal(H[k], fd_hessian(f, st))

    def test_rejects_non_finite_entry_of_array_field(self):
        field = lambda t: np.array([abs(t[0]) ** 2, math.inf if t[0].real > 0.5 else 0.0])
        with pytest.raises(ValueError, match="not finite"):
            fd_hessian(field, Stencil((0.5 + 0.1j,), 1e-3))

    def test_rejects_non_real_entry_of_array_field(self):
        with pytest.raises(ValueError, match="not real"):
            fd_hessian(lambda t: np.array([abs(t[0]) ** 2, t[0]]), Stencil((0.3j,), 1e-3))

    def test_convergence_order(self):
        f = lambda t: math.exp(abs(t[0]) ** 2) * (1 + (t[0].real) ** 4)
        t0 = (0.37 + 0.21j,)
        traces = [
            float(np.real(np.trace(fd_hessian(f, Stencil(t0, h))))) for h in (4e-2, 2e-2, 1e-2)
        ]
        order = math.log2(abs(traces[0] - traces[1]) / abs(traces[1] - traces[2]))
        assert order >= 1.8


# a t-dependent section s(t) = 0.2 + 0.3 t with amplitude 1 + 0.5 t - 0.2i t^2
MOVING_FAM = SectionFamily(
    1, 1,
    ((HoloPoly(1, {(0,): 0.2, (1,): 0.3}),),),
    (HoloPoly(1, {(0,): 1.0, (1,): 0.5, (2,): -0.2j}),),
)


class TestExactHessian:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t0, s", [((0j,), 0.0), ((0.1 - 0.2j,), 0.3 + 0.2j)])
    def test_separable_log_trace_is_c(self, quad, c, t0, s):
        H = section_hessian(QuadraticWeight.separable(c), SectionFamily.constant([[s]]),
                            t0, 20, quad).log_hessian
        assert H[0, 0] == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("t0, s", [((0j,), 0.0), ((0.15 + 0.1j,), -0.3 + 0.25j)])
    def test_cross_log_trace_is_one(self, quad, lam, t0, s):
        # 1, not the certified 1 - lam^2
        H = section_hessian(QuadraticWeight.cross_term(lam), SectionFamily.constant([[s]]),
                            t0, 20, quad).log_hessian
        assert H[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_cross_n2_identity(self, quad):
        w = QuadraticWeight(2, 1, np.array([[1.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 1.0]]))
        fam = SectionFamily.constant([[0.2j]], base_dim=2)
        H = section_hessian(w, fam, (0.05 + 0.02j, -0.1j), 20, quad).log_hessian
        assert np.trace(H).real == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(np.linalg.eigvalsh(H), [1.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("w", [
        PolynomialWeight.from_text(
            1, 1, "(+ (* 0.8 (abs2 t1)) (abs2 z1) (* 0.3 (abs2 t1) (abs2 z1)))"
        ),
        CustomWeight.from_text(1, 1, "(+ (abs2 t1) (abs2 z1) (* 0.2 (re (* t1 (conj z1)))))"),
    ], ids=["polynomial", "custom"])
    def test_agrees_with_fd_within_richardson_gap(self, quad, w):
        # the h/2 stencil is off by about a third of the h vs h/2 gap
        t0, N = (0.1 + 0.05j,), 20
        sh = section_hessian(w, MOVING_FAM, t0, N, quad)
        cfg_ = CheckConfig(N=N, quad=quad)
        for fn, exact in ((section_field(w, MOVING_FAM, N, quad), sh.hessian),
                          (log_section_field(w, MOVING_FAM, N, quad), sh.log_hessian)):
            coarse, half = (fd_hessian(fn, Stencil(t0, h)) for h in (1e-2, 1e-2 / 2))
            gap = abs(np.trace(coarse).real - np.trace(half).real)
            assert gap <= cfg_.tolerance  # the Richardson gate of the cross-check
            assert np.abs(half - exact).max() <= gap
            assert abs(np.trace(half).real - np.trace(exact).real) <= gap

    def test_n2_mixed_entries_agree_with_fd(self, quad):
        H = np.array([[1.0, 0.2j, -0.5], [-0.2j, 1.3, 0.3], [-0.5, 0.3, 1.0]])
        w = QuadraticWeight(2, 1, H)
        fam = SectionFamily.constant([[0.1j]], base_dim=2)
        t0 = (0.03 + 0.01j, -0.02j)
        sh = section_hessian(w, fam, t0, 20, quad)
        cfg_ = CheckConfig(N=20, quad=quad)
        fn = section_field(w, fam, 20, quad)
        coarse, half = (fd_hessian(fn, Stencil(t0, h)) for h in (1e-2, 1e-2 / 2))
        gap = abs(np.trace(coarse).real - np.trace(half).real)
        assert gap <= cfg_.tolerance
        assert np.abs(half - sh.hessian).max() <= gap
        # quadratic weight: the log Hessian is the base block, whatever the section
        assert np.allclose(sh.log_hessian, H[:2, :2], atol=1e-9)

    def test_fresh_log_check_builds_one_basis(self, quad, monkeypatch):
        built = []
        real = bergman_module.gram_matrix

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bergman_module, "gram_matrix", counted)
        w = QuadraticWeight.cross_term(0.5)
        rep = check_log_inequality(w, ORIGIN_FAM, (0.1j,), 0.75, CheckConfig(N=20, quad=quad))
        assert rep.passed
        assert len(built) == 1  # the basis at t0; no stencil point
        assert [k for k in quad.memo(w) if k[0] == "basis"] == [("basis", (0.1j,), 20)]
        assert "half_step_gap" not in rep.diagnostics


class TestSectionInequality:
    def test_separable_equality(self, cfg):
        w = QuadraticWeight.separable(1.0)
        rep = check_section_inequality(w, ORIGIN_FAM, (0j,), 1.0, cfg)
        # B(t) = exp(|t|^2) B0, so trace = B0 exactly and the margin is round-off
        assert rep.passed
        assert abs(rep.margin) < 1e-12 * rep.diagnostics["B0"]

    def test_cross_term(self, cfg):
        w = QuadraticWeight.cross_term(0.5)
        rep = check_section_inequality(w, ORIGIN_FAM, (0j,), 0.75, cfg)
        assert rep.passed

    def test_degenerate_bound_plain_subharmonicity(self, cfg):
        w = QuadraticWeight(1, 1, np.diag([0.0, 1.0]))
        rep = check_section_inequality(w, ORIGIN_FAM, (0j,), 0.0, cfg)
        assert rep.passed and rep.bound == 0.0

    def test_unconverged_basis_raises(self, quad):
        w = QuadraticWeight(1, 1, np.zeros((2, 2)))
        near_edge = SectionFamily.constant([[0.9]])
        small = CheckConfig(N=6, quad=quad)
        with pytest.raises(UnconvergedBasisError, match="truncation"):
            check_section_inequality(w, near_edge, (0j,), 0.0, small)


class TestUnconvergedMessages:
    def test_truncation_gate_names_degree_and_quadrature(self):
        truncation_gate(1e-7, 16, "at t0")  # within tolerance: no verdict change
        with pytest.raises(UnconvergedBasisError) as exc:
            truncation_gate(2e-3, 16, "at t0")
        msg = str(exc.value)
        assert "kernel truncation not converged at t0" in msg
        assert "from degree 14 to 16" in msg
        assert "raise degree" in msg and "quadrature" in msg


class TestLogInequality:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_separable_equality(self, cfg, c):
        w = QuadraticWeight.separable(c)
        rep = check_log_inequality(w, ORIGIN_FAM, (0j,), c, cfg)
        assert rep.passed
        assert rep.trace == pytest.approx(c, abs=1e-3)

    def test_cross_term_certified_bound(self, cfg):
        w = QuadraticWeight.cross_term(0.5)
        rep = check_log_inequality(w, ORIGIN_FAM, (0j,), 0.75, cfg)
        assert rep.passed
        assert rep.trace == pytest.approx(1.0, abs=1e-3)  # measured, bound is 0.75

    def test_t_independent_weight(self, cfg):
        w = QuadraticWeight(1, 1, np.diag([0.0, 1.0]))
        rep = check_log_inequality(w, ORIGIN_FAM, (0j,), 0.0, cfg)
        assert rep.passed
        assert abs(rep.trace) < 1e-6


class TestDetInequality:
    FRAME = (HoloPoly.constant(1.0), HoloPoly(1, {(1,): 1.0}))

    def test_rank1_matches_section_convention(self, quad, cfg):
        # sign convention: -log det of the rank-1 Gram of {1} equals
        # log B(t) up to a constant, so the traces must agree
        c = 0.8
        w = QuadraticWeight.separable(c)
        dig = direct_image_gram(w, [HoloPoly.constant(1.0)], quad)
        rep = check_det_inequality(dig, (0j,), c, cfg)
        assert rep.passed
        assert rep.trace == pytest.approx(c, abs=1e-3)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_rank2_separable_equality(self, quad, cfg, c):
        w = QuadraticWeight.separable(c)
        dig = direct_image_gram(w, list(self.FRAME), quad)
        rep = check_det_inequality(dig, (0j,), c, cfg)
        assert rep.passed
        assert rep.trace == pytest.approx(2 * c, abs=1e-3)

    def test_cross_term_bound(self, quad, cfg):
        w = QuadraticWeight.cross_term(0.5)
        dig = direct_image_gram(w, list(self.FRAME), quad)
        rep = check_det_inequality(dig, (0j,), 0.75, cfg)
        assert rep.passed
        assert rep.trace >= 1.5 - 1e-3

    @pytest.mark.parametrize("case", ["cross", "polynomial", "cross n=2"])
    def test_exact_hessian_matches_fd(self, quad, case):
        if case == "cross":
            w, t0 = QuadraticWeight.cross_term(0.5), (0.05 - 0.02j,)
        elif case == "polynomial":
            w = PolynomialWeight.from_text(
                1, 1, "(+ (* 0.8 (abs2 t1)) (abs2 z1) (* 0.3 (abs2 t1) (abs2 z1)))"
            )
            t0 = (0.1 + 0.05j,)
        else:
            w, t0 = QuadraticWeight.cross_term(0.5, 2, 1), (0.03 + 0.01j, -0.02j)
        dig = direct_image_gram(w, list(self.FRAME), quad)
        exact = dig.neg_log_det_hessian(t0)
        H = fd_hessian(dig.neg_log_det, Stencil(t0, 1e-3))
        assert abs(np.trace(exact).real - np.trace(H).real) < 1e-6
        assert np.abs(exact - H).max() < 1e-6
        assert np.abs(exact - exact.conj().T).max() == 0.0

    def test_reports_exact_step(self, quad, cfg):
        w = QuadraticWeight.cross_term(0.5)
        dig = direct_image_gram(w, list(self.FRAME), quad)
        rep = check_det_inequality(dig, (0.1j,), 0.75, cfg)
        assert "half_step_gap" not in rep.diagnostics

    def test_dependent_frame_fails_at_t0(self, quad, cfg):
        w = QuadraticWeight.cross_term(0.5)
        dig = direct_image_gram(w, [HoloPoly.constant(1.0), HoloPoly.constant(-2.0)], quad)
        with pytest.raises(DegenerateBasisError, match=r"dependent at t=\(0\.1j,\)") as exc:
            check_det_inequality(dig, (0.1j,), 0.75, cfg)
        assert "frame element 2 of 2" in str(exc.value)


class TestTiltField:
    def test_alpha_closed_form(self):
        f = lambda t: math.exp(abs(t[0]) ** 2)
        _, alpha = tilt_field(f, Stencil((0.3 + 0j,), 1e-4))
        assert alpha[0] == pytest.approx(-0.6, abs=1e-7)

    def test_constant_field(self):
        f = lambda t: 2.0
        tilted, alpha = tilt_field(f, Stencil((0.5j,), 1e-4))
        assert alpha[0] == pytest.approx(0.0, abs=1e-12)
        assert tilted((0.1 + 0.1j,)) == pytest.approx(2.0)

    def test_trace_contract(self):
        # tilted-field trace at t0 equals B0 * (log-field trace)
        K = 2.5
        f = lambda t: K * math.exp(abs(t[0]) ** 2)
        t0 = (0.4 + 0.1j,)
        st = Stencil(t0, 1e-3)
        tilted, _ = tilt_field(f, st)
        trace = float(np.real(np.trace(fd_hessian(tilted, st))))
        B0 = f(t0)
        assert trace == pytest.approx(B0 * 1.0, abs=1e-6 * B0)

    def test_rejects_nonpositive_center(self):
        with pytest.raises(ValueError, match="positive"):
            tilt_field(lambda t: -1.0, Stencil((0j,), 1e-3))

    def test_consistency_with_log_check(self, quad):
        # the tilt reduction and the direct log Hessian give the same verdict
        w = QuadraticWeight.cross_term(0.5)
        cfg_ = CheckConfig(N=20, quad=quad)
        rep = check_log_inequality(w, ORIGIN_FAM, (0j,), 0.75, cfg_)
        fn = section_field(w, ORIGIN_FAM, 20, quad)
        st = Stencil((0j,), 1e-2)
        tilted, _ = tilt_field(fn, st)
        linear_trace = float(np.real(np.trace(fd_hessian(tilted, st))))
        B0 = fn((0j,))
        assert linear_trace / B0 == pytest.approx(rep.trace, abs=1e-4)
        assert (linear_trace >= w.n * 0.75 * B0 - 1e-3 * B0) == rep.passed


class TestPshSpectrum:
    def test_log_exp_field(self):
        f = lambda t: math.log(math.exp(abs(t[0]) ** 2))
        assert psh_spectrum(f, Stencil((0.2j,), 1e-3)) == pytest.approx(1.0, abs=1e-9)

    def test_pluriharmonic_zero(self):
        f = lambda t: (t[0] ** 2).real + 3.0
        assert abs(psh_spectrum(f, Stencil((0.1 + 0.4j,), 1e-3))) < 1e-10

    def test_log_kernel_cross_term(self, quad):
        w = QuadraticWeight.cross_term(0.5)
        fn = log_section_field(w, ORIGIN_FAM, 20, quad)
        assert psh_spectrum(fn, Stencil((0j,), 1e-2)) >= -1e-6
