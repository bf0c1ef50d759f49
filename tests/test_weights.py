"""Weight families: Hessians, Schur/exterior-power algebra, certification.

Closed forms used as oracles:

* phi = exp(|t|^2)|z|^2 has d2/dtdt~ = (1+|t|^2) e^{|t|^2} |z|^2,
  d2/dtdz~ = t~ e^{|t|^2} z, d2/dzdz~ = e^{|t|^2} (hand differentiation).
* For blocks (tt, tf, ff) with ff = 1 (n = d = 1) the Schur trace is
  tt - |tf|^2.
* The trace-constant attenuation factor is (1-delta)^(2n-2)/(1+delta)^(2n).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import as_materialized

from bergman_lab import weights
from bergman_lab.fiber_numerics import FiberDomain
from bergman_lab.weights import (
    BasePatch,
    ComplexHessian,
    CustomWeight,
    FiberDegenerateError,
    GridSpec,
    NotAWeightError,
    PolynomialWeight,
    QuadraticWeight,
    certify,
    distortion_margin,
    fiber_contraction,
    hessian_at,
    ma_ratio,
    schur_trace,
    schur_trace_field,
    twist_weight,
)

CROSS_TEXT = "(+ (abs2 t1) (abs2 z1) (* {two_lam} (re (* t1 (conj z1)))))"


def default_grid(n=1, d=1):
    return GridSpec(BasePatch((0j,) * n, 0.5), FiberDomain.polydisc(*(1.0,) * d) if d == 2 else FiberDomain.disk(1.0))


def random_psd_hessian(rng, n, d, ridge=0.2):
    m = n + d
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    H = A @ A.conj().T + ridge * np.eye(m)
    H /= np.abs(H).max()  # normalize scale so absolute tolerances are meaningful
    H += ridge * np.eye(m)
    return ComplexHessian(H[:n, :n], H[:n, n:], H[n:, n:])


class TestHessianAt:
    def test_separable_blocks(self):
        w = QuadraticWeight.separable(1.0)
        h = hessian_at(w, 0.2 + 0.1j, 0.3)
        assert h.tt[0, 0] == pytest.approx(1.0)
        assert h.tf[0, 0] == pytest.approx(0.0)
        assert h.ff[0, 0] == pytest.approx(1.0)

    def test_cross_term_blocks(self):
        w = QuadraticWeight.cross_term(0.5)
        h = hessian_at(w, 0j, 0j)
        assert h.tf[0, 0] == pytest.approx(0.5)
        assert np.allclose(h.assembled, [[1, 0.5], [0.5, 1]])

    def test_custom_fd_matches_hand_derivatives(self):
        w = CustomWeight.from_text(1, 1, "(* (exp (abs2 t1)) (abs2 z1))")
        t, z = 0.3 + 0j, 0.5 + 0j
        h = hessian_at(w, t, z)
        e = math.exp(abs(t) ** 2)
        assert h.tt[0, 0] == pytest.approx((1 + abs(t) ** 2) * e * abs(z) ** 2, abs=1e-6)
        assert h.tf[0, 0] == pytest.approx(np.conj(t) * e * z, abs=1e-6)
        assert h.ff[0, 0] == pytest.approx(e, abs=1e-6)

    def test_polynomial_analytic_matches_fd(self):
        text = CROSS_TEXT.format(two_lam=0.8)
        wp = PolynomialWeight.from_text(1, 1, text)
        wc = CustomWeight.from_text(1, 1, text)
        pts = np.array([0.2 + 0.3j, -0.4j, 0.6])
        tp = wp.hessian_field((0.1 + 0.2j,), pts)
        tc = wc.hessian_field((0.1 + 0.2j,), pts)
        for a, b in zip(tp, tc):
            assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-6

    def test_non_real_weight_rejected(self):
        with pytest.raises(NotAWeightError):
            PolynomialWeight.from_text(1, 1, "(* 1j (abs2 t1))")
        w = CustomWeight.from_text(1, 1, "(* t1 z1)")
        with pytest.raises(NotAWeightError):
            w.value((0.5 + 0j,), 0.5j)


def einsum_quadratic(H, t, pts):
    """phi = sum_jk H[j,k] x_j conj(x_k) over the joint coordinates, as one einsum."""
    X = np.hstack([np.broadcast_to(np.asarray(t, dtype=complex), (pts.shape[0], len(t))), pts])
    return np.einsum("jk,mj,mk->m", H, X, np.conj(X))


class TestQuadraticValues:
    @pytest.mark.parametrize("n, d", [(1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_einsum_oracle(self, n, d, seed):
        g = np.random.default_rng(seed)
        A = g.normal(size=(n + d, n + d)) + 1j * g.normal(size=(n + d, n + d))
        H = 0.5 * (A + A.conj().T)
        H[0, -1] = H[-1, 0] = 0.0  # a skipped zero entry
        w = QuadraticWeight(n, d, H)
        t = tuple(g.normal(size=n) + 1j * g.normal(size=n))
        pts = g.normal(size=(64, d)) + 1j * g.normal(size=(64, d))
        vals = w.value(t, pts)
        oracle = einsum_quadratic(H, t, pts)
        assert vals.dtype == float
        assert np.abs(oracle.imag).max() <= 1e-12 * np.abs(oracle).max()
        assert np.abs(vals - oracle.real).max() <= 1e-13 * np.abs(oracle).max()

    def test_cross_term_closed_form(self):
        w = QuadraticWeight.cross_term(0.5)
        t, z = 0.3 - 0.2j, np.array([0.1 + 0.7j, -0.4j])
        expected = abs(t) ** 2 + np.abs(z) ** 2 + np.real(t * np.conj(z))
        assert np.allclose(w.value((t,), z), expected, rtol=1e-14, atol=0)


class TestQuadraticGradBase:
    @pytest.mark.parametrize("n, d", [(1, 1), (2, 1), (1, 2)])
    def test_matches_full_product(self, n, d):
        g = np.random.default_rng(7)
        A = g.normal(size=(n + d, n + d)) + 1j * g.normal(size=(n + d, n + d))
        H = 0.5 * (A + A.conj().T)
        w = QuadraticWeight(n, d, H)
        t = tuple(g.normal(size=n) + 1j * g.normal(size=n))
        pts = g.normal(size=(64, d)) + 1j * g.normal(size=(64, d))
        X = np.hstack([np.broadcast_to(np.asarray(t), (64, n)), pts])
        full = (H @ np.conj(X).T)[:n]
        got = w.grad_base(t, pts)
        assert got.shape == (n, 64)
        assert np.abs(got - full).max() <= 1e-15 * np.abs(full).max()
        single = pts[0] if d > 1 else pts[0, 0]
        assert np.abs(w.grad_base(t, single) - full[:, 0]).max() <= 1e-15 * np.abs(full).max()


class TestSchurTrace:
    def test_identity(self):
        h = ComplexHessian(np.eye(1), np.zeros((1, 1)), np.eye(1))
        assert schur_trace(h) == pytest.approx(1.0)

    def test_cross_arithmetic(self):
        h = ComplexHessian([[2.0]], [[0.8]], [[1.0]])
        assert schur_trace(h) == pytest.approx(1.36)

    def test_zero_cross_n2(self):
        h = ComplexHessian(np.eye(2), np.zeros((2, 1)), [[5.0]])
        assert schur_trace(h) == pytest.approx(2.0)

    def test_degenerate_fiber_block(self):
        h = ComplexHessian(np.eye(1), np.zeros((1, 1)), [[0.0]])
        with pytest.raises(FiberDegenerateError):
            schur_trace(h)

    def test_field_matches_pointwise(self, rng):
        hs = [random_psd_hessian(rng, 2, 2) for _ in range(6)]
        tt = np.stack([h.tt for h in hs])
        tf = np.stack([h.tf for h in hs])
        ff = np.stack([h.ff for h in hs])
        vals = schur_trace_field(tt, tf, ff)
        assert np.allclose(vals, [schur_trace(h) for h in hs], atol=1e-12)


class TestFiberContraction:
    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_broadcast_blocks_match_copies_bitwise(self, n, d, rng):
        h = random_psd_hessian(rng, n, d)
        views = [np.broadcast_to(b, (64, *b.shape)) for b in (h.tt, h.tf, h.ff)]
        copies = [np.ascontiguousarray(v) for v in views]
        assert views[1].strides[0] == 0 and copies[1].strides[0] != 0
        c_view, min_view = fiber_contraction(views[1], views[2])
        c_copy, min_copy = fiber_contraction(copies[1], copies[2])
        assert c_view.shape == c_copy.shape == (64, n)
        assert np.array_equal(c_view, c_copy) and min_view == min_copy
        assert np.array_equal(schur_trace_field(*views), schur_trace_field(*copies))

    def test_broadcast_stack_evaluates_one_block(self, monkeypatch, rng):
        h = random_psd_hessian(rng, 2, 2)
        seen = []
        real = weights._contract

        def spy(tf, ff, where):
            seen.append(ff.shape[0])
            return real(tf, ff, where)

        monkeypatch.setattr(weights, "_contract", spy)
        fiber_contraction(*(np.broadcast_to(b, (500, *b.shape)) for b in (h.tf, h.ff)))
        fiber_contraction(*(np.repeat(b[None], 500, axis=0) for b in (h.tf, h.ff)))
        assert seen == [1, 500]

    def test_matches_pointwise_diagonal(self, rng):
        h = random_psd_hessian(rng, 2, 2)
        contraction, ff_min = fiber_contraction(h.tf, h.ff)
        expected = np.real(np.diag(h.tf @ np.linalg.inv(h.ff) @ h.tf.conj().T))
        assert np.allclose(contraction, expected, atol=1e-12)
        assert ff_min == pytest.approx(np.linalg.eigvalsh(h.ff)[0], abs=1e-14)

    @pytest.mark.parametrize("layout", ["broadcast", "materialized"])
    def test_non_positive_fiber_block_raises(self, layout):
        tf = np.broadcast_to(np.array([[0.3]], dtype=complex), (32, 1, 1))
        ff = np.broadcast_to(np.array([[-0.5]], dtype=complex), (32, 1, 1))
        if layout == "materialized":
            tf, ff = np.ascontiguousarray(tf), np.ascontiguousarray(ff)
        with pytest.raises(FiberDegenerateError, match="min eigenvalue -5.000e-01") as exc:
            fiber_contraction(tf, ff)
        assert exc.value.min_eig == -0.5

    def test_tiny_fiber_eigenvalue_raises_on_every_path(self):
        # one positivity rule: lambda_min <= 1e-14 max(1, lambda_max) is
        # degenerate for the point path and the stacked field path alike
        h = ComplexHessian([[1.0]], [[0.0]], [[1e-17]])
        with pytest.raises(FiberDegenerateError, match="1.000e-17"):
            schur_trace(h)
        with pytest.raises(FiberDegenerateError, match="1.000e-17"):
            schur_trace_field(h.tt[None], h.tf[None], h.ff[None])
        with pytest.raises(FiberDegenerateError):
            ma_ratio(h, 1, 1)
        cert = certify(QuadraticWeight(1, 1, np.diag([1.0, 1e-17])), default_grid())
        assert not cert.diagnostics["fiber_pd"] and cert.eps0 == 0.0
        assert cert.diagnostics["min_fiber_eig"] == pytest.approx(1e-17)

    def test_joint_assembly_matches_blocks(self, rng):
        h = random_psd_hessian(rng, 2, 1)
        H = h.assembled
        assert np.array_equal(H[:2, :2], h.tt) and np.array_equal(H[2:, :2], h.tf.conj().T)
        stacked = weights.joint_hessian(h.tt[None], h.tf[None], h.ff[None])
        assert np.array_equal(stacked[0], H)


class TestMaRatio:
    def test_identity_case(self):
        h = ComplexHessian(np.eye(1), np.zeros((1, 1)), np.eye(1))
        assert ma_ratio(h, 1, 1) == pytest.approx(1.0)

    def test_cross_case(self):
        h = ComplexHessian([[2.0]], [[0.8]], [[1.0]])
        assert ma_ratio(h, 1, 1) == pytest.approx(1.36, abs=1e-12)

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_schur_randomized(self, n, d, rng):
        for _ in range(20):
            h = random_psd_hessian(rng, n, d)
            assert abs(ma_ratio(h, n, d) - schur_trace(h)) < 1e-10


class TestOptimalQuadraticForm:
    @given(st.integers(0, 5000))
    def test_bound_and_equality(self, seed):
        # with identity fiber block, trace(tt) - 2Re<tf,lam> + |lam|^2
        # is minimized exactly at lam = tf, where it equals the Schur trace
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h = random_psd_hessian(rng, n, d)
        h = ComplexHessian(h.tt, h.tf, np.eye(d))
        target = schur_trace(h)
        lam = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        q = (
            float(np.real(np.trace(h.tt)))
            - 2 * float(np.real(np.sum(h.tf * np.conj(lam))))
            + float(np.sum(np.abs(lam) ** 2))
        )
        assert q >= target - 1e-12
        q_opt = (
            float(np.real(np.trace(h.tt)))
            - 2 * float(np.real(np.sum(h.tf * np.conj(h.tf))))
            + float(np.sum(np.abs(h.tf) ** 2))
        )
        assert q_opt == pytest.approx(target, abs=1e-12)


class TestCertify:
    def test_separable(self):
        cert = certify(QuadraticWeight.separable(1.0), default_grid())
        assert cert.eps0 == pytest.approx(1.0, abs=1e-12)
        assert cert.C == pytest.approx(0.0, abs=1e-12)
        assert cert.psh_min_eig == pytest.approx(1.0, abs=1e-12)

    def test_cross_term(self):
        cert = certify(QuadraticWeight.cross_term(0.5), default_grid())
        assert cert.eps0 == pytest.approx(0.75, abs=1e-12)

    def test_concave_base_direction(self):
        w = QuadraticWeight(1, 1, np.diag([-0.5, 1.0]))
        cert = certify(w, default_grid())
        assert cert.eps0 == 0.0
        assert cert.C == pytest.approx(0.5, abs=1e-12)

    def test_positive_schur_still_gated_by_psh(self):
        # Schur trace 2.5 > 0 everywhere, but one base direction is concave:
        # the certificate must refuse a positive eps0
        w = QuadraticWeight(2, 1, np.diag([3.0, -0.5, 1.0]))
        cert = certify(w, GridSpec(BasePatch((0j, 0j), 0.5), FiberDomain.disk(1.0)))
        assert cert.diagnostics["min_schur_trace"] == pytest.approx(2.5)
        assert cert.eps0 == 0.0
        assert not cert.psh_ok

    @pytest.mark.parametrize("weight", ["cross", "polynomial"])
    def test_batched_minima_match_per_point_spectra(self, weight):
        if weight == "cross":
            w = QuadraticWeight.cross_term(0.3, 2, 1)
            grid = GridSpec(BasePatch((0j, 0j), 0.5), FiberDomain.disk(1.0))
        else:
            w = PolynomialWeight.from_text(1, 1, "(+ (* 0.9 (abs2 t1)) (abs2 z1) (* 0.2 (abs2 t1) (abs2 z1)))")
            grid = default_grid()
        cert = certify(w, grid)
        psh, base, fiber, schur = [], [], [], []
        for t in grid.base_points():
            tt, tf, ff = w.hessian_field(tuple(t), grid.fiber_points())
            for k in range(tt.shape[0]):
                h = ComplexHessian(tt[k], tf[k], ff[k])
                psh.append(np.linalg.eigvalsh(h.assembled)[0])
                base.append(np.linalg.eigvalsh(h.tt)[0])
                fiber.append(np.linalg.eigvalsh(h.ff)[0])
                schur.append(schur_trace(h))
        assert cert.psh_min_eig == pytest.approx(min(psh), abs=1e-14)
        assert cert.diagnostics["min_base_eig"] == pytest.approx(min(base), abs=1e-14)
        assert cert.diagnostics["min_fiber_eig"] == pytest.approx(min(fiber), abs=1e-14)
        assert cert.diagnostics["min_schur_trace"] == pytest.approx(min(schur), abs=1e-12)

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (1, 2)])
    def test_broadcast_blocks_certify_like_copies(self, n, d):
        w = QuadraticWeight.cross_term(0.4, n, d)
        a = certify(w, default_grid(n, d))
        b = certify(as_materialized(w), default_grid(n, d))
        assert (a.eps0, a.C, a.psh_min_eig) == (b.eps0, b.C, b.psh_min_eig)
        assert {k: v for k, v in a.diagnostics.items() if k != "weight"} == \
            {k: v for k, v in b.diagnostics.items() if k != "weight"}

    def test_custom_weight_certification(self):
        w = CustomWeight.from_text(1, 1, "(+ (abs2 t1) (abs2 z1))")
        cert = certify(w, default_grid())
        assert cert.eps0 == pytest.approx(1.0, abs=1e-6)

    def test_non_real_weight_not_certified(self):
        # the holomorphic term z1 has zero Hessian, so only a value check sees it
        w = CustomWeight.from_text(1, 1, "(+ (abs2 t1) (abs2 z1) z1)")
        with pytest.raises(NotAWeightError, match="not real-valued"):
            certify(w, default_grid())


class TestTwist:
    def test_cancels_negative_base_block(self):
        w = QuadraticWeight(1, 1, np.diag([-0.5, 1.0]))
        tw = twist_weight(w, 0.5)
        h = hessian_at(tw, 0j, 0j)
        assert h.tt[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_fiber_only_weight(self):
        w = QuadraticWeight(1, 1, np.diag([0.0, 1.0]))
        cert = certify(twist_weight(w, 1.0), default_grid())
        assert cert.eps0 == pytest.approx(1.0, abs=1e-12)

    def test_constant_hessian_arithmetic(self):
        w = QuadraticWeight.cross_term(0.5)
        cert = certify(twist_weight(w, 2.0), default_grid())
        assert cert.eps0 == pytest.approx(2.75, abs=1e-12)

    def test_custom_twist_wrapper(self):
        w = CustomWeight.from_text(1, 1, "(abs2 z1)")
        tw = twist_weight(w, 1.0)
        assert tw.value((0.5 + 0j,), 0j) == pytest.approx(0.25)
        h = hessian_at(tw, 0.1 + 0j, 0.2 + 0j)
        assert h.tt[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_negative_twist_rejected(self):
        with pytest.raises(ValueError):
            twist_weight(QuadraticWeight.separable(1.0), -0.1)


class TestDistortionMargin:
    def test_identity_at_zero(self):
        assert distortion_margin(1, 0.0, 0.7) == pytest.approx(0.7, abs=1e-15)

    def test_closed_form_n2(self):
        expect = 0.9**2 / 1.1**4
        assert distortion_margin(2, 0.1, 1.0) == pytest.approx(expect, abs=1e-12)

    def test_closed_form_n1(self):
        assert distortion_margin(1, 0.1, 1.0) == pytest.approx(1 / 1.21, abs=1e-12)

    @given(st.floats(0.0, 0.98), st.floats(0.0, 0.98))
    def test_monotone_in_delta(self, a, b):
        lo, hi = sorted((a, b))
        assert distortion_margin(2, hi, 1.0) <= distortion_margin(2, lo, 1.0) + 1e-15

    def test_rejects_bad_delta(self):
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                distortion_margin(1, bad, 1.0)


class TestPatchAndGrid:
    def test_patch_contains(self):
        p = BasePatch((0j,), 0.5)
        assert p.contains((0.4 + 0j,))
        assert not p.contains((0.6 + 0j,))
        assert not p.contains((0.48 + 0j,), margin_frac=0.1)

    def test_sample_counts(self):
        p = BasePatch((0j, 1 + 0j), 0.5)
        assert p.sample().shape == (81, 2)  # 9 points per coordinate

    def test_grid_fiber_inside_domain(self):
        g = default_grid()
        pts = g.fiber_points()
        assert g.fiber.contains(pts).all()
