"""Weight mixing, Bergman potentials, and the recursion ledger.

Separable weights are the transparent oracle: phi = c|t|^2 + |xi|^2 has
kernel e^{c|t|^2} K_0(xi, xi), so the log-kernel field carries base
curvature exactly c at every step, the mixed weights stay separable, and
the certified bounds follow (1 - (1 - 1/m)^k) eps0 in closed form.
"""

import json
import math

import numpy as np
import pytest

import bergman_lab.bergman as bergman_module
import bergman_lab.curvature as curvature_module
import bergman_lab.fiber_numerics as fiber_numerics
import bergman_lab.utils as utils_module
import bergman_lab.weights as weights_module
from bergman_lab.curvature import CheckConfig, UnconvergedBasisError
from bergman_lab.fiber_numerics import FiberDomain, build_quadrature
from bergman_lab.iteration import (
    GridMismatchError,
    LogKernelField,
    mix_weights,
    run_iteration,
    run_twisted_iteration,
)
from bergman_lab.utils import wirtinger_hessian
from bergman_lab.weights import QuadraticWeight
from helpers import bergman_weight, mixed_bound, sample_field_csv


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(FiberDomain.disk(1.0), 48, 96)


@pytest.fixture(scope="module")
def cfg(quad):
    return CheckConfig(N=16, quad=quad)


class TestLogKernelField:
    def test_separable_base_curvature_sign(self, quad):
        # the -log kernel field of c|t|^2 + |xi|^2 has tt block exactly -c
        w = QuadraticWeight.separable(0.7, 1, 1)
        fld = bergman_weight(w, 16, quad)
        tt, tf, ff = fld.hessian_field((0.1 + 0.05j,), np.array([0.0j, 0.3 + 0j]))
        assert np.max(np.abs(tt[:, 0, 0] + 0.7)) < 1e-12
        assert np.max(np.abs(tf)) < 1e-12
        assert np.all(ff[:, 0, 0].real < 0)  # metric side: -log K concave in xi

    def test_positive_sign_field(self, quad):
        w = QuadraticWeight.separable(0.7, 1, 1)
        fld = LogKernelField(w, 16, quad, sign=1)
        tt, _tf, ff = fld.hessian_field((0.1,), np.array([0.2 + 0j]))
        assert tt[0, 0, 0].real == pytest.approx(0.7, abs=1e-12)
        assert ff[0, 0, 0].real > 0

    def test_t_independent_weight(self, quad):
        w = QuadraticWeight(1, 1, np.diag([0.0, 1.0]), label="gauss")
        fld = bergman_weight(w, 16, quad)
        xi = np.array([0.2 + 0.1j])
        assert abs(fld.value((0.0,), xi) - fld.value((0.3 + 0.2j,), xi))[0] < 1e-12

    def test_two_resolution_consistency(self, quad):
        w = QuadraticWeight.separable(0.7, 1, 1)
        quad_fine = build_quadrature(FiberDomain.disk(1.0), 64, 128)
        pts = np.array([0.0 + 0j, 0.3 + 0.2j, 0.55 + 0j])
        a = bergman_weight(w, 16, quad).value((0.1,), pts)
        b = bergman_weight(w, 16, quad_fine).value((0.1,), pts)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_dimension_mismatch(self):
        quad2 = build_quadrature(FiberDomain.polydisc(1.0, 1.0), 8, 16)
        w = QuadraticWeight.separable(1.0, 1, 1)
        with pytest.raises(GridMismatchError):
            LogKernelField(w, 6, quad2)

    def test_unconverged_truncation(self, quad):
        w = QuadraticWeight(1, 1, np.zeros((2, 2)), label="flat")
        fld = bergman_weight(w, 6, quad)
        with pytest.raises(UnconvergedBasisError, match="truncation"):
            fld.value((0.0,), np.array([0.1 + 0j]))

    def test_basis_cache_reuse(self, quad):
        w = QuadraticWeight.separable(1.0, 1, 1)
        fld = LogKernelField(w, 16, quad)
        xi = np.array([0.1 + 0j])
        fld.value((0.0,), xi)
        fld.value((0.0,), xi)
        assert fld.cached_points == 1
        fld.value((0.1,), xi)
        assert fld.cached_points == 2

    @pytest.mark.parametrize(
        "dom, nr, na, N",
        [
            (FiberDomain.disk(1.0), 48, 96, 16),
            (FiberDomain.annulus(0.3, 1.0), 32, 64, 12),
            (FiberDomain.polydisc(1.0, 0.8), 12, 24, 8),
        ],
        ids=["disk", "annulus", "polydisc"],
    )
    def test_node_values_match_frame_path(self, dom, nr, na, N, monkeypatch):
        # quad.nodes itself takes the ring synthesis; an equal copy of the
        # nodes takes the orthonormal frame, as any other point set does
        q = build_quadrature(dom, nr, na)
        w = QuadraticWeight.cross_term(0.5, 1, dom.dim)
        fld = LogKernelField(w, N, q, sign=-1, convergence_tol=1e-2)
        t = (0.2 - 0.1j,)
        built = []
        original = fiber_numerics.vandermonde
        monkeypatch.setattr(fiber_numerics, "vandermonde",
                            lambda b, x: built.append(x.shape[0]) or original(b, x))
        on_nodes = fld.value(t, q.nodes)
        assert q.size not in built  # no node Vandermonde on the synthesis path
        grad_nodes, tt_nodes = fld.grad_base(t, q.nodes), fld.base_hessian(t, q.nodes)
        assert q.size not in built  # nor for the derivatives
        copy = q.nodes.copy()
        on_copy = fld.value(t, copy)
        assert on_nodes.shape == on_copy.shape == (q.size,)
        assert np.abs(on_nodes - on_copy).max() <= 1e-13 * np.abs(on_copy).max()
        # the node jets (ring synthesis of P and its base derivatives) agree
        # with the point jets (monomial values against the same matrices)
        assert grad_nodes.shape == (1, q.size) and tt_nodes.shape == (q.size, 1, 1)
        grad_nodes, tt_nodes = grad_nodes[:, ::7], tt_nodes[::7]
        grad_copy, tt_copy = fld.grad_base(t, copy[::7]), fld.base_hessian(t, copy[::7])
        assert np.abs(grad_nodes - grad_copy).max() <= 1e-12 * max(1.0, np.abs(grad_copy).max())
        assert np.abs(tt_nodes - tt_copy).max() <= 1e-12 * max(1.0, np.abs(tt_copy).max())

    @pytest.mark.parametrize(
        "w, dom, nr, na, N, t",
        [
            (QuadraticWeight.cross_term(0.5, 2, 1), FiberDomain.disk(1.0), 48, 96, 16,
             (0.03 + 0.01j, -0.02j)),
            (QuadraticWeight(1, 2, np.array([[1.0, -0.5, 0.2j], [-0.5, 1.0, 0.0], [-0.2j, 0.0, 1.0]])),
             FiberDomain.polydisc(1.0, 1.0), 12, 24, 10, (0.05 + 0.03j,)),
        ],
        ids=["base_dim2", "polydisc"],
    )
    def test_exact_jets_match_finite_differences(self, w, dom, nr, na, N, t):
        # psi_1 of the m = 2 iteration: exact blocks against the Wirtinger
        # stencil of its values, O(h^2) apart (h and h/2 bracket the error)
        q = build_quadrature(dom, nr, na)
        tol = 1e-6 if dom.dim == 1 else 1e-2  # degree 10 on the polydisc settles to 1.3e-3
        psi = LogKernelField(mix_weights(LogKernelField(w, N, q, convergence_tol=tol), w, 2), N, q,
                             convergence_tol=tol)
        xi = np.array([[0.0] * w.d, [0.3] + [0.1j] * (w.d - 1)], dtype=complex)
        exact = psi.hessian_field(t, xi)
        n = w.n

        def eval_at(off):
            return psi.value(tuple(c + o for c, o in zip(t, off[:n])), xi + off[n:])

        rows = (slice(0, n), slice(0, n), slice(n, None))  # blocks tt, tf, ff
        cols = (slice(0, n), slice(n, None), slice(n, None))
        gaps = []
        for h in (1e-2, 5e-3):
            H = wirtinger_hessian(eval_at, n + w.d, h)
            gaps.append([np.abs(e - H[:, r, c]).max() for e, r, c in zip(exact, rows, cols)])
        for coarse, fine in zip(*gaps):
            assert fine <= 1e-4
            assert fine <= max(0.3 * coarse, 1e-9)  # shrinks like h^2 until round-off
        assert np.abs(exact[1]).max() > 0.1  # the coupling reaches the mixed block

    def test_bad_sign(self, quad):
        with pytest.raises(ValueError, match="sign"):
            LogKernelField(QuadraticWeight.separable(1.0, 1, 1), 12, quad, sign=2)


class TestMixing:
    def test_fixed_point(self, quad):
        w = QuadraticWeight.separable(1.0, 1, 1)
        mixed = mix_weights(w, w, 2)
        pts = np.array([0.1 + 0j, 0.4 - 0.2j])
        assert np.max(np.abs(mixed.value((0.2,), pts) - w.value((0.2,), pts))) == 0.0

    def test_affine_combination(self, quad):
        a = QuadraticWeight.separable(1.0, 1, 1)
        b = QuadraticWeight.separable(3.0, 1, 1)
        mixed = mix_weights(a, b, 4)  # 3/4 a + 1/4 b
        pts = np.array([0.3 + 0.1j])
        ref = 0.75 * a.value((0.2,), pts) + 0.25 * b.value((0.2,), pts)
        assert np.max(np.abs(mixed.value((0.2,), pts) - ref)) < 1e-14

    def test_bound_arithmetic(self):
        assert mixed_bound(0.0, 1.0, 2) == pytest.approx(0.5)
        assert mixed_bound(0.0, 1.0, 4) == pytest.approx(0.25)

    @pytest.mark.parametrize("m", [1, 0, 2.5])
    def test_bad_order(self, m):
        w = QuadraticWeight.separable(1.0, 1, 1)
        with pytest.raises(ValueError):
            mix_weights(w, w, m)

    def test_grid_mismatch(self, quad):
        quad_fine = build_quadrature(FiberDomain.disk(1.0), 64, 128)
        w = QuadraticWeight.separable(1.0, 1, 1)
        f1 = LogKernelField(w, 12, quad)
        f2 = LogKernelField(w, 12, quad_fine)
        with pytest.raises(GridMismatchError, match="grid"):
            mix_weights(f1, f2, 2)

    def test_dim_mismatch(self):
        a = QuadraticWeight.separable(1.0, 1, 1)
        b = QuadraticWeight.separable(1.0, 2, 1)
        with pytest.raises(GridMismatchError):
            mix_weights(a, b, 2)


class TestRunIteration:
    def test_separable_ledger(self, cfg):
        led = run_iteration(QuadraticWeight.separable(1.0, 1, 1), 2, 4, cfg, eps0=1.0)
        assert len(led.steps) == 4
        for s in led.steps:
            assert math.isclose(s.certified_bound, 1.0 - 0.5**s.k, rel_tol=1e-15)
            assert s.measured_trace == pytest.approx(1.0, abs=1e-6)
            assert s.psh_min > -1e-8
        bounds = [s.certified_bound for s in led.steps]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert led.limit_gap == pytest.approx(0.0625, rel=1e-12)
        assert led.satisfies()

    def test_series_arithmetic_m3(self, cfg):
        led = run_iteration(QuadraticWeight.separable(0.6, 1, 1), 3, 2, cfg, eps0=0.6)
        assert led.steps[-1].certified_bound == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_cross_term_certifies_and_clears(self, cfg):
        led = run_iteration(QuadraticWeight.cross_term(0.5, 1, 1), 2, 3, cfg)
        assert led.eps0 == pytest.approx(0.75, abs=1e-9)
        assert led.satisfies()
        for s in led.steps:
            assert s.measured_trace >= s.certified_bound - 1e-3
            assert s.measured_trace < 1.1

    def test_zero_steps(self, cfg):
        led = run_iteration(QuadraticWeight.cross_term(0.5, 1, 1), 2, 0, cfg, eps0=0.75)
        assert led.steps == ()
        assert led.limit_gap == pytest.approx(0.75)
        assert led.bound_at(0) == 0.0

    def test_validation(self, cfg):
        w = QuadraticWeight.separable(1.0, 1, 1)
        with pytest.raises(ValueError, match="m must"):
            run_iteration(w, 1, 2, cfg, eps0=1.0)
        with pytest.raises(ValueError, match="step count"):
            run_iteration(w, 2, 13, cfg, eps0=1.0)
        with pytest.raises(ValueError, match="eps0"):
            run_iteration(w, 2, 2, cfg, eps0=0.0)

    def test_abort_on_failed_certification(self, cfg):
        # concave-in-t weight smuggled in with a claimed positive eps0:
        # the first potential already fails the psh check
        w = QuadraticWeight(1, 1, np.diag([-0.5, 1.0]), label="concave")
        led = run_iteration(w, 2, 4, cfg, eps0=0.5)
        assert led.aborted
        assert "certification" in led.failure
        assert len(led.steps) == 1
        assert led.steps[0].psh_min < -1e-3
        assert not led.satisfies()

    def test_twisted_slack(self, cfg):
        led = run_twisted_iteration(QuadraticWeight.cross_term(0.5, 1, 1), 0.4, 2, 2, cfg)
        assert led.eps0 == pytest.approx(1.15, abs=1e-9)
        assert [s.delta for s in led.steps] == [
            pytest.approx(0.4 * 0.5**k) for k in (1, 2)
        ]
        assert led.satisfies()

    def test_separable_stays_separable(self, cfg):
        led = run_iteration(
            QuadraticWeight.separable(1.0, 1, 1), 2, 2, cfg, eps0=1.0, keep_fields=True
        )
        fld = led.diagnostics["fields"][-1]
        xi = np.array([0.2 + 0j, 0.4 + 0.1j])
        diff = fld.value((0.2,), xi) - fld.value((0.0,), xi)
        # t-dependence of every iterate is exactly c|t|^2
        assert np.max(np.abs(diff - 0.04)) < 1e-8

    def test_ledger_serializes(self, cfg):
        led = run_iteration(
            QuadraticWeight.separable(1.0, 1, 1), 2, 2, cfg, eps0=1.0, keep_fields=True
        )
        blob = json.dumps(led.as_dict())
        data = json.loads(blob)
        assert data["m"] == 2 and len(data["steps"]) == 2
        assert "fields" not in data["diagnostics"]


class TestIterationCost:
    @pytest.mark.parametrize("n_t", [1, 2])
    def test_one_basis_build_per_step_and_no_stencil(self, quad, monkeypatch, n_t):
        built = []
        real_gram = bergman_module.gram_matrix

        def counted(*args, **kwargs):
            built.append(args)
            return real_gram(*args, **kwargs)

        def no_stencil(*args, **kwargs):
            raise AssertionError("the iteration differences nothing")

        monkeypatch.setattr(bergman_module, "gram_matrix", counted)
        monkeypatch.setattr(weights_module, "wirtinger_hessian", no_stencil)
        monkeypatch.setattr(utils_module, "wirtinger_hessian", no_stencil)
        monkeypatch.setattr(curvature_module, "wirtinger_hessian", no_stencil)
        t_samples = [(0.0,), (0.1 - 0.05j,)][:n_t]
        K = 3
        led = run_iteration(QuadraticWeight.cross_term(0.5, 1, 1), 2, K,
                            CheckConfig(N=16, quad=quad), eps0=0.75, t_samples=t_samples)
        assert led.satisfies() and len(led.steps) == K
        assert len(built) == (K + 1) * n_t

    def test_node_fields_released_each_step(self, quad):
        phi = QuadraticWeight.cross_term(0.5, 1, 1)
        led = run_iteration(phi, 2, 3, CheckConfig(N=16, quad=quad), eps0=0.75, keep_fields=True)
        fields = led.diagnostics["fields"]
        node_sized = lambda owner: [
            k for k, v in quad.memo(owner).items()
            if any(np.size(a) >= quad.size for a in (v if isinstance(v, tuple) else (v,)))
        ]
        for fld in fields[:-1]:
            assert len(quad.memo(fld)) == 0 and len(quad.memo(fld.inner)) == 0
        # the last potential keeps only its inverse-Gram jets
        assert node_sized(fields[-1]) == [] and len(quad.memo(fields[-1])) == 1
        assert node_sized(fields[-1].inner) == []
        # a released link recomputes the numbers of a fresh chain
        fresh = LogKernelField(mix_weights(LogKernelField(phi, 16, quad), phi, 2), 16, quad)
        xi = np.array([0.1 + 0.2j, 0.4])
        for t in ((0.0,), (0.1j,)):
            assert np.array_equal(fields[0].value(t, xi), fresh.value(t, xi))
            assert np.array_equal(fields[0].hessian_field(t, xi)[1], fresh.hessian_field(t, xi)[1])


class TestFieldDump:
    def test_csv_shape(self, quad):
        w = QuadraticWeight.separable(1.0, 1, 1)
        text = sample_field_csv(w, (0.1,), quad, max_rows=100)
        lines = text.strip().splitlines()
        assert lines[0] == "xi1 re,xi1 im,value"
        assert 2 <= len(lines) <= 102
        first = lines[1].split(",")
        assert len(first) == 3
        float(first[2])
