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

import bergman_lab.fiber_numerics as fiber_numerics
from bergman_lab.curvature import CheckConfig, UnconvergedBasisError
from bergman_lab.fiber_numerics import FiberDomain, build_quadrature
from bergman_lab.iteration import (
    GridMismatchError,
    LogKernelField,
    mix_weights,
    run_iteration,
    run_twisted_iteration,
)
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
        assert np.max(np.abs(tt[:, 0, 0] + 0.7)) < 1e-8
        assert np.max(np.abs(tf)) < 1e-9
        assert np.all(ff[:, 0, 0].real < 0)  # metric side: -log K concave in xi

    def test_positive_sign_field(self, quad):
        w = QuadraticWeight.separable(0.7, 1, 1)
        fld = LogKernelField(w, 16, quad, sign=1)
        tt, _tf, ff = fld.hessian_field((0.1,), np.array([0.2 + 0j]))
        assert tt[0, 0, 0].real == pytest.approx(0.7, abs=1e-8)
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
        on_copy = fld.value(t, q.nodes.copy())
        assert on_nodes.shape == on_copy.shape == (q.size,)
        assert np.abs(on_nodes - on_copy).max() <= 1e-13 * np.abs(on_copy).max()

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
