"""Weight mixing, Bergman potentials, and the recursion ledger.

The log-kernel fields and mixed weights (``tests/helpers.py``) evaluate the
iterated potentials at any point; ``run_iteration`` steps the same jets as
arrays at t0, and its ledger is checked against the one built through them.

Separable weights are the transparent oracle: phi = c|t|^2 + |xi|^2 has
kernel e^{c|t|^2} K_0(xi, xi), so the log-kernel field carries base
curvature exactly c at every step, the mixed weights stay separable, and
the certified bounds follow (1 - (1 - 1/m)^k) eps0 in closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bergman_lab.bergman as bergman_module
import bergman_lab.curvature as curvature_module
import bergman_lab.fiber_numerics as fiber_numerics
import bergman_lab.iteration as iteration_module
import helpers
from bergman_lab.bergman import base_gram_jets, bergman_basis
from bergman_lab.cli import run_scenario_checks
from bergman_lab.curvature import CheckConfig, Stencil, UnconvergedBasisError, fd_hessian
from bergman_lab.fiber_numerics import FiberDomain, QuadratureRule, build_quadrature
from bergman_lab.iteration import (
    IterationLedger,
    StepRecord,
    _fiber_samples,
    _measure,
    _sample_frames,
    inverse_gram_jets,
    potential_point_jets,
    run_iteration,
)
from bergman_lab.scenario import parse_scenario
from bergman_lab.weights import BasePatch, CustomWeight, GridSpec, QuadraticWeight, certify, \
    fiber_contraction, joint_hessian, schur_from_contraction, twist_weight
from helpers import GridMismatchError, LogKernelField, log_kernel_grad_base, mix_weights, \
    mixed_bound, node_list, oracle_iteration, oracle_point_jets, sample_field_csv, schur_trace_field


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
        fld = LogKernelField(w, 16, quad)
        tt, tf, ff = (-b for b in fld.hessian_field((0.1 + 0.05j,), np.array([0.0j, 0.3 + 0j])))
        assert np.max(np.abs(tt[:, 0, 0] + 0.7)) < 1e-12
        assert np.max(np.abs(tf)) < 1e-12
        assert np.all(ff[:, 0, 0].real < 0)  # metric side: -log K concave in xi

    def test_positive_sign_field(self, quad):
        w = QuadraticWeight.separable(0.7, 1, 1)
        fld = LogKernelField(w, 16, quad)
        tt, _tf, ff = fld.hessian_field((0.1,), np.array([0.2 + 0j]))
        assert tt[0, 0, 0].real == pytest.approx(0.7, abs=1e-12)
        assert ff[0, 0, 0].real > 0

    def test_t_independent_weight(self, quad):
        w = QuadraticWeight(1, 1, np.diag([0.0, 1.0]), label="gauss")
        fld = LogKernelField(w, 16, quad)
        xi = np.array([0.2 + 0.1j])
        assert abs(fld.value((0.0,), xi) - fld.value((0.3 + 0.2j,), xi))[0] < 1e-12

    def test_two_resolution_consistency(self, quad):
        w = QuadraticWeight.separable(0.7, 1, 1)
        quad_fine = build_quadrature(FiberDomain.disk(1.0), 64, 128)
        pts = np.array([0.0 + 0j, 0.3 + 0.2j, 0.55 + 0j])
        a = LogKernelField(w, 16, quad).value((0.1,), pts)
        b = LogKernelField(w, 16, quad_fine).value((0.1,), pts)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_dimension_mismatch(self):
        quad2 = build_quadrature(FiberDomain.polydisc(1.0, 1.0), 8, 16)
        w = QuadraticWeight.separable(1.0, 1, 1)
        with pytest.raises(GridMismatchError):
            LogKernelField(w, 6, quad2)

    def test_unconverged_truncation(self, quad):
        w = QuadraticWeight(1, 1, np.zeros((2, 2)), label="flat")
        fld = LogKernelField(w, 6, quad)
        with pytest.raises(UnconvergedBasisError, match="truncation"):
            fld.value((0.0,), np.array([0.1 + 0j]))

    def test_basis_cache_reuse(self, quad, monkeypatch):
        built = []
        real_gram = bergman_module.gram_matrix
        monkeypatch.setattr(bergman_module, "gram_matrix",
                            lambda *args: built.append(args) or real_gram(*args))
        w = QuadraticWeight.separable(1.0, 1, 1)
        fld = LogKernelField(w, 16, quad)
        xi = np.array([0.1 + 0j])
        fld.value((0.0,), xi)
        fld.value((0.0,), xi)
        assert len(built) == 1  # one Gram build per distinct base point
        fld.value((0.1,), xi)
        assert len(built) == 2

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
        # the node jets come from one ring synthesis; an equal copy of the
        # nodes takes the orthonormal frame, as any other point set does
        q = build_quadrature(dom, nr, na)
        w = QuadraticWeight.cross_term(0.5, 1, dom.dim)
        monkeypatch.setattr(curvature_module, "CONVERGENCE_TOL", 1e-2)
        fld = LogKernelField(w, N, q)
        t = (0.2 - 0.1j,)
        built = []
        original = fiber_numerics.vandermonde
        monkeypatch.setattr(fiber_numerics, "vandermonde",
                            lambda b, x: built.append(x.shape[0]) or original(b, x))
        on_nodes, grad_nodes, tt_nodes = fld.node_jets(t, q)
        assert q.size not in built  # no node Vandermonde for the value nor its derivatives
        copy = node_list(q)
        on_copy = fld.value(t, copy)
        assert on_nodes.shape == on_copy.shape == (q.size,)
        assert np.abs(on_nodes - on_copy).max() <= 1e-13 * np.abs(on_copy).max()
        # the node jets (ring synthesis of P and its base derivatives) agree
        # with the point jets (monomial values against the same matrices)
        assert grad_nodes.shape == (1, q.size) and tt_nodes.shape == (q.size, 1, 1)
        grad_nodes, tt_nodes = grad_nodes[:, ::7], tt_nodes[::7]
        grad_copy = log_kernel_grad_base(fld, t, copy[::7])
        tt_copy = fld.hessian_field(t, copy[::7])[0]
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
    def test_exact_jets_match_finite_differences(self, w, dom, nr, na, N, t, monkeypatch):
        # psi_1 of the m = 2 iteration: exact blocks against the Wirtinger
        # stencil of its values over the joint point (t, 0), O(h^2) apart
        # (h and h/2 bracket the error)
        q = build_quadrature(dom, nr, na)
        if dom.dim == 2:  # degree 10 on the polydisc settles to 1.3e-3
            monkeypatch.setattr(curvature_module, "CONVERGENCE_TOL", 1e-2)
        psi = LogKernelField(mix_weights(LogKernelField(w, N, q), w, 2), N, q)
        xi = np.array([[0.0] * w.d, [0.3] + [0.1j] * (w.d - 1)], dtype=complex)
        exact = psi.hessian_field(t, xi)
        n = w.n

        def field(p):
            return psi.value(p[:n], xi + np.asarray(p[n:]))

        rows = (slice(0, n), slice(0, n), slice(n, None))  # blocks tt, tf, ff
        cols = (slice(0, n), slice(n, None), slice(n, None))
        gaps = []
        for h in (1e-2, 5e-3):
            H = fd_hessian(field, Stencil(t + (0j,) * w.d, h))
            gaps.append([np.abs(e - H[:, r, c]).max() for e, r, c in zip(exact, rows, cols)])
        for coarse, fine in zip(*gaps):
            assert fine <= 1e-4
            assert fine <= max(0.3 * coarse, 1e-9)  # shrinks like h^2 until round-off
        assert np.abs(exact[1]).max() > 0.1  # the coupling reaches the mixed block


class TestMixing:
    def test_fixed_point(self, quad):
        w = QuadraticWeight.separable(1.0, 1, 1)
        mixed = mix_weights(w, w, 2)
        for got, part in zip(mixed.node_jets((0.2,), quad), w.node_jets((0.2,), quad)):
            assert np.max(np.abs(got - part)) == 0.0

    def test_affine_combination(self, quad):
        a = QuadraticWeight.separable(1.0, 1, 1)
        b = QuadraticWeight.separable(3.0, 1, 1)
        mixed = mix_weights(a, b, 4)  # 3/4 a + 1/4 b
        t = (0.2 + 0.1j,)
        ref = 0.75 * a.node_phi(t, quad) + 0.25 * b.node_phi(t, quad)
        assert np.max(np.abs(mixed.node_phi(t, quad) - ref)) < 1e-14
        for got, ja, jb in zip(mixed.node_jets(t, quad), a.node_jets(t, quad), b.node_jets(t, quad)):
            assert np.max(np.abs(got - (0.75 * ja + 0.25 * jb))) < 1e-14

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
        led = run_iteration(QuadraticWeight.separable(1.0, 1, 1), 2, 4, cfg, eps0=1.0, t0=(0j,))
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
        led = run_iteration(QuadraticWeight.separable(0.6, 1, 1), 3, 2, cfg, eps0=0.6, t0=(0j,))
        assert led.steps[-1].certified_bound == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_cross_term_certifies_and_clears(self, cfg, quad):
        w = QuadraticWeight.cross_term(0.5, 1, 1)
        eps0 = certify(w, GridSpec(BasePatch((0j,), 0.4), quad.domain)).eps0
        led = run_iteration(w, 2, 3, cfg, eps0=eps0, t0=(0j,))
        assert led.eps0 == pytest.approx(0.75, abs=1e-9)
        assert led.satisfies()
        for s in led.steps:
            assert s.measured_trace >= s.certified_bound - 1e-3
            assert s.measured_trace < 1.1

    def test_zero_steps(self, cfg):
        led = run_iteration(QuadraticWeight.cross_term(0.5, 1, 1), 2, 0, cfg, eps0=0.75, t0=(0j,))
        assert led.steps == ()
        assert led.limit_gap == pytest.approx(0.75)
        assert led.worst_step == 0.0 and led.satisfies()

    def test_validation(self, cfg):
        w = QuadraticWeight.separable(1.0, 1, 1)
        with pytest.raises(ValueError, match="m must"):
            run_iteration(w, 1, 2, cfg, eps0=1.0, t0=(0j,))
        with pytest.raises(ValueError, match="step count"):
            run_iteration(w, 2, 13, cfg, eps0=1.0, t0=(0j,))
        with pytest.raises(ArithmeticError, match="strictly positive eps0, got 0.0"):
            run_iteration(w, 2, 2, cfg, eps0=0.0, t0=(0j,))

    @pytest.mark.parametrize("twist", [-0.3, math.nan, math.inf])
    def test_negative_or_non_finite_twist_is_refused_before_any_step(self, cfg, monkeypatch, twist):
        # a negative twist would be credited as slack delta_k = twist (1-1/m)^k
        # while the weight stays untwisted
        def no_step(*args):
            raise AssertionError("no basis is built for a refused twist")

        monkeypatch.setattr(iteration_module, "bergman_basis", no_step)
        with pytest.raises(ValueError, match=f"twist constant must be nonnegative and finite, got {twist}"):
            run_iteration(QuadraticWeight.cross_term(0.5, 1, 1), 2, 2, cfg, eps0=0.75, t0=(0j,),
                          twist=twist)

    def test_abort_on_failed_certification(self, cfg):
        # concave-in-t weight smuggled in with a claimed positive eps0:
        # the first potential already fails the psh check
        w = QuadraticWeight(1, 1, np.diag([-0.5, 1.0]), label="concave")
        led = run_iteration(w, 2, 4, cfg, eps0=0.5, t0=(0j,))
        assert led.aborted
        assert "certification" in led.failure
        assert len(led.steps) == 1
        assert led.steps[0].psh_min < -1e-3
        assert not led.satisfies()

    def test_twisted_slack(self, cfg, quad):
        w = QuadraticWeight.cross_term(0.5, 1, 1)
        eps0 = certify(twist_weight(w, 0.4), GridSpec(BasePatch((0j,), 0.4), quad.domain)).eps0
        led = run_iteration(w, 2, 2, cfg, eps0=eps0, t0=(0j,), twist=0.4)
        assert led.eps0 == pytest.approx(1.15, abs=1e-9)
        assert [s.delta for s in led.steps] == [
            pytest.approx(0.4 * 0.5**k) for k in (1, 2)
        ]
        assert led.worst_step == min(
            s.measured_trace - s.certified_bound - s.delta for s in led.steps
        )
        assert led.satisfies()

    def test_verdict_subtracts_the_twist_slack(self):
        # clears n * b_k by 0.01 but not n * b_k + delta_k
        step = StepRecord(1, "logK(step 1, m=2)", certified_bound=0.5,
                          measured_trace=0.51, delta=0.05)
        led = IterationLedger(m=2, eps0=1.0, steps=(step,))
        assert led.worst_step == pytest.approx(-0.04, abs=1e-15)
        assert not led.satisfies(tolerance=1e-3)
        assert led.satisfies(tolerance=0.05)

    def test_separable_stays_separable(self, quad):
        # the second iterate, built as run_iteration builds it
        w = QuadraticWeight.separable(1.0, 1, 1)
        fld = LogKernelField(w, 16, quad)
        for _k in (1, 2):
            fld = LogKernelField(mix_weights(fld, w, 2), 16, quad)
        xi = np.array([0.2 + 0j, 0.4 + 0.1j])
        diff = fld.value((0.2,), xi) - fld.value((0.0,), xi)
        # t-dependence of every iterate is exactly c|t|^2
        assert np.max(np.abs(diff - 0.04)) < 1e-8

    def test_ledger_serializes(self, cfg):
        led = run_iteration(QuadraticWeight.separable(1.0, 1, 1), 2, 2, cfg, eps0=1.0, t0=(0j,))
        assert led.m == 2 and len(led.steps) == 2
        assert set(led.diagnostics) == {"convergence_gap"}


ANNULUS_ITERATE = """
id = annulus_iterate
fiber = annulus 0.3 1.0
weight = cross 0.5
section = 0.6 ; 1.0
eps0 = 0.75
iteration = m 2 steps 2
checks = iterate
"""


class TestFiberSamples:
    @pytest.mark.parametrize("dom", [FiberDomain.disk(1.0), FiberDomain.disk(2.0),
                                     FiberDomain.polydisc(1.0, 0.6), FiberDomain.annulus(0.3, 1.0),
                                     FiberDomain.annulus(0.5, 1.0)])
    def test_samples_lie_in_the_fiber(self, dom):
        xi = _fiber_samples(build_quadrature(dom, 8, 16))
        assert xi.shape == (2, dom.dim)
        assert dom.contains(xi, margin_frac=0.1).all()

    @pytest.mark.parametrize("dom", [FiberDomain.disk(2.0), FiberDomain.polydisc(1.0, 0.6)])
    def test_disk_and_polydisc_samples_are_the_center_and_0_35_r(self, dom):
        xi = _fiber_samples(build_quadrature(dom, 8, 16))
        expected = np.zeros((2, dom.dim), dtype=complex)
        expected[1, 0] = 0.35 * dom.radii[0]
        assert np.array_equal(xi, expected)

    def test_annulus_iterate_measures_inside_the_fiber(self):
        # the center xi = 0 is not in the annulus; step 1 is measured at its
        # middle ring 0.65 and at 0.3 + 0.35 * 0.7 = 0.545
        sc = parse_scenario(ANNULUS_ITERATE)
        (rec,) = run_scenario_checks(sc, sc.checks)
        quad = sc.build_quad()
        psi = LogKernelField(mix_weights(LogKernelField(sc.weight, sc.N, quad), sc.weight, 2), sc.N, quad)
        blocks = psi.hessian_field(sc.t0, np.array([[0.65 + 0j], [0.545 + 0j]]))
        assert rec.outputs["measured"][0] == float(schur_trace_field(*blocks).min())

    @pytest.mark.parametrize("n, d, twist", [(1, 1, 0.0), (2, 1, 0.0), (1, 1, 0.3), (1, 2, 0.0)],
                             ids=["n1", "n2", "n1-twist", "n1-polydisc"])
    def test_measure_from_the_kept_frames_equals_the_hessian_field_route(self, quad, monkeypatch,
                                                                         n, d, twist):
        # the frames kept once per basis and rule give every bit that fresh
        # frames at the fiber samples give, through the public Hessian route
        q, N = (quad, 16) if d == 1 else (build_quadrature(FiberDomain.polydisc(1.0, 1.0), 12, 24), 10)
        if d == 2:  # the bidisc's middle ring needs a degree near 20 to pass the gate, not tested here
            monkeypatch.setattr(helpers, "truncation_gate_at", lambda *a: 0.0)
        phi = QuadraticWeight.cross_term(0.5, n, d)
        phi = twist_weight(phi, twist) if twist else phi
        psi = LogKernelField(mix_weights(LogKernelField(phi, N, q), phi, 2), N, q)
        t0 = (0.1 - 0.05j,) * n
        tt, tf, ff = blocks = psi.hessian_field(t0, _fiber_samples(q))
        _points, M, dM = psi._frames
        assert all(np.array_equal(a, b) for a, b in zip(psi._point_jets(t0, M[:2], dM), blocks))
        contraction, ff_min = fiber_contraction(tf, ff, "at the samples")
        expected = (float(schur_from_contraction(tt, contraction).min()),
                    float(np.linalg.eigvalsh(joint_hessian(tt, tf, ff))[:, 0].min()), ff_min)
        assert _measure(psi.gram_jets(t0), M[:2], dM, t0) == expected

    def test_frames_are_kept_once_per_basis_and_rule(self, quad):
        basis = fiber_numerics.monomial_basis(16)
        points, M, dM = frames = _sample_frames(basis, quad)
        assert _sample_frames(basis, quad) is frames
        assert np.array_equal(points[:2], _fiber_samples(quad))
        assert np.array_equal(points[2], [0.5])  # the middle ring of the unit disk
        assert np.array_equal(M, fiber_numerics.vandermonde(basis, points))
        assert np.array_equal(dM, fiber_numerics.monomial_gradient(basis, points[:2]))
        assert not any(a.flags.writeable for a in frames)


# the rule and degree of each fiber dimension: the 48 x 96 disk at degree 16
# and the 12 x 24 bidisc at degree 10
POINT_JET_RULES = {1: (FiberDomain.disk(1.0), 48, 96, 16), 2: (FiberDomain.polydisc(1.0, 1.0), 12, 24, 10)}


@st.composite
def point_jet_cases(draw):
    """A cross weight (lam in [0.1, 0.7], twisted or not) over n, d in {1, 2},
    a base point in the patch of radius 0.45 and a fiber point at most 0.6
    out, next to the iteration's two fiber samples."""
    n, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    unit = st.floats(0.0, 1.0)
    phi = QuadraticWeight.cross_term(draw(st.floats(0.1, 0.7)), n, d)
    twist = draw(st.one_of(st.just(0.0), st.floats(0.1, 0.5)))
    phi = twist_weight(phi, twist) if twist else phi
    t0 = tuple(0.45 * math.sqrt(draw(unit)) * np.exp(2j * math.pi * draw(unit)) for _ in range(n))
    xi = [0.6 * math.sqrt(draw(unit)) * np.exp(2j * math.pi * draw(unit)) for _ in range(d)]
    return phi, t0, xi


class TestFramePointJets:
    """``potential_point_jets`` reads every derivative of K at the points
    from one frame product; the oracle takes each block through its own
    products (``helpers.oracle_point_jets``)."""

    @given(point_jet_cases())
    def test_frame_product_matches_the_per_block_oracle(self, case):
        phi, t0, xi = case
        dom, nr, na, N = POINT_JET_RULES[phi.d]
        q = build_quadrature(dom, nr, na)
        b = bergman_basis(phi, t0, N, q)
        jets = inverse_gram_jets(b.transform, *base_gram_jets(phi, t0, N, q))
        pts = np.vstack([_fiber_samples(q), [xi]])
        M, dM = fiber_numerics.vandermonde(b.basis, pts), fiber_numerics.monomial_gradient(b.basis, pts)
        H, n = potential_point_jets(jets, M, dM), phi.n
        assert H.shape == (3, n + phi.d, n + phi.d)
        assert np.array_equal(H[:, n:, :n], np.conj(H[:, :n, n:]).transpose(0, 2, 1))
        for new, old in zip((H[:, :n, :n], H[:, :n, n:], H[:, n:, n:]), oracle_point_jets(jets, M, dM)):
            assert np.abs(new - old).max() <= 300 * np.finfo(float).eps * np.abs(old).max()


class TestLoopMatchesOracle:
    """``run_iteration`` steps arrays; its ledger equals, with ``==``, the
    ledger built through the chain of weight objects (``helpers.oracle_iteration``)."""

    @pytest.mark.parametrize("n, m, K, twist", [(1, 2, 3, 0.0), (2, 3, 2, 0.0), (1, 2, 3, 0.4)],
                             ids=["n1", "n2", "twist"])
    def test_cross_term_on_the_disk(self, cfg, n, m, K, twist):
        args = (QuadraticWeight.cross_term(0.5, n, 1), m, K, cfg, 0.75, (0.05 - 0.02j,) * n)
        led = run_iteration(*args, twist=twist)
        assert led == oracle_iteration(*args, twist=twist)
        assert len(led.steps) == K and led.satisfies() and led.diagnostics["convergence_gap"] > 0

    def test_custom_weight_off_centre(self, cfg):
        phi = CustomWeight.from_text(1, 1, "(+ (* (abs2 t1) (abs2 t1)) (abs2 z1))")
        args = (phi, 2, 3, cfg, 0.16, (0.3,))
        led = run_iteration(*args)
        assert led == oracle_iteration(*args) and len(led.steps) == 3

    def test_annulus_fiber(self):
        sc = parse_scenario(ANNULUS_ITERATE)
        args = (sc.weight, 2, 2, CheckConfig(sc.N, sc.build_quad()), 0.75, sc.t0)
        led = run_iteration(*args)
        assert led == oracle_iteration(*args) and len(led.steps) == 2

    def test_aborted_on_failed_certification(self, cfg):
        args = (QuadraticWeight(1, 1, np.diag([-0.5, 1.0]), label="concave"), 2, 4, cfg, 0.5, (0j,))
        led = run_iteration(*args)
        assert led == oracle_iteration(*args)
        assert led.aborted and "certification" in led.failure and len(led.steps) == 1

    def test_aborted_on_a_degenerate_fiber_block(self, quad):
        # at degree 0 the kernel is constant in xi, so the fiber block vanishes
        args = (QuadraticWeight.separable(1.0), 2, 3, CheckConfig(N=0, quad=quad), 1.0, (0j,))
        led = run_iteration(*args)
        assert led == oracle_iteration(*args)
        assert led.aborted and "fiber block not positive definite" in led.failure
        assert len(led.steps) == 1 and math.isnan(led.steps[0].measured_trace)

    def test_both_refuse_an_unconverged_bidisc_basis_alike(self):
        # degree 10 does not settle the kernel at the bidisc's middle ring
        q = build_quadrature(FiberDomain.polydisc(1.0, 1.0), 12, 24)
        args = (QuadraticWeight.cross_term(0.5, 1, 2), 2, 2, CheckConfig(N=10, quad=q), 0.75, (0j,))
        with pytest.raises(UnconvergedBasisError) as loop:
            run_iteration(*args)
        with pytest.raises(UnconvergedBasisError) as oracle:
            oracle_iteration(*args)
        assert str(loop.value) == str(oracle.value)
        assert "at fiber point [(0.5+0j), (0.5+0j)] over t=(0j,)" in str(loop.value)

    def test_a_weight_on_another_fiber_is_refused(self, cfg):
        with pytest.raises(ValueError, match="fiber_dim 2 but quadrature is 1-dimensional"):
            run_iteration(QuadraticWeight.cross_term(0.5, 1, 2), 2, 0, cfg, 0.75, (0j,))


class TestIterationCost:
    @staticmethod
    def _spy(monkeypatch, module, name, log):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: log.append(a) or real(*a, **k))

    @pytest.mark.parametrize("n_t", [1, 2])
    def test_one_basis_build_per_step_and_no_stencil(self, quad, monkeypatch, n_t):
        # psi_0 is phi_L's memoized basis (one gram_matrix); each step forms
        # its measure from one exp_weight, in place, and factors its basis
        # Gram with no gram_matrix re-scan of the weight values
        calls = {"gram_matrix": [], "exp_weight": [], "Cholesky": []}

        def no_stencil(*args, **kwargs):
            raise AssertionError("the iteration differences nothing")

        self._spy(monkeypatch, bergman_module, "gram_matrix", calls["gram_matrix"])  # psi_0's
        self._spy(monkeypatch, iteration_module, "exp_weight", calls["exp_weight"])  # the steps'
        self._spy(monkeypatch, bergman_module, "orthonormalize", calls["Cholesky"])
        self._spy(monkeypatch, iteration_module, "orthonormalize", calls["Cholesky"])
        monkeypatch.setattr(curvature_module, "fd_hessian", no_stencil)
        K = 3
        for t0 in [(0.0,), (0.1 - 0.05j,)][:n_t]:  # one run per base point
            led = run_iteration(QuadraticWeight.cross_term(0.5, 1, 1), 2, K,
                                CheckConfig(N=16, quad=quad), eps0=0.75, t0=t0)
            assert led.satisfies() and len(led.steps) == K
        assert len(calls["Cholesky"]) == (K + 1) * n_t  # one basis build per potential
        assert len(calls["gram_matrix"]) == n_t and len(calls["exp_weight"]) == K * n_t
        assert not hasattr(iteration_module, "gram_matrix")

    @pytest.mark.parametrize("n", [1, 2])
    def test_per_step_budget(self, monkeypatch, n):
        # each step costs one ring synthesis (the previous potential's node
        # jets), one exp_weight, one basis Gram of the measure it forms and
        # its Cholesky factorization, n Grams d_aG and n(n+1)/2 Grams
        # d_a dbar_bG, and psi_0 phi_L's basis (one gram_matrix) and Gram
        # jets; the monomial frames at the two fiber samples and the gate's
        # middle ring are evaluated once per basis and rule, and the steps
        # store nothing on the rule
        def counts(K):
            calls = {"basis Gram": [], "derivative Gram": [], "synthesis": [], "Cholesky": [],
                     "exp_weight": [], "gram_matrix": [], "frame rows": [], "frame gradients": [],
                     "monomials_at": []}
            spies = [
                (fiber_numerics, "ring_gram", "basis Gram"),  # psi_0's, through gram_matrix
                (iteration_module, "ring_gram", "basis Gram"),  # the steps'
                (bergman_module, "orthonormalize", "Cholesky"),  # psi_0's
                (iteration_module, "orthonormalize", "Cholesky"),  # the steps'
                (bergman_module, "ring_gram", "derivative Gram"),  # gram_jet_arrays'
                (iteration_module, "ring_synthesis", "synthesis"),
                (iteration_module, "exp_weight", "exp_weight"),
                (bergman_module, "gram_matrix", "gram_matrix"),
                (iteration_module, "vandermonde", "frame rows"),
                (iteration_module, "monomial_gradient", "frame gradients"),
                (bergman_module, "vandermonde", "monomials_at"),
            ]
            for module, name, key in spies:
                self._spy(monkeypatch, module, name, calls[key])
            # a rule of its own, so no earlier run has kept anything on it
            quad = fiber_numerics._quadrature.__wrapped__(FiberDomain.disk(1.0), 48, 96)
            phi = QuadraticWeight.cross_term(0.5, n, 1)
            led = run_iteration(phi, 2, K, CheckConfig(N=16, quad=quad), eps0=0.75, t0=(0j,) * n)
            assert len(led.steps) == K
            monkeypatch.undo()
            assert [len(pts) for _basis, pts in calls["frame rows"]] == [3]
            assert [len(pts) for _basis, pts in calls["frame gradients"]] == [2]
            stores = {type(owner).__name__: sorted(map(str, quad.memo(owner)))
                      for owner in list(quad._memo.keys())}
            assert set(stores) == {"QuadraticWeight", "MonomialBasis"}  # phi_L and the basis
            return {k: len(v) for k, v in calls.items()}, stores

        for K in (3, 6):
            steps = K + 1  # phi_L's potential, then one potential per step
            budget, stores = counts(K)
            assert budget == {"basis Gram": steps, "synthesis": K, "Cholesky": steps,
                              "derivative Gram": steps * (n + n * (n + 1) // 2),
                              "exp_weight": K, "gram_matrix": 1,
                              "frame rows": 1, "frame gradients": 1, "monomials_at": 0}
            if K == 3:
                first = stores
        assert stores == first  # the rule's memo does not grow with K

    def test_no_release_is_left(self):
        # the steps write no memo entry, so nothing is dropped from the rule
        assert not hasattr(QuadratureRule, "release")

    @staticmethod
    def _node_calls(phi, quad, monkeypatch, methods) -> list:
        """Names of phi's methods called on the rule's nodes (given the rule)."""
        calls = []
        for method in methods:
            real = getattr(phi, method)
            monkeypatch.setattr(phi, method, lambda t, xi, real=real, method=method: (
                calls.append(method) if xi is quad else None) or real(t, xi))
        return calls

    def test_base_weight_node_fields_once_per_run(self, quad, monkeypatch):
        phi = QuadraticWeight.cross_term(0.5, 1, 1)
        calls = self._node_calls(phi, quad, monkeypatch, ("_node_jets", "grad_base", "hessian_field"))
        K = 4
        led = run_iteration(phi, 2, K, CheckConfig(N=16, quad=quad), eps0=0.75, t0=(0j,))
        assert len(led.steps) == K
        # on the nodes: one set of jets, for the first basis, which every mix
        # reads -- one gradient and one set of Hessian blocks, not one per step
        assert sorted(calls) == ["_node_jets", "grad_base", "hessian_field"]

    def test_base_weight_node_value_once_per_run(self, quad, monkeypatch):
        # exp(-phi) of the first basis and phi in every mix read one evaluation
        phi = QuadraticWeight.cross_term(0.5, 1, 1)
        calls = self._node_calls(phi, quad, monkeypatch, ("value",))
        led = run_iteration(phi, 2, 4, CheckConfig(N=16, quad=quad), eps0=0.75, t0=(0j,))
        assert len(led.steps) == 4
        assert calls == ["value"]

    def test_oracle_chain_recomputes_a_fresh_chain(self, quad):
        # the oracle's links are memoized per base point on the rule: a link
        # read at a second base point gives the numbers of a fresh chain
        phi = QuadraticWeight.cross_term(0.5, 1, 1)
        chain = LogKernelField(mix_weights(LogKernelField(phi, 16, quad), phi, 2), 16, quad)
        chain.node_jets((0j,), quad)
        fresh = LogKernelField(mix_weights(LogKernelField(phi, 16, quad), phi, 2), 16, quad)
        xi = np.array([0.1 + 0.2j, 0.4])
        for t in ((0.0,), (0.1j,)):
            assert np.array_equal(chain.value(t, xi), fresh.value(t, xi))
            assert np.array_equal(chain.hessian_field(t, xi)[1], fresh.hessian_field(t, xi)[1])


class TestOneBasePointAtATime:
    """The iterated weights memoize per base point, so they refuse one base
    point per fiber point."""

    def test_log_kernel_and_mixed_weights_refuse_per_point_base(self, quad):
        phi = QuadraticWeight.cross_term(0.5, 1, 1)
        psi = LogKernelField(phi, 12, quad)
        T, X = np.array([[0.0], [0.1j]]), np.array([[0.2], [0.3j]])
        refused = "iterated weights take one base point at a time; got base input of shape"
        for evaluate in (psi.value, psi.hessian_field):
            with pytest.raises(ValueError, match=rf"{refused} \(2, 1\)"):
                evaluate(T, X)
        with pytest.raises(ValueError, match=rf"{refused} \({quad.size}, 1\)"):
            psi.value(np.zeros((quad.size, 1)), node_list(quad))
        for w in (psi, mix_weights(psi, phi, 2)):  # a mixed weight is read only through its jets
            with pytest.raises(ValueError, match="expected a point"):
                w.node_jets(T, quad)


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
