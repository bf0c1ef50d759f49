"""Derivative fields, orthogonality, the dbar identity, and the L2 bound.

Closed forms used as oracles (weight e^{-|xi|^2} on the unit disk,
g_k = pi * int_0^1 r^{2k} e^{-r^2} 2r dr):

* flat weight, unit amplitude at the origin: Gamma = 1/pi everywhere,
* cross-term weight lam*(t conj(xi) + conj(t) xi) at t0 = 0:
  Gamma = 1/g0 and Lambda = -lam conj(xi) / g0,
* hence ||Lambda||^2 = lam^2 g1/g0^2, the bound integral = lam^2/g0,
  and their ratio g1/g0 ~ 0.41802 independent of lam.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammainc

from bergman_lab import bergman, weights
from bergman_lab.acceptance import fd_lambda_field
from bergman_lab.bergman import HoloPoly, SectionFamily, base_gram_jets, section_hessian, \
    section_value
from bergman_lab.cli import DBAR_TOL, run_scenario_checks
from bergman_lab.curvature import UnconvergedBasisError
from bergman_lab.fiber_numerics import FiberDomain, QuadratureRule, build_quadrature, vandermonde
from bergman_lab.hormander import (
    AssembledReport,
    HormanderBoundReport,
    _radial_derivative_matrix,
    _weighted_norm,
    assembled_lower_bound,
    build_hormander_data,
    dbar_coordinate,
    dbar_identity_residual,
    hormander_bound_check,
    orthogonality_residual,
)
from helpers import as_materialized, gamma_field, lambda_field, node_list
from bergman_lab.scenario import parse_scenario
from bergman_lab.weights import FiberDegenerateError, PolynomialWeight, QuadraticWeight

N = 16
ORIGIN_FAM = SectionFamily.constant([[0.0]])


def gauss_moment(k: int) -> float:
    return math.pi * gammainc(k + 1, 1.0) * math.factorial(k)


def cross_weight(lam: float, n: int = 1) -> QuadraticWeight:
    return QuadraticWeight.cross_term(lam, n, 1)


def moving_family() -> SectionFamily:
    return SectionFamily(
        base_dim=1,
        fiber_dim=1,
        sections=((HoloPoly.from_text("(* 0.4 t1)", ("t1",)),),),
        amplitudes=(HoloPoly.constant(1.0, 1),),
    )


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(FiberDomain.disk(1.0), 48, 96)


@pytest.fixture(scope="module")
def cross_data(quad):
    w = cross_weight(0.5)
    return w, build_hormander_data(w, ORIGIN_FAM, (0.0,), N, quad)


@functools.lru_cache(maxsize=None)
def oracle_rule(d: int) -> QuadratureRule:
    if d == 1:
        return build_quadrature(FiberDomain.disk(1.0), 24, 48)
    return build_quadrature(FiberDomain.polydisc(1.0, 0.8), 10, 20)


@st.composite
def complex_families(draw):
    """A cross weight on a disk (degree 16) or a bidisc (degree 8), a base
    point and 1-3 constant sections within 0.25 of each radius, whose
    amplitudes have modulus 0.2-1 and any phase."""
    d = draw(st.sampled_from([1, 2]))
    quad, unit = oracle_rule(d), st.floats(0.0, 1.0)
    rank = draw(st.integers(1, 3))
    pts = [[0.25 * ro * draw(unit) * np.exp(2j * math.pi * draw(unit)) for ro in quad.domain.radii]
           for _ in range(rank)]
    amps = [draw(st.floats(0.2, 1.0)) * np.exp(2j * math.pi * draw(unit)) for _ in range(rank)]
    t0 = (0.3 * draw(unit) * np.exp(2j * math.pi * draw(unit)),)
    lam = draw(st.floats(0.0, 0.8))
    return QuadraticWeight.cross_term(lam, 1, d), SectionFamily.constant(pts, amps), t0, 16 // d, quad


class TestGammaField:
    @given(complex_families())
    def test_norm_is_the_section_functional_for_complex_amplitudes(self, case):
        # Gamma = sum conj(a_i) K(., s_i) represents f -> sum a_i f(s_i), so
        # ||Gamma||^2 = B on the nodes; and the cross weight's Schur trace is
        # the constant 1 - lam^2, so chain 2 of the assembled bound is 0.
        # Round-off is measured against (sum |a_i| K(s_i, s_i)^(1/2))^2 >= B,
        # since sections may nearly cancel.
        w, fam, t0, degree, quad = case
        data = build_hormander_data(w, fam, t0, degree, quad)
        B = section_value(w, fam, t0, degree, quad)
        norm2 = float(np.sum(np.abs(data.gamma) ** 2 * data.node_measure).real)
        K = np.sum(np.abs(data.basis.orthonormal_at(fam.sections_at(t0))) ** 2, axis=-1)
        scale = float(np.abs(fam.amplitudes_at(t0)) @ np.sqrt(K)) ** 2
        assert abs(norm2 - B) <= 1e-12 * scale
        lam = w.H[0, 1].real
        rep = assembled_lower_bound(data, 1e-3, 1.0 - lam**2)
        assert abs(rep.chain2_margin) <= 1e-12 * scale

    def test_flat_disk_constant(self, quad):
        w = QuadraticWeight(1, 1, np.zeros((2, 2)), label="flat")
        gam = gamma_field(w, ORIGIN_FAM, (0.0,), 12, quad)
        assert np.max(np.abs(gam - 1 / math.pi)) < 1e-12

    def test_zero_amplitude(self, quad):
        fam = SectionFamily.constant([[0.2]], amps=[0.0])
        gam = gamma_field(cross_weight(0.5), fam, (0.0,), N, quad)
        assert np.max(np.abs(gam)) == 0.0

    def test_norm_reproduces_section_value(self, quad, cross_data):
        w, data = cross_data
        b0 = float(np.sum(np.abs(data.gamma) ** 2 * data.node_measure).real)
        ref = section_value(w, ORIGIN_FAM, (0.0,), N, quad)
        assert abs(b0 - ref) < 1e-12 * ref


class TestLambdaField:
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_matches_closed_form(self, quad, lam):
        w = cross_weight(lam)
        vals = lambda_field(w, ORIGIN_FAM, (0.0,), 0, N, quad)
        ref = -lam * np.conj(node_list(quad)[:, 0]) / gauss_moment(0)
        assert np.max(np.abs(vals - ref)) < 1e-8

    def test_separable_vanishes_at_origin(self, quad):
        w = QuadraticWeight.separable(1.0, 1, 1)
        vals = lambda_field(w, ORIGIN_FAM, (0.0,), 0, N, quad)
        assert np.max(np.abs(vals)) < 1e-15

    def test_separable_vanishes_off_center(self, quad):
        # d/dt K = c conj(t) K cancels the weight term; only round-off is left
        w = QuadraticWeight.separable(1.0, 1, 1)
        data = build_hormander_data(w, ORIGIN_FAM, (0.35,), N, quad)
        lam_norm = _weighted_norm(data.lambdas[0], data.node_measure)
        gam_norm = _weighted_norm(data.gamma, data.node_measure)
        assert lam_norm < 1e-12 * gam_norm

    def test_unconverged_truncation_raises(self, quad):
        w = QuadraticWeight(1, 1, np.zeros((2, 2)), label="flat")
        fam = SectionFamily.constant([[0.9]])
        with pytest.raises(UnconvergedBasisError, match="truncation"):
            lambda_field(w, fam, (0.0,), 0, 6, quad)

    def test_truncation_gate_names_the_worst_section_point(self, quad):
        # one frame evaluation over every section point gives each point's gap
        w = QuadraticWeight(1, 1, np.zeros((2, 2)), label="flat")
        fam = SectionFamily.constant([[0.1], [0.9], [0.5]])
        pts = fam.sections_at((0.0,))
        b = bergman.bergman_basis(w, (0j,), 6, quad)
        one_by_one = [b.diag_convergence_gap(p[0]) for p in pts]
        assert np.allclose(b.diag_convergence_gap(pts), one_by_one, rtol=1e-12, atol=0)
        assert int(np.argmax(one_by_one)) == 1
        with pytest.raises(UnconvergedBasisError, match=r"at fiber point \[\(0\.9\+0j\)\] over t=\(0j,\)"):
            build_hormander_data(w, fam, (0.0,), 6, quad)

    @pytest.mark.parametrize("case", ["cross", "polynomial"])
    def test_matches_finite_differences(self, quad, case):
        # second derivation: central complex differences of the kernel
        # combination in t, one basis build per stencil point
        if case == "cross":
            w, fam, t0 = cross_weight(0.5), SectionFamily.constant([[0.2 + 0.1j]]), (0.05 - 0.02j,)
        else:
            w = PolynomialWeight.from_text(
                1, 1, "(+ (* 0.8 (abs2 t1)) (abs2 z1) (* 0.3 (abs2 t1) (abs2 z1)))"
            )
            fam, t0 = moving_family(), (0.1 + 0.05j,)
        data = build_hormander_data(w, fam, t0, N, quad)
        fd = fd_lambda_field(w, fam, t0, 0, N, quad, 1e-4)
        mu = data.node_measure
        scale = max(_weighted_norm(data.lambdas[0], mu), _weighted_norm(data.gamma, mu))
        assert _weighted_norm(data.lambdas[0] - fd, mu) < 1e-8 * scale

    def test_builds_only_the_basis_at_t0(self, quad, monkeypatch):
        seen = []
        real = bergman.bergman_basis
        spy = lambda w, t, *a: seen.append(t) or real(w, t, *a)
        monkeypatch.setattr("bergman_lab.hormander.bergman_basis", spy)
        monkeypatch.setattr("bergman_lab.bergman.bergman_basis", spy)
        build_hormander_data(cross_weight(0.5), moving_family(), (0.3,), N, quad)
        assert set(seen) == {(0.3 + 0j,)}


class TestOrthogonality:
    def test_cross_term_orthogonal(self, cross_data):
        _w, data = cross_data
        assert orthogonality_residual(data) < 1e-6

    def test_zero_coupling_reports_zero(self, quad):
        data = build_hormander_data(cross_weight(0.0), ORIGIN_FAM, (0.0,), N, quad)
        assert orthogonality_residual(data) == 0.0

    def test_moving_sections_orthogonal(self, quad):
        w = cross_weight(0.5)
        data = build_hormander_data(w, moving_family(), (0.3,), N, quad)
        assert orthogonality_residual(data) < 1e-6

    def test_unprojected_control_fails(self, quad):
        w = cross_weight(0.5)
        data = build_hormander_data(
            w, moving_family(), (0.3,), N, quad, include_weight_term=False
        )
        assert orthogonality_residual(data) > 1e-2

    @pytest.mark.parametrize("fiber", ["disk", "bidisc"])
    def test_residual_of_a_frame_combination(self, quad, fiber):
        # Lambda = sum_i a_i u_i over the orthonormal frame u = V C (summed
        # node by node) has <Lambda, u_i> = a_i, so the residual is
        # max |a_i| / ||a||; a complex t0 makes C complex
        if fiber == "disk":
            w, fam, t0, q = cross_weight(0.5), moving_family(), (0.2 + 0.25j,), quad
        else:
            H = np.array([[1, -0.5, 0], [-0.5, 1, 0], [0, 0, 1]], dtype=complex)
            w, fam, t0 = QuadraticWeight(1, 2, H), SectionFamily.constant([[0.1, 0.05]]), (0.1 + 0.1j,)
            q = build_quadrature(FiberDomain.polydisc(1.0, 1.0), 12, 24)
        data = build_hormander_data(w, fam, t0, 10, q)
        b = data.basis
        a = np.zeros(b.dim, dtype=complex)
        a[[2, 4, 5]] = [0.3 - 0.2j, 1.0j, -0.6]
        lam = vandermonde(b.basis, node_list(q)) @ (b.transform @ a)
        residual = orthogonality_residual(dataclasses.replace(data, lambdas=(lam,)))
        assert residual == pytest.approx(1.0 / np.linalg.norm(a), rel=1e-10)


class TestGridDerivatives:
    def test_radial_matrix_exact_on_quadratics(self, quad):
        r = quad.radial_nodes[0]
        D = _radial_derivative_matrix(r)
        assert np.max(np.abs(D @ r**2 - 2 * r)) < 1e-10
        assert np.max(np.abs(D @ np.ones_like(r))) < 1e-12

    def test_dbar_of_antiholomorphic_linear(self, quad):
        # d/d(conj xi) of conj(xi) is 1, exactly representable on the grid
        vals = np.conj(node_list(quad)[:, 0])
        out = dbar_coordinate(vals, quad, 0)
        assert np.max(np.abs(out - 1.0)) < 1e-10

    def test_dbar_annihilates_holomorphic_quadratic(self, quad):
        vals = node_list(quad)[:, 0] ** 2
        out = dbar_coordinate(vals, quad, 0)
        assert np.max(np.abs(out)) < 1e-10

    def test_dbar_of_modulus_squared(self, quad):
        vals = np.abs(node_list(quad)[:, 0]) ** 2
        out = dbar_coordinate(vals, quad, 0)
        assert np.max(np.abs(out - node_list(quad)[:, 0])) < 1e-10

    def test_radial_matrix_exact_below_ring_count(self, quad):
        # collocation differentiation: exact on every ring polynomial of
        # degree < n_radial, edge rings included
        r = quad.radial_nodes[0]
        D = _radial_derivative_matrix(r)
        for k in (1, 5, 17, len(r) - 1):
            assert np.max(np.abs(D @ r**k - k * r ** (k - 1))) < 1e-9 * k


class TestDbarIdentity:
    def test_cross_term_identity(self, cross_data):
        w, data = cross_data
        assert dbar_identity_residual(data) < 1e-4

    def test_negative_control_fails(self, quad):
        w = cross_weight(0.5)
        data = build_hormander_data(
            w, ORIGIN_FAM, (0.0,), N, quad, include_weight_term=False
        )
        assert dbar_identity_residual(data) > 1e-2

    def test_moving_sections(self, quad):
        w = cross_weight(0.5)
        data = build_hormander_data(w, moving_family(), (0.3,), N, quad)
        assert dbar_identity_residual(data) < 1e-4

    def test_separable_both_sides_vanish(self, quad):
        w = QuadraticWeight.separable(1.0, 1, 1)
        data = build_hormander_data(w, ORIGIN_FAM, (0.35,), N, quad)
        assert dbar_identity_residual(data) < 1e-6


class TestGramDerivativeMemo:
    def test_built_once_per_key(self, quad, monkeypatch):
        calls = []
        real = bergman.ring_gram
        monkeypatch.setattr(bergman, "ring_gram", lambda *a, **k: calls.append(1) or real(*a, **k))
        w = cross_weight(0.5)
        fam = SectionFamily.constant([[0.2]])
        section_hessian(w, fam, (0.1,), N, quad)
        assert len(calls) == 2  # d_G and the one mixed second-derivative Gram
        data = build_hormander_data(w, fam, (0.1,), N, quad)
        assert len(calls) == 2  # the Hormander field reads the memoized d_G
        jets = base_gram_jets(w, (0.1,), N, quad)
        assert jets is base_gram_jets(w, (0.1,), N, quad)
        assert not any(arr.flags.writeable for arr in jets)
        build_hormander_data(w, fam, (0.2,), N, quad)
        assert len(calls) == 4  # another base point is another key: d_G and dd_G again
        assert data.lambdas[0].shape == (quad.size,)


# Two benchmark scenarios (disk_sweep seeds 29 and 17, round 0) with an
# off-centre section.  A 3-point radial stencil reported dbar residuals of
# 1.9e-4 and 3.9e-4 on them, FAILs against DBAR_TOL, though the identity
# holds exactly.
DISK_SWEEP_CASES = {
    "cross": (
        "weight = cross 0.387929\nsection = -0.274816+0.066759j ; 1.0\n"
        "t0 = -0.142648+0.039037j\neps0 = 0.849511090959\n"
    ),
    "polynomial": (
        "weight = polynomial (+ (* 0.958593 (abs2 t1)) (abs2 z1) (* 0.120133 (abs2 t1) (abs2 z1)))\n"
        "section = -0.277658+0.035954j ; 1.0\nt0 = 0.091147-0.078367j\neps0 = 0.958593\n"
    ),
}


class TestOffCentreSections:
    @pytest.mark.parametrize("case", sorted(DISK_SWEEP_CASES))
    def test_dbar_identity_passes(self, case):
        text = (
            f"id = off_centre_{case}\nbase_dim = 1\nfiber = disk 1.0\npatch = 0 ; 0.45\n"
            + DISK_SWEEP_CASES[case]
            + "degree = 16\nquadrature = 48 96\nchecks = hormander\n"
        )
        (rec,) = run_scenario_checks(parse_scenario(text), ("hormander",))
        assert rec.verdict == "pass", rec.margins
        assert rec.outputs["dbar_residual"] < 1e-3 * DBAR_TOL

    def test_node_hessian_evaluated_once_per_check(self, monkeypatch):
        # dbar identity, L2 bound, assembled chain and the exact section
        # Hessian share one node evaluation of the weight's Hessian blocks
        calls = []
        real = PolynomialWeight.hessian_field

        def counted(self, t, xi):
            calls.append(xi.size if isinstance(xi, QuadratureRule) else np.shape(xi)[0])
            return real(self, t, xi)

        monkeypatch.setattr(PolynomialWeight, "hessian_field", counted)
        text = (
            "id = node_hessian_once\nbase_dim = 1\nfiber = disk 1.0\npatch = 0 ; 0.45\n"
            + DISK_SWEEP_CASES["polynomial"]
            + "degree = 16\nquadrature = 48 96\nchecks = hormander\n"
        )
        sc = parse_scenario(text)
        (rec,) = run_scenario_checks(sc, ("hormander",))
        assert rec.verdict == "pass", rec.margins
        assert calls == [48 * 96]

    @pytest.mark.parametrize("case,blocks", [("cross", [1]), ("polynomial", [48 * 96])])
    def test_fiber_contraction_evaluated_once_per_check(self, monkeypatch, case, blocks):
        # the L2 bound and the assembled chain read one node contraction; a
        # quadratic weight's broadcast blocks are contracted as one block
        seen = []
        real = weights._contract

        def spy(tf, ff, where):
            seen.append(ff.shape[0])
            return real(tf, ff, where)

        monkeypatch.setattr(weights, "_contract", spy)
        text = (
            f"id = contraction_once_{case}\nbase_dim = 1\nfiber = disk 1.0\npatch = 0 ; 0.45\n"
            + DISK_SWEEP_CASES[case]
            + "degree = 16\nquadrature = 48 96\nchecks = hormander\n"
        )
        (rec,) = run_scenario_checks(parse_scenario(text), ("hormander",))
        assert rec.verdict == "pass", rec.margins
        assert seen == blocks

    def test_node_hessian_shared_with_an_earlier_base_block_read(self, monkeypatch):
        # log_inequality reads only the base block; hormander then needs all
        # three blocks, which the first evaluation already produced
        calls = []
        real = PolynomialWeight.hessian_field

        def counted(self, t, xi):
            calls.append(xi.size if isinstance(xi, QuadratureRule) else np.shape(xi)[0])
            return real(self, t, xi)

        monkeypatch.setattr(PolynomialWeight, "hessian_field", counted)
        text = (
            "id = node_hessian_shared\nbase_dim = 1\nfiber = disk 1.0\npatch = 0 ; 0.45\n"
            + DISK_SWEEP_CASES["polynomial"]
            + "degree = 16\nquadrature = 48 96\nchecks = log_inequality hormander\n"
        )
        sc = parse_scenario(text)
        recs = run_scenario_checks(sc, ("log_inequality", "hormander"))
        assert [r.verdict for r in recs] == ["pass", "pass"]
        assert calls == [48 * 96]


class TestHormanderBound:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.7])
    def test_ratio_within_contract(self, quad, lam):
        w = cross_weight(lam)
        data = build_hormander_data(w, ORIGIN_FAM, (0.0,), N, quad)
        rep = hormander_bound_check(data)
        assert rep.max_ratio <= 1.0 + 1e-4

    def test_closed_form_sides(self, cross_data):
        w, data = cross_data
        rep = hormander_bound_check(data)
        g0, g1 = gauss_moment(0), gauss_moment(1)
        assert rep.lhs[0] == pytest.approx(0.25 * g1 / g0**2, rel=1e-6)
        assert rep.rhs[0] == pytest.approx(0.25 / g0, rel=1e-8)
        assert rep.max_ratio == pytest.approx(g1 / g0, rel=1e-6)

    def test_two_base_directions(self, quad):
        # the weight couples only t1 to the fiber; direction 2 contributes nothing
        w = cross_weight(0.5, n=2)
        fam = SectionFamily.constant([[0.0]], base_dim=2)
        data = build_hormander_data(w, fam, (0.0, 0.0), N, quad)
        rep = hormander_bound_check(data)
        g0, g1 = gauss_moment(0), gauss_moment(1)
        assert rep.ratios[0] == pytest.approx(g1 / g0, rel=1e-6)
        assert rep.ratios[1] == 0.0

    def test_fiber_degenerate_raises(self, quad):
        w = QuadraticWeight(1, 1, np.diag([1.0, 0.0]), label="degenerate")
        data = build_hormander_data(w, ORIGIN_FAM, (0.0,), N, quad)
        with pytest.raises(FiberDegenerateError):
            hormander_bound_check(data)


    @pytest.mark.parametrize("layout", ["broadcast", "materialized"])
    def test_tiny_fiber_eigenvalue_raises(self, quad, layout):
        # the node path applies the same relative positivity floor as the
        # single-point path: a fiber eigenvalue of 1e-17 is degenerate
        w = QuadraticWeight(1, 1, np.diag([1.0, 1e-17]), label="nearly degenerate")
        if layout == "materialized":
            w = as_materialized(w)
        data = build_hormander_data(w, ORIGIN_FAM, (0.0,), N, quad)
        with pytest.raises(FiberDegenerateError, match=r"quadrature nodes .*min eigenvalue 1.000e-17"):
            hormander_bound_check(data)

    def test_broadcast_blocks_match_copies_bitwise(self, quad):
        w = cross_weight(0.5)
        reports = []
        for weight in (w, as_materialized(w)):
            data = build_hormander_data(weight, ORIGIN_FAM, (0.0,), N, quad)
            reports.append((hormander_bound_check(data), assembled_lower_bound(data, 1e-3, 0.75)))
        assert reports[0] == reports[1]


class TestAssembledBound:
    def assembled(self, quad, w, fam=ORIGIN_FAM, degree=N, eps0=0.0):
        data = build_hormander_data(w, fam, (0.0,), degree, quad)
        return assembled_lower_bound(data, 1e-3, eps0)

    def test_separable(self, quad):
        w = QuadraticWeight.separable(1.0, 1, 1)
        rep = self.assembled(quad, w, eps0=1.0)
        assert abs(rep.chain1_margin) < 1e-3
        assert rep.chain2_margin >= -rep.tolerance
        assert rep.passed

    def test_cross_term(self, quad):
        w = cross_weight(0.5)
        rep = self.assembled(quad, w, eps0=0.75)
        # the bound loses exactly lam^2 * B0 at this weight
        assert rep.chain1_margin == pytest.approx(0.25 * rep.B0, abs=1e-3)
        assert abs(rep.chain2_margin) < 1e-6
        assert rep.passed

    def test_overstated_eps0_fails(self, quad):
        w = cross_weight(0.5)
        rep = self.assembled(quad, w, eps0=0.9)
        assert rep.chain2_margin < -rep.tolerance
        assert not rep.passed

    def test_unconverged_raises(self, quad):
        w = QuadraticWeight(1, 1, np.zeros((2, 2)), label="flat")
        fam = SectionFamily.constant([[0.9]])
        with pytest.raises(UnconvergedBasisError, match="truncation"):
            self.assembled(quad, w, fam, degree=6)

    def test_reproduction_diagnostic(self, quad):
        w = cross_weight(0.3)
        rep = self.assembled(quad, w)
        assert rep.diagnostics["reproduction_gap"] < 1e-10
