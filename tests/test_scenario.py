"""Scenario text format: defaults, weight forms, validation errors."""

import dataclasses
import tracemalloc

import pytest

from bergman_lab.reports import config_hash
from bergman_lab.scenario import CHECK_REGISTRY, ScenarioError, parse_scenario
from bergman_lab.weights import CustomWeight, PolynomialWeight, QuadraticWeight

MINIMAL = "weight = separable 1.0\n"

FULL = """
# exercise every field
id = demo
base_dim = 1
fiber = disk 1.0
patch = 0.1 ; 0.3
weight = cross 0.5
section = 0.2 ; 1.0
section = (* 0.4 t1) ; 0.5
det_frame = 1 | z1
t0 = 0.1
degree = 18
quadrature = 40 80
tolerance = 2e-3
eps0 = 0.75
iteration = m 3 steps 6
twist = 0.2
checks = certify, log_inequality det_inequality
seed = 11
"""


class TestDefaults:
    def test_minimal_scenario_fills_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.id == "scenario"
        assert (sc.n, sc.d) == (1, 1)
        assert sc.N == 24
        assert sc.quadrature == (64, 128)
        assert sc.tolerance == 1e-3
        assert sc.patch.center == (0j,)
        assert sc.patch.radius == 0.45
        assert sc.t0 == (0j,)
        assert sc.fiber.kind == "disk"
        assert sc.sections.rank == 1
        assert sc.checks == ()
        assert sc.eps0 is None
        assert (sc.iteration_m, sc.iteration_steps) == (2, 4)
        assert sc.seed == 0

    def test_comments_and_blank_lines_ignored(self):
        sc = parse_scenario("# header\n\nweight = separable 1.0  # inline\n\n")
        assert isinstance(sc.weight, QuadraticWeight)

    def test_full_scenario_echoes_every_field(self):
        sc = parse_scenario(FULL)
        assert sc.id == "demo"
        assert sc.patch.center == (0.1 + 0j,)
        assert sc.patch.radius == 0.3
        assert sc.t0 == (0.1 + 0j,)
        assert sc.N == 18
        assert sc.quadrature == (40, 80)
        assert sc.tolerance == 2e-3
        assert sc.eps0 == 0.75
        assert (sc.iteration_m, sc.iteration_steps) == (3, 6)
        assert sc.twist == 0.2
        assert sc.checks == ("certify", "log_inequality", "det_inequality")
        assert sc.seed == 11
        assert sc.sections.rank == 2
        assert len(sc.det_frame) == 2

    def test_t0_defaults_to_patch_center(self):
        sc = parse_scenario("weight = separable 1.0\npatch = 0.2 ; 0.4\n")
        assert sc.t0 == (0.2 + 0j,)


class TestWeightForms:
    def test_separable(self):
        sc = parse_scenario("weight = separable 2.0\n")
        assert isinstance(sc.weight, QuadraticWeight)
        assert sc.weight.H[0, 0] == 2.0
        assert sc.weight.H[1, 1] == 1.0

    def test_cross(self):
        sc = parse_scenario("weight = cross 0.5\n")
        assert sc.weight.H[0, 1] == 0.5
        assert sc.weight.H[1, 0] == 0.5

    def test_quadratic_matrix(self):
        text = "base_dim = 2\npatch = 0 0 ; 0.45\nweight = quadratic 1 0 -0.5 ; 0 1 0 ; -0.5 0 1\n"
        sc = parse_scenario(text)
        assert sc.weight.H.shape == (3, 3)
        assert sc.weight.H[0, 2] == -0.5

    def test_polynomial(self):
        sc = parse_scenario("weight = polynomial (+ (abs2 t1) (abs2 z1))\n")
        assert isinstance(sc.weight, PolynomialWeight)

    def test_custom(self):
        sc = parse_scenario("weight = custom (+ (abs2 t1) (abs2 z1))\n")
        assert isinstance(sc.weight, CustomWeight)

    def test_fiber_shapes(self):
        # the default origin section lies outside an annulus, so place one inside
        ring = parse_scenario(
            "weight = separable 1\nfiber = annulus 0.3 1.0\nsection = 0.6 ; 1.0\n"
        )
        assert ring.fiber.kind == "annulus"
        # the 64 x 128 default exceeds the node cap on a 2-coordinate fiber
        sc = parse_scenario(
            "weight = quadratic 1 0 0 ; 0 1 0 ; 0 0 1\nfiber = polydisc 1.0 0.8\n"
            "quadrature = 16 64\n"
        )
        assert sc.d == 2


class TestParseErrors:
    def err(self, text, match):
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(text)

    def test_missing_weight(self):
        self.err("id = x\n", "missing the required 'weight'")

    def test_not_key_value(self):
        self.err("just some words\n", "expected 'key = value'")

    def test_duplicate_key(self):
        self.err("weight = separable 1\nweight = cross 0.5\n", "line 2.*duplicate key")

    def test_unknown_key(self):
        self.err("weight = separable 1\nflavor = mint\n", "field 'flavor': unknown key")

    def test_unknown_check_named(self):
        self.err("weight = separable 1\nchecks = certify bogus\n", "unknown check 'bogus'")

    def test_t0_outside_patch(self):
        self.err("weight = separable 1\nt0 = 0.9\n", "outside the patch")

    def test_det_check_needs_frame(self):
        self.err("weight = separable 1\nchecks = det_inequality\n", "needs a 'det_frame'")

    def test_degree_floor(self):
        self.err("weight = separable 1\ndegree = 1\n", "at least 2")

    def test_fiber_dim_contradiction(self):
        self.err(
            "weight = separable 1\nfiber = disk 1.0\nfiber_dim = 2\n", "contradicts"
        )

    def test_patch_coordinate_count(self):
        self.err("base_dim = 2\nweight = quadratic 1 0 0 ; 0 1 0 ; 0 0 1\npatch = 0 ; 0.45\n",
                 "expected 2 center")

    def test_section_outside_fiber(self):
        self.err("weight = separable 1\nsection = 1.5 ; 1.0\n", "field 'section'")

    def test_quadratic_shape_error(self):
        self.err("weight = quadratic 1 0 ; 0 1 ; 0 0\n", "field 'weight'")

    def test_iteration_grammar(self):
        self.err("weight = separable 1\niteration = every day\n", "expected 'm <int> steps <int>'")

    def test_bad_complex_coordinate(self):
        self.err("weight = separable 1\nt0 = zebra\n", "field 't0'")

    def test_degree_not_an_integer(self):
        self.err("weight = separable 1\ndegree = abc\n", "field 'degree'.*'abc'")

    def test_quadrature_not_integers(self):
        self.err("weight = separable 1\nquadrature = 20 x40\n", "field 'quadrature'.*'x40'")

    def test_quadrature_below_rule_floor(self):
        self.err("weight = separable 1\ndegree = 2\nquadrature = 2 40\n",
                 "field 'quadrature'.*n_radial")

    def test_quadrature_too_coarse_for_any_degree(self):
        self.err("weight = separable 1\nquadrature = 2 4\n", "field 'quadrature'")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3", "abc"])
    def test_tolerance_must_be_finite_nonnegative(self, value):
        self.err(f"weight = separable 1\ntolerance = {value}\n", "field 'tolerance'")

    @pytest.mark.parametrize("value", ["nan", "-inf", "-0.5", "abc"])
    def test_eps0_must_be_finite_nonnegative(self, value):
        self.err(f"weight = separable 1\neps0 = {value}\n", "field 'eps0'")

    def test_weight_parameter_not_a_number(self):
        self.err("weight = cross lots\n", "field 'weight'")

    def test_iteration_counts_not_integers(self):
        self.err("weight = separable 1\niteration = m two steps 3\n", "field 'iteration'")

    def test_seed_not_an_integer(self):
        self.err("weight = separable 1\nseed = 1.5\n", "field 'seed'")


class TestResolutionGuard:
    """Angular modes alias above degree n_angular/2 - 1; such runs are refused."""

    def test_degree_above_angular_bound_rejected(self):
        with pytest.raises(ScenarioError, match="degree.*40.*quadrature.*32"):
            parse_scenario("weight = separable 1\ndegree = 40\nquadrature = 16 32\n")

    def test_bound_is_inclusive(self):
        sc = parse_scenario("weight = separable 1\ndegree = 15\nquadrature = 16 32\n")
        assert sc.N == 15
        with pytest.raises(ScenarioError, match="degree"):
            parse_scenario("weight = separable 1\ndegree = 16\nquadrature = 16 32\n")

    def test_override_cannot_bypass_guard(self):
        sc = parse_scenario("weight = separable 1\ndegree = 10\nquadrature = 16 32\n")
        with pytest.raises(ScenarioError, match="degree"):
            dataclasses.replace(sc, N=40)

    def test_override_cannot_bypass_numeric_checks(self):
        sc = parse_scenario(MINIMAL)
        with pytest.raises(ScenarioError, match="tolerance"):
            dataclasses.replace(sc, tolerance=float("nan"))
        with pytest.raises(ScenarioError, match="degree"):
            dataclasses.replace(sc, N=1)



class TestNodeCap:
    """(n_radial * n_angular) ** d is capped at 2**20 nodes, checked before any allocation."""

    POLYDISC = "weight = quadratic 1 0 0 ; 0 1 0 ; 0 0 1\nfiber = polydisc 1.0 1.0\n"

    def test_default_quadrature_on_polydisc_rejected_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=r"'quadrature'.*67,108,864 nodes") as exc:
                parse_scenario(self.POLYDISC)  # 64 x 128 per coordinate
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one node field alone would take 1 GB
        # the suggested quadrature keeps n_angular, so the default degree still fits
        assert "e.g. quadrature 8 128" in str(exc.value)
        parse_scenario(self.POLYDISC + "quadrature = 8 128\n")

    def test_override_cannot_skip_the_cap(self):
        sc = parse_scenario(self.POLYDISC + "quadrature = 16 64\n")
        assert sc.quadrature == (16, 64)
        with pytest.raises(ScenarioError, match="1,115,136 nodes"):
            dataclasses.replace(sc, quadrature=(33, 32))


class TestBasePoint:
    """t0 must lie in the patch; no check differences, so nothing else is asked of it."""

    def test_t0_at_the_patch_edge_parses(self):
        sc = parse_scenario("weight = separable 1\npatch = 0 ; 0.45\nt0 = 0.445\n")
        assert sc.t0 == (0.445 + 0j,)

    def test_h_step_is_an_unknown_key(self):
        with pytest.raises(ScenarioError, match="line 2, field 'h_step': unknown key"):
            parse_scenario("weight = separable 1\nh_step = 1e-2\n")


class TestConfig:
    def test_registry_is_fixed(self):
        assert CHECK_REGISTRY == (
            "certify", "bergman_infra", "section_inequality", "log_inequality",
            "det_inequality", "psh_spectrum", "hormander", "iterate",
        )

    def test_config_hash_reproducible(self):
        a = config_hash(parse_scenario(FULL).config())
        b = config_hash(parse_scenario(FULL).config())
        assert a == b

    def test_config_hash_sees_numeric_fields(self):
        base = config_hash(parse_scenario(MINIMAL).config())
        other = config_hash(parse_scenario("weight = separable 1.0\ndegree = 20\n").config())
        assert base != other

    def test_config_hash_sees_section_content(self):
        a = config_hash(parse_scenario("weight = separable 1\nsection = 0.1 ; 1\n").config())
        b = config_hash(parse_scenario("weight = separable 1\nsection = 0.2 ; 1\n").config())
        assert a != b

    def test_build_quad_matches_request(self):
        sc = parse_scenario("weight = separable 1\ndegree = 16\nquadrature = 20 40\n")
        quad = sc.build_quad()
        assert quad.size == 20 * 40

    def test_grid_spec_carries_patch_and_fiber(self):
        sc = parse_scenario(MINIMAL)
        grid = sc.grid_spec()
        assert grid.patch is sc.patch
        assert grid.fiber is sc.fiber
