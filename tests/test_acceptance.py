"""Acceptance battery: every numbered criterion must pass.

Each test prints its one-line verdict (visible with ``pytest -s`` or on
failure), mirroring the ``suite`` subcommand output.
"""

import math

import numpy as np
import pytest

from bergman_lab import acceptance
from bergman_lab.bergman import HoloPoly, direct_image_gram
from bergman_lab.fiber_numerics import FiberDomain, build_quadrature
from bergman_lab.weights import QuadraticWeight


@pytest.mark.parametrize("name", acceptance.criterion_names())
def test_criterion(name):
    res = acceptance.run_criterion(name)
    print(res.line())
    assert res.passed, res.line()


def test_registry_is_complete():
    assert acceptance.criterion_names() == [f"a{k}" for k in range(1, 14)]


def test_richardson_gate_is_inf_over_budget():
    # a13's one gate on the det route: the h vs h/2 traces differ by O(h^2),
    # about 1e-5 here, so a 1e-13 budget gives inf for the route and the
    # FD budget gives the gap at the compared step
    quad = build_quadrature(FiberDomain.disk(1.0), 48, 96)
    frame = [HoloPoly.constant(1.0), HoloPoly(1, {(1,): 1.0})]
    dig = direct_image_gram(QuadraticWeight.cross_term(0.5), frame, quad)
    exact = float(np.trace(dig.neg_log_det_hessian((0j,))).real)
    route = acceptance._trace_route(dig.neg_log_det, (0j,))
    fd_h, fd_half = route(acceptance.A13_STEP), route(acceptance.A13_STEP / 2)
    assert 1e-13 < abs(fd_h - fd_half) < 1e-3
    assert acceptance.richardson_gap(route, exact, abs, 1e-13, at_half=False) == math.inf
    assert acceptance.richardson_gap(route, exact, abs, 1e-3, at_half=False) == abs(fd_h - exact)
    assert acceptance.richardson_gap(route, exact, abs, 1e-3, at_half=True) == abs(fd_half - exact)
