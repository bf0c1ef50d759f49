"""Acceptance battery: thirteen numbered criteria (a1..a13) exercise the
full stack at fixed resolutions and tolerances, each with an explicit
wall-clock budget, and every one must pass:

  a1  separable weights reproduce the base curvature in the log trace
  a2  cross-term weights meet the certified trace bound (n = 1 and 2)
  a3  determinant metric of a rank-2 frame meets the scaled bound
  a4  Schur trace agrees with a bordered-determinant oracle
  a5  variational characterization of the Schur trace (upper bounds,
      equality at the optimizer)
  a6  field orthogonality and the L2 contraction bound
  a7  dbar transport identity, with a negative control
  a8  assembled two-step chain: trace >= integral >= n eps0 B
  a9  reproducing identity, flat-disk diagonal, extremal agreement
  a10 iteration bound ledger matches a recursive oracle and is met
  a11 base-Hessian spectrum of log B stays above the tolerance floor
  a12 distortion attenuation closed form and monotonicity
  a13 exact base Hessians of B, log B and -log det G (quadratic,
      polynomial and custom weights), the exact Hormander fields Lambda_a
      and the exact Hessian blocks of the iteration's log-kernel potentials
      agree with the one Wirtinger stencil (``curvature.fd_hessian``) at
      step 1e-2 and at half that, under one Richardson gate
      (``helpers.richardson_gap``), within the FD budget

Each criterion returns ``(passed, margin, detail)``; ``test_criterion``
prints its one-line verdict (visible with ``pytest -s`` or on failure).
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from helpers import A13_STEP, LogKernelField, distortion_margin, fd_lambda_field, mix_weights, \
    richardson_gap, schur_trace_field, trace_route

from bergman_lab.bergman import HoloPoly, SectionFamily, bergman_basis, direct_image_gram, \
    extremal_check, reproducing_residual, section_hessian, section_value
from bergman_lab.curvature import CheckConfig, Stencil, check_det_inequality, check_log_inequality, \
    fd_hessian
from bergman_lab.fiber_numerics import FiberDomain, build_quadrature
from bergman_lab.hormander import assembled_lower_bound, build_hormander_data, \
    dbar_identity_residual, hormander_bound_check, orthogonality_residual
from bergman_lab.iteration import _fiber_samples, run_iteration
from bergman_lab.utils import as_complex_tuple
from bergman_lab.weights import CustomWeight, PolynomialWeight, QuadraticWeight, joint_hessian, \
    twist_weight

SEED = 20260814


def _cross(lam: float) -> QuadraticWeight:
    H = np.array([[1.0, -lam], [-lam, 1.0]])
    return QuadraticWeight(1, 1, H, label=f"cross({lam})")


def _cross_n2(lam: float) -> QuadraticWeight:
    H = np.array([[1.0, 0.0, -lam], [0.0, 1.0, 0.0], [-lam, 0.0, 1.0]])
    return QuadraticWeight(2, 1, H, label=f"cross-n2({lam})")


def _origin_sections(n: int = 1) -> SectionFamily:
    return SectionFamily.constant([[0.0]], base_dim=n)


def _random_psd(rng, m: int) -> np.ndarray:
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return A.conj().T @ A + 1e-3 * np.eye(m)


def a1():
    """Separable weights: the log trace equals the base curvature c."""
    quad = build_quadrature(FiberDomain.disk(1.0), 64, 128)
    cfg = CheckConfig(24, quad)
    fam = _origin_sections()
    worst = math.inf
    budget_ok = True
    for c in (0.5, 1.0, 2.0):
        start = time.perf_counter()
        rep = check_log_inequality(QuadraticWeight.separable(c), fam, (0.0,), c, cfg)
        budget_ok = budget_ok and (time.perf_counter() - start) <= 5.0
        worst = min(worst, 1e-3 - abs(rep.trace - c))
    detail = f"max |trace - c| = {1e-3 - worst:.2e} over c in 0.5/1/2"
    return worst >= 0 and budget_ok, worst, detail


def a2():
    """Cross-term weights meet the certified trace bound."""
    quad = build_quadrature(FiberDomain.disk(1.0), 64, 128)
    cfg = CheckConfig(24, quad)
    worst = math.inf
    budget_ok = True
    for lam in (0.3, 0.5, 0.7):
        start = time.perf_counter()
        rep = check_log_inequality(_cross(lam), _origin_sections(), (0.0,), 1 - lam**2, cfg)
        budget_ok = budget_ok and (time.perf_counter() - start) <= 30.0
        worst = min(worst, rep.margin + 1e-3)
    lam = 0.5
    start = time.perf_counter()
    rep2 = check_log_inequality(
        _cross_n2(lam), _origin_sections(2), (0.0, 0.0), (2 - lam**2) / 2, cfg
    )
    budget_ok = budget_ok and (time.perf_counter() - start) <= 30.0
    worst = min(worst, rep2.margin + 1e-3)
    detail = f"worst margin over bound {worst - 1e-3:+.2e} (n=1 and n=2)"
    return worst >= 0 and budget_ok, worst, detail


def a3():
    """Determinant metric of the frame {1, z} meets the rank-scaled bound."""
    quad = build_quadrature(FiberDomain.disk(1.0), 64, 128)
    cfg = CheckConfig(24, quad)
    frame = (HoloPoly.constant(1.0, 1), HoloPoly(1, {(1,): 1.0}))
    start = time.perf_counter()

    c = 1.0
    dig = direct_image_gram(QuadraticWeight.separable(c), frame, quad)
    rep = check_det_inequality(dig, (0.0,), c, cfg)
    sep_gap = abs(rep.trace - 2 * c)

    lam = 0.5
    dig2 = direct_image_gram(_cross(lam), frame, quad)
    rep2 = check_det_inequality(dig2, (0.0,), 1 - lam**2, cfg)

    budget_ok = (time.perf_counter() - start) <= 30.0
    worst = min(1e-3 - sep_gap, rep2.margin + 1e-3)
    detail = f"separable |trace - 2c| = {sep_gap:.2e}, cross margin {rep2.margin:+.2e}"
    return worst >= 0 and budget_ok, worst, detail


def a4():
    """Schur trace vs. bordered-determinant oracle on random psd Hessians."""
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = math.inf
    for n, d in product((1, 2), (1, 2)):
        for _ in range(50):
            H = _random_psd(rng, n + d)
            tt, tf, ff = H[:n, :n], H[:n, n:], H[n:, n:]
            lib = float(schur_trace_field(tt[None], tf[None], ff[None])[0])
            det_ff = np.linalg.det(ff)
            oracle = 0.0
            for k in range(n):
                M = np.empty((d + 1, d + 1), dtype=complex)
                M[0, 0] = tt[k, k]
                M[0, 1:] = tf[k]
                M[1:, 0] = np.conj(tf[k])
                M[1:, 1:] = ff
                oracle += float(np.real(np.linalg.det(M) / det_ff))
            worst = min(worst, 1e-10 - abs(lib - oracle))
    budget_ok = (time.perf_counter() - start) <= 1.0
    detail = f"max |schur - oracle| = {1e-10 - worst:.2e} over 200 draws"
    return worst >= 0 and budget_ok, worst, detail


def a5():
    """The Schur trace is the minimum of its completion quadratic."""
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    worst = math.inf
    for _ in range(100):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        H = _random_psd(rng, n + d)
        tt, tf, ff = H[:n, :n], H[:n, n:], H[n:, n:]
        schur = float(schur_trace_field(tt[None], tf[None], ff[None])[0])

        def completion(V):
            # sum_k  tt_kk - 2 Re(tf_k . V_k) + V_k^H ff V_k
            q = 0.0
            for k in range(n):
                v = V[:, k]
                q += float(
                    np.real(tt[k, k] - 2 * np.real(tf[k] @ v) + v.conj() @ ff @ v)
                )
            return q

        V_rand = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
        worst = min(worst, completion(V_rand) - schur + 1e-12)
        V_opt = np.linalg.solve(ff, tf.conj().T)
        worst = min(worst, 1e-12 - abs(completion(V_opt) - schur))
    budget_ok = (time.perf_counter() - start) <= 1.0
    detail = f"worst optimality gap {1e-12 - worst:.2e} over 100 pairs"
    return worst >= 0 and budget_ok, worst, detail


def a6():
    """Field orthogonality and the L2 contraction bound, all couplings."""
    quad = build_quadrature(FiberDomain.disk(1.0), 48, 96)
    fam = _origin_sections()
    start = time.perf_counter()
    worst_orth = -math.inf
    worst_ratio = -math.inf
    for lam in (0.3, 0.5, 0.7):
        data = build_hormander_data(_cross(lam), fam, (0.0,), 16, quad)
        worst_orth = max(worst_orth, orthogonality_residual(data))
        worst_ratio = max(worst_ratio, hormander_bound_check(data).max_ratio)
    budget_ok = (time.perf_counter() - start) <= 60.0
    margin = min(1e-6 - worst_orth, (1 + 1e-4) - worst_ratio)
    detail = f"orthogonality <= {worst_orth:.2e}, ratio <= {worst_ratio:.6f}"
    return margin >= 0 and budget_ok, margin, detail


def a7():
    """dbar transport identity holds; dropping the transport term breaks it."""
    quad = build_quadrature(FiberDomain.disk(1.0), 48, 96)
    fam = _origin_sections()
    w = _cross(0.5)
    start = time.perf_counter()
    proper = dbar_identity_residual(build_hormander_data(w, fam, (0.0,), 16, quad))
    control = dbar_identity_residual(
        build_hormander_data(w, fam, (0.0,), 16, quad, include_weight_term=False)
    )
    budget_ok = (time.perf_counter() - start) <= 30.0
    margin = min(1e-4 - proper, control - 1e-2)
    detail = f"residual {proper:.2e}, control {control:.2e}"
    return margin >= 0 and budget_ok, margin, detail


def a8():
    """Assembled chain: trace >= weighted integral >= n eps0 B, all couplings."""
    quad = build_quadrature(FiberDomain.disk(1.0), 48, 96)
    fam = _origin_sections()
    start = time.perf_counter()
    worst = math.inf
    for lam in (0.3, 0.5, 0.7):
        data = build_hormander_data(_cross(lam), fam, (0.0,), 16, quad)
        rep = assembled_lower_bound(data, 1e-3, 1 - lam**2)
        worst = min(worst, rep.chain1_margin + rep.tolerance, rep.chain2_margin + rep.tolerance)
    budget_ok = (time.perf_counter() - start) <= 60.0
    detail = f"worst chain margin {worst:+.2e} over couplings"
    return worst >= 0 and budget_ok, worst, detail


def a9():
    """Kernel infrastructure: reproducing identity, flat diagonal, extremal."""
    start = time.perf_counter()
    quad = build_quadrature(FiberDomain.disk(1.0), 64, 128)
    b = bergman_basis(_cross(0.5), (0.0,), 24, quad)
    probe = 0.35 * np.exp(0.4j)
    h = lambda z: 1.0 + 0.25 * np.asarray(z) ** 2
    repro = reproducing_residual(b, h, complex(probe))
    diag, extremal = extremal_check(b, complex(probe))
    ext_gap = abs(diag - extremal) / max(abs(diag), 1e-300)

    flat = QuadraticWeight(1, 1, np.zeros((2, 2)))
    b0 = bergman_basis(flat, (0.0,), 12, build_quadrature(FiberDomain.disk(1.0), 48, 96))
    diag_gap = abs(b0.kernel_diag(0j) - 1 / math.pi)

    budget_ok = (time.perf_counter() - start) <= 5.0
    margin = min(1e-8 - repro, 1e-6 - diag_gap, 1e-10 - ext_gap)
    detail = f"reproducing {repro:.2e}, |K(0,0) - 1/pi| = {diag_gap:.2e}, extremal {ext_gap:.2e}"
    return margin >= 0 and budget_ok, margin, detail


def a10():
    """Iteration ledger: closed-form bounds vs. a recursive oracle, bound met."""
    quad = build_quadrature(FiberDomain.disk(1.0), 48, 96)
    cfg = CheckConfig(16, quad)
    start = time.perf_counter()
    worst_oracle = math.inf
    worst_step = math.inf
    for m in (2, 3):
        ledger = run_iteration(QuadraticWeight.separable(1.0), m, 8, cfg, 1.0, (0j,))
        b = 0.0
        for rec in ledger.steps:
            b = b * (1 - 1 / m) + ledger.eps0 / m
            worst_oracle = min(worst_oracle, 1e-15 - abs(b - rec.certified_bound))
            worst_step = min(
                worst_step,
                rec.measured_trace - ledger.base_dim * rec.certified_bound + 1e-3,
            )
        if ledger.aborted or not ledger.satisfies(1e-3):
            worst_step = min(worst_step, -1.0)
    budget_ok = (time.perf_counter() - start) <= 300.0
    margin = min(worst_oracle / 1e-15, worst_step)  # oracle gap in units of its tolerance
    detail = (
        f"bound oracle gap {1e-15 - worst_oracle:.1e}, "
        f"worst measured margin {worst_step - 1e-3:+.2e} (m = 2, 3; K = 8)"
    )
    return worst_oracle >= 0 and worst_step >= 0 and budget_ok, margin, detail


def a11():
    """Base-Hessian spectrum of log B stays above -1e-6 * scale."""
    quad = build_quadrature(FiberDomain.disk(1.0), 48, 96)
    start = time.perf_counter()
    cases = [
        (QuadraticWeight.separable(1.0), _origin_sections(), (0.0,)),
        (_cross(0.5), _origin_sections(), (0.0,)),
        (_cross_n2(0.5), _origin_sections(2), (0.0, 0.0)),
    ]
    worst = math.inf
    for w, fam, t0 in cases:
        H = section_hessian(w, fam, t0, 16, quad).log_hessian
        eigs = np.linalg.eigvalsh(H)
        scale = max(1.0, float(np.max(np.abs(H))))
        worst = min(worst, float(eigs[0]) + 1e-6 * scale)
    budget_ok = (time.perf_counter() - start) <= 60.0
    detail = f"worst floored eigenvalue {worst:+.2e} over 3 scenarios"
    return worst >= 0 and budget_ok, worst, detail


def a12():
    """Distortion attenuation: closed form at n=2, delta=0.1, monotone."""
    start = time.perf_counter()
    val = distortion_margin(2, 0.1, 1.0)
    closed = 0.9**2 / 1.1**4
    gap = abs(val - closed)
    rounded_ok = f"{val:.6f}" == "0.553241"
    grid = [distortion_margin(2, delta, 1.0) for delta in (0.0, 0.05, 0.1, 0.2, 0.4)]
    monotone = all(a > b for a, b in zip(grid, grid[1:]))
    linear = abs(distortion_margin(2, 0.1, 0.6) - 0.6 * val) < 1e-15
    budget_ok = (time.perf_counter() - start) <= 1.0
    margin = 1e-12 - gap
    ok = margin >= 0 and rounded_ok and monotone and linear and budget_ok
    detail = f"|value - closed form| = {gap:.1e}, value {val:.6f}, monotone {monotone}"
    return ok, margin, detail


def _a13_lambda_gap(w, fam, t0, N, quad, cfg) -> float:
    """Worst relative L2 gap between the exact Lambda_a and its FD
    derivation at h/2, after the Richardson gate between h and h/2."""
    data = build_hormander_data(w, fam, t0, N, quad)
    norm = lambda vals: math.sqrt(float(np.sum(np.abs(vals) ** 2 * data.node_measure)))
    worst = 0.0
    for a, exact in enumerate(data.lambdas):
        scale = max(norm(exact), norm(data.gamma))
        route = lambda h, a=a: fd_lambda_field(w, fam, t0, a, N, quad, h)
        worst = max(worst, richardson_gap(route, exact, lambda v: norm(v) / scale,
                                          cfg.tolerance, at_half=True))
    return worst


def _a13_iteration_gap(w, t0, N, quad, cfg) -> float:
    """Worst gap between the exact Hessian blocks (tt, tf, ff) of the
    potentials psi_1 and psi_2 of the m = 2 iteration and the stencil of
    their values over the joint point (t0, 0) at h/2, after the Richardson
    gate between h and h/2, relative to max(1, |block|), at the iteration's
    fiber samples."""
    t0 = as_complex_tuple(t0)
    n, d = w.n, w.d
    xi = _fiber_samples(quad)
    blocks = ((slice(0, n), slice(0, n)), (slice(0, n), slice(n, None)),  # tt, tf, ff
              (slice(n, None), slice(n, None)))
    psi = LogKernelField(w, N, quad)
    worst = 0.0
    for _k in (1, 2):
        psi = LogKernelField(mix_weights(psi, w, 2), N, quad)
        exact = psi.hessian_field(t0, xi)
        scales = [max(1.0, float(np.abs(b).max())) for b in exact]

        def norm(H, scales=scales):
            return max(float(np.abs(H[:, r, c]).max()) / s for (r, c), s in zip(blocks, scales))

        def field(p, psi=psi):
            return psi.value(p[:n], xi + np.asarray(p[n:]))

        route = lambda h, field=field: fd_hessian(field, Stencil(t0 + (0j,) * d, h))
        worst = max(worst, richardson_gap(route, joint_hessian(*exact), norm, cfg.tolerance,
                                          at_half=True))
    return worst


def a13():
    """Exact base Hessians, Hormander fields and log-kernel jets vs. FD with a
    Richardson gate."""
    quad = build_quadrature(FiberDomain.disk(1.0), 48, 96)
    poly = PolynomialWeight.from_text(
        1, 1, "(+ (* 0.8 (abs2 t1)) (abs2 z1) (* 0.3 (abs2 t1) (abs2 z1)))"
    )
    coupled_log = CustomWeight.from_text(  # not a polynomial, base and fiber coupled
        1, 1, "(+ (abs2 t1) (abs2 z1) (log (+ 1 (abs2 (* t1 z1)))))"
    )
    moving = SectionFamily(
        1, 1,
        ((HoloPoly(1, {(0,): 0.2, (1,): 0.3}),),),
        (HoloPoly(1, {(0,): 1.0, (1,): 0.5, (2,): -0.2j}),),
    )
    polydisc = build_quadrature(FiberDomain.polydisc(1.0, 1.0), 12, 24)
    H_pd = np.array([[1.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    frame = (HoloPoly.constant(1.0), HoloPoly(1, {(1,): 1.0}))
    cases = [  # (label, weight, sections, t0, degree, quadrature)
        ("separable", QuadraticWeight.separable(1.0), _origin_sections(), (0.1 + 0.05j,), 16, quad),
        ("cross", _cross(0.5), SectionFamily.constant([[0.2 + 0.1j]]), (0.05 - 0.02j,), 16, quad),
        ("cross n=2", _cross_n2(0.5), SectionFamily.constant([[0.1j]], base_dim=2),
         (0.03 + 0.01j, -0.02j), 16, quad),
        ("polynomial", poly, moving, (0.1 + 0.05j,), 16, quad),
        ("custom", coupled_log, moving, (0.1 + 0.05j,), 16, quad),
        ("polydisc", QuadraticWeight(1, 2, H_pd), SectionFamily.constant([[0.2 + 0.1j, -0.1j]]),
         (0.05 + 0.03j,), 10, polydisc),
    ]
    iterated = [  # (label, weight, t0): the iteration route, on the disk at degree 16
        ("cross", _cross(0.5), (0.05 - 0.02j,)),
        ("twisted cross", twist_weight(_cross(0.5), 0.4), (0.05 - 0.02j,)),
        ("cross n=2", _cross_n2(0.5), (0.03 + 0.01j, -0.02j)),
    ]
    start = time.perf_counter()
    gaps = {}  # (case label, route) -> |FD - exact|
    for label, w, fam, t0, N, q in cases:
        cfg = CheckConfig(N, q)
        exact = section_hessian(w, fam, t0, N, q)
        tol = cfg.tolerance
        B = lambda t: section_value(w, fam, t, N, q)
        scale_B = max(1.0, exact.B)
        gaps[label, "B"] = richardson_gap(trace_route(B, t0), float(np.trace(exact.hessian).real),
                                          lambda x: abs(x) / scale_B, tol, at_half=False)
        gaps[label, "log B"] = richardson_gap(
            trace_route(lambda t: math.log(B(t)), t0), float(np.trace(exact.log_hessian).real),
            abs, tol, at_half=False)
        if q is quad:  # the disk cases also take the det and Lambda_a routes
            dig = direct_image_gram(w, frame, q)
            gaps[label, "det"] = richardson_gap(
                trace_route(dig.neg_log_det, t0), float(np.trace(dig.neg_log_det_hessian(t0)).real),
                abs, tol, at_half=False)
            gaps[label, "Lambda"] = _a13_lambda_gap(w, fam, t0, N, q, cfg)
    for label, w, t0 in iterated:
        gaps[label, "log K jets"] = _a13_iteration_gap(w, t0, 16, quad, CheckConfig(16, quad))
    (label, route), worst_diff = max(gaps.items(), key=lambda kv: kv[1])
    worst = CheckConfig(16, quad).tolerance - worst_diff
    budget_ok = (time.perf_counter() - start) <= 30.0
    detail = f"worst |FD - exact| {worst_diff:.2e} ({label}, {route}) over {len(gaps)} routes"
    return worst >= 0 and budget_ok, worst, detail


CRITERIA = [a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    start = time.perf_counter()
    passed, margin, detail = criterion()
    line = (f"{criterion.__name__.upper()}: {'PASS' if passed else 'FAIL'} "
            f"({detail}; {time.perf_counter() - start:.1f}s)")
    print(line)
    assert passed, f"{line}, margin {margin:+.3e}"


def test_registry_is_complete():
    assert [fn.__name__ for fn in CRITERIA] == [f"a{k}" for k in range(1, 14)]


def test_richardson_gate_is_inf_over_budget():
    # a13's one gate on the det route: the h vs h/2 traces differ by O(h^2),
    # about 1e-5 here, so a 1e-13 budget gives inf for the route and the
    # FD budget gives the gap at the compared step
    quad = build_quadrature(FiberDomain.disk(1.0), 48, 96)
    frame = [HoloPoly.constant(1.0), HoloPoly(1, {(1,): 1.0})]
    dig = direct_image_gram(QuadraticWeight.cross_term(0.5), frame, quad)
    exact = float(np.trace(dig.neg_log_det_hessian((0j,))).real)
    route = trace_route(dig.neg_log_det, (0j,))
    fd_h, fd_half = route(A13_STEP), route(A13_STEP / 2)
    assert 1e-13 < abs(fd_h - fd_half) < 1e-3
    assert richardson_gap(route, exact, abs, 1e-13, at_half=False) == math.inf
    assert richardson_gap(route, exact, abs, 1e-3, at_half=False) == abs(fd_h - exact)
    assert richardson_gap(route, exact, abs, 1e-3, at_half=True) == abs(fd_half - exact)
