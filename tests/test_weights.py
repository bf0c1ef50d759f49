"""Weight families: Hessians, Schur/exterior-power algebra, certification.

Closed forms used as oracles:

* phi = exp(|t|^2)|z|^2 has d2/dtdt~ = (1+|t|^2) e^{|t|^2} |z|^2,
  d2/dtdz~ = t~ e^{|t|^2} z, d2/dzdz~ = e^{|t|^2} (hand differentiation).
* phi = c|t|^2 + |z|^2 + a|t|^2|z|^2 has tt = c + a|z|^2, tf = a t~ z and
  ff = 1 + a|t|^2.
* For blocks (tt, tf, ff) with ff = 1 (n = d = 1) the Schur trace is
  tt - |tf|^2.
* The trace-constant attenuation factor is (1-delta)^(2n-2)/(1+delta)^(2n).

The closed-form fiber blocks of ``fiber_contraction`` are held against
LAPACK's batched ``eigvalsh`` and ``solve``, the route they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import PerBasePoint, as_materialized, distortion_margin, ma_ratio, node_list, \
    oracle_certify, point_blocks, schur_at, schur_trace_field

from bergman_lab import weights
from bergman_lab.exprs import wirtinger
from bergman_lab.fiber_numerics import FiberDomain, build_quadrature
from bergman_lab.weights import (
    BasePatch,
    CustomWeight,
    FiberDegenerateError,
    GridSpec,
    NotAWeightError,
    PolynomialWeight,
    QuadraticWeight,
    certify,
    fiber_contraction,
    joint_hessian,
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
    return H[:n, :n], H[:n, n:], H[n:, n:]


class TestHessianAt:
    def test_separable_blocks(self):
        w = QuadraticWeight.separable(1.0)
        tt, tf, ff = point_blocks(w, 0.2 + 0.1j, 0.3)
        assert tt[0, 0] == pytest.approx(1.0)
        assert tf[0, 0] == pytest.approx(0.0)
        assert ff[0, 0] == pytest.approx(1.0)

    def test_cross_term_blocks(self):
        w = QuadraticWeight.cross_term(0.5)
        tt, tf, ff = point_blocks(w, 0j, 0j)
        assert tf[0, 0] == pytest.approx(0.5)
        assert np.allclose(joint_hessian(tt, tf, ff), [[1, 0.5], [0.5, 1]])

    def test_custom_matches_hand_derivatives(self):
        w = CustomWeight.from_text(1, 1, "(* (exp (abs2 t1)) (abs2 z1))")
        t, z = 0.3 + 0j, 0.5 + 0j
        tt, tf, ff = point_blocks(w, t, z)
        e = math.exp(abs(t) ** 2)
        assert tt[0, 0] == pytest.approx((1 + abs(t) ** 2) * e * abs(z) ** 2, abs=1e-14)
        assert tf[0, 0] == pytest.approx(np.conj(t) * e * z, abs=1e-14)
        assert ff[0, 0] == pytest.approx(e, abs=1e-14)

    def test_polynomial_analytic_matches_fd(self):
        # the polynomial and custom spellings of a cross-term weight, and the
        # quadratic weight whose constant Hessian it has
        text = CROSS_TEXT.format(two_lam=0.8)
        wp = PolynomialWeight.from_text(1, 1, text)
        wc = CustomWeight.from_text(1, 1, text)
        wq = QuadraticWeight.cross_term(0.4)
        pts = np.array([0.2 + 0.3j, -0.4j, 0.6])
        tp = wp.hessian_field((0.1 + 0.2j,), pts)
        tc = wc.hessian_field((0.1 + 0.2j,), pts)
        tq = wq.hessian_field((0.1 + 0.2j,), pts)
        for a, b, c in zip(tp, tc, tq):
            assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-14
            assert np.abs(np.asarray(a) - np.asarray(c)).max() < 1e-14

    def test_benchmark_polynomial_closed_form(self):
        # phi = c|t|^2 + |z|^2 + a|t|^2|z|^2: tt = c + a|z|^2,
        # tf = a conj(t) z, ff = 1 + a|t|^2, and d phi/dt = (c + a|z|^2) conj(t)
        c, a = 0.9, 0.35
        w = PolynomialWeight.from_text(1, 1, f"(+ (* {c} (abs2 t1)) (abs2 z1) (* {a} (abs2 t1) (abs2 z1)))")
        t, z = 0.3 - 0.2j, np.array([0j, 0.2 + 0.3j, -0.7j, 0.5 - 0.5j])
        tt, tf, ff = w.hessian_field((t,), z)
        assert np.abs(tt[:, 0, 0] - (c + a * np.abs(z) ** 2)).max() < 1e-14
        assert np.abs(tf[:, 0, 0] - a * np.conj(t) * z).max() < 1e-14
        assert np.abs(ff[:, 0, 0] - (1 + a * abs(t) ** 2)).max() < 1e-14
        assert np.abs(w.grad_base((t,), z)[0] - (c + a * np.abs(z) ** 2) * np.conj(t)).max() < 1e-14

    def test_only_the_tt_tf_ff_trees_are_evaluated(self, monkeypatch):
        # the lower-left block d_z dbar_t phi is tf^H: its trees are never evaluated
        w = PolynomialWeight.from_text(2, 1, "(+ (abs2 t1) (abs2 t2) (abs2 z1) (* 0.3 (re (* t1 t2 (conj z1)))))")
        block = lambda rows, cols: [wirtinger(wirtinger(w.expr, r), c, anti=True) for r in rows for c in cols]
        base, fiber = ("t1", "t2"), ("z1",)
        expected = [tree for tree in block(base, base) + block(base, fiber) + block(fiber, fiber) if tree]
        assert all(block(fiber, base))  # the trees that would be wasted exist
        seen = []
        real = weights.eval_expr
        monkeypatch.setattr(weights, "eval_expr", lambda tree, env: seen.append(tree) or real(tree, env))
        tt, tf, ff = w.hessian_field((0.1, 0.2j), np.array([0.3j, 0.5]))
        assert seen == expected
        assert (tt.shape, tf.shape, ff.shape) == ((2, 2, 2), (2, 2, 1), (2, 1, 1))

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


class TestPerPointBase:
    """``value`` and ``hessian_field`` at one base point per fiber point agree
    with one call per base point."""

    @pytest.mark.parametrize("w", [
        QuadraticWeight.cross_term(0.4, 2, 1),
        PolynomialWeight.from_text(2, 1, "(+ (abs2 t1) (abs2 t2) (abs2 z1) (* 0.3 (re (* t1 t2 (conj z1)))))"),
        CustomWeight.from_text(2, 1, "(+ (abs2 t1) (abs2 z1) (exp (* 0.1 (abs2 t2))))"),
        twist_weight(CustomWeight.from_text(2, 1, "(+ (abs2 t1) (abs2 t2) (abs2 z1))"), 2.0),
    ], ids=["quadratic", "polynomial", "custom", "twisted"])
    def test_matches_one_base_point_at_a_time(self, w):
        T = np.array([[0.1, 0.2j], [0.1, 0.2j], [-0.3j, 0.05]])
        X = np.array([[0.2 + 0.1j], [0.5], [0.3j]])
        values = [w.value(tuple(t), x[None]) for t, x in zip(T, X)]
        assert np.array_equal(w.value(T, X), np.concatenate(values))
        blocks = [w.hessian_field(tuple(t), x[None]) for t, x in zip(T, X)]
        for got, want in zip(w.hessian_field(T, X), zip(*blocks)):
            assert np.array_equal(got, np.concatenate(want))

    def test_base_rows_must_match_the_fiber_points(self):
        w = QuadraticWeight.cross_term(0.4, 2, 1)
        with pytest.raises(ValueError, match="per-point base input"):
            w.value(np.zeros((3, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="per-point base input"):
            w.hessian_field(np.zeros((2, 3)), np.zeros((2, 1)))


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


def strided_quadratic_value(H, t, pts):
    """The quadratic value as the sum of fresh arrays over strided columns:
    the reference formulation of the in-place one."""
    xs = [(c.real, c.imag) for c in t] + [(pts[:, a].real, pts[:, a].imag) for a in range(pts.shape[1])]
    out = np.zeros(pts.shape[0])
    for j, (a, b) in enumerate(xs):
        if H[j, j].real:
            out = out + H[j, j].real * (a * a + b * b)
        for k in range(j + 1, len(xs)):
            h = H[j, k]
            if h:
                c, d = xs[k]
                out = out + 2.0 * (h.real * (a * c + b * d) - h.imag * (b * c - a * d))
    return out


def strided_quadratic_gradient(H, n, t, pts):
    """``d_a phi = sum_k H[a, k] conj(x_k)`` as the sum of fresh arrays over
    strided columns, term by term: the reference formulation of the
    per-coordinate one."""
    xs = list(t) + [pts[:, a] for a in range(pts.shape[1])]
    g = np.empty((n, pts.shape[0]), dtype=complex)
    for a in range(n):
        acc = 0j
        for h, x in zip(H[a], xs):
            if h:
                acc = acc + h * np.conj(x)
        g[a] = acc
    return g


class TestQuadraticNodeBits:
    """``value`` and ``grad_base`` on quadrature nodes give the bits of the
    fresh-array formulations over strided columns."""

    @pytest.mark.parametrize("n, dom", [(1, FiberDomain.disk(1.0)), (2, FiberDomain.polydisc(1.0, 0.8))],
                             ids=["1-D", "2-D"])
    def test_bitwise_equal_to_reference_formulas(self, n, dom):
        g = np.random.default_rng(11)
        m = n + dom.dim
        A = g.normal(size=(m, m)) + 1j * g.normal(size=(m, m))
        w = QuadraticWeight(n, dom.dim, 0.5 * (A + A.conj().T))
        pts = node_list(build_quadrature(dom, 8, 16))
        t = tuple(g.normal(size=n) + 1j * g.normal(size=n))
        assert np.array_equal(w.value(t, pts), strided_quadratic_value(w.H, t, pts))
        T = g.normal(size=(len(pts), n)) + 1j * g.normal(size=(len(pts), n))  # one base point per node
        assert np.array_equal(w.value(T, pts), strided_quadratic_value(w.H, tuple(T.T), pts))
        assert np.array_equal(w.grad_base(t, pts), strided_quadratic_gradient(w.H, n, t, pts))


NODE_RULES = {
    "disk": build_quadrature(FiberDomain.disk(1.0), 8, 16),
    "polydisc": build_quadrature(FiberDomain.polydisc(1.0, 0.6), 6, 12),  # unequal radii
    "annulus": build_quadrature(FiberDomain.annulus(0.3, 1.0), 8, 16),
}


def _node_weight(kind: str, n: int, d: int):
    """A weight of each kind whose every term is present, on n base and d
    fiber coordinates."""
    if kind == "quadratic":
        A = np.random.default_rng(5).normal(size=(n + d, n + d, 2)) @ (1.0, 1j)
        return QuadraticWeight(n, d, 0.5 * (A + A.conj().T))
    z2 = "(abs2 z2) (* 0.2 (abs2 z1) (abs2 z2)) (re (* 0.3 z1 (conj z2))) " if d == 2 else ""
    if kind == "polynomial":
        return PolynomialWeight.from_text(
            n, d, f"(+ (abs2 t1) (abs2 z1) {z2}(* 0.3 (abs2 t1) (abs2 z1)) (re (* 0.4 t1 (conj z1))))")
    return CustomWeight.from_text(
        n, d, f"(+ (abs2 t1) (abs2 z1) {z2}(log (+ 1 (abs2 z1))) (* (exp (re t1)) (abs2 z1)))")


class TestGridNodeFields:
    """On a rule's per-coordinate grids every node field has the bits of the
    same evaluator on the rule's nodes as an (M, d) point list."""

    @pytest.mark.parametrize("rule", sorted(NODE_RULES))
    @pytest.mark.parametrize("kind, n, twist", [("quadratic", 1, 0.0), ("quadratic", 2, 0.0),
                                                ("custom", 1, 0.0), ("polynomial", 1, 0.0),
                                                ("quadratic", 2, 0.5), ("custom", 1, 0.5)])
    def test_grids_and_point_list_agree_bitwise(self, rule, kind, n, twist):
        quad = NODE_RULES[rule]
        w = _node_weight(kind, n, quad.domain.dim)
        w = twist_weight(w, twist) if twist else w
        t = (0.2 - 0.1j, 0.05 + 0.15j)[:n]
        pts = node_list(quad)
        assert np.array_equal(w.value(t, quad), w.value(t, pts))
        assert np.array_equal(w.grad_base(t, quad), w.grad_base(t, pts))
        for on_grid, on_list in zip(w.hessian_field(t, quad), w.hessian_field(t, pts)):
            assert on_grid.shape == on_list.shape == (quad.size,) + on_list.shape[1:]
            assert np.array_equal(on_grid, on_list)  # tt, tf, ff
        phi, dphi, tt = w.node_jets(t, quad)
        assert np.array_equal(phi, w.value(t, pts)) and np.array_equal(dphi, w.grad_base(t, pts))
        assert np.array_equal(tt, w.hessian_field(t, pts)[0])

    def test_rule_of_another_fiber_dimension_is_refused(self):
        w = QuadraticWeight.separable(1.0, 1, 2)
        with pytest.raises(ValueError, match="1-coordinate fiber, expected 2"):
            w.value((0.0,), NODE_RULES["disk"])


class TestSchurTrace:
    def test_identity(self):
        assert schur_at(np.eye(1), np.zeros((1, 1)), np.eye(1)) == pytest.approx(1.0)

    def test_cross_arithmetic(self):
        assert schur_at([[2.0]], [[0.8]], [[1.0]]) == pytest.approx(1.36)

    def test_zero_cross_n2(self):
        assert schur_at(np.eye(2), np.zeros((2, 1)), [[5.0]]) == pytest.approx(2.0)

    def test_degenerate_fiber_block(self):
        with pytest.raises(FiberDegenerateError):
            schur_at(np.eye(1), np.zeros((1, 1)), [[0.0]])

    def test_field_matches_pointwise(self, rng):
        hs = [random_psd_hessian(rng, 2, 2) for _ in range(6)]
        tt, tf, ff = (np.stack(blocks) for blocks in zip(*hs))
        vals = schur_trace_field(tt, tf, ff)
        assert np.allclose(vals, [schur_at(*h) for h in hs], atol=1e-12)


class TestFiberContraction:
    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_broadcast_blocks_match_copies_bitwise(self, n, d, rng):
        h = random_psd_hessian(rng, n, d)
        views = [np.broadcast_to(b, (64, *b.shape)) for b in h]
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
        fiber_contraction(*(np.broadcast_to(b, (500, *b.shape)) for b in h[1:]))
        fiber_contraction(*(np.repeat(b[None], 500, axis=0) for b in h[1:]))
        assert seen == [1, 500]

    def test_matches_pointwise_diagonal(self, rng):
        _tt, tf, ff = random_psd_hessian(rng, 2, 2)
        contraction, ff_min = fiber_contraction(tf, ff)
        expected = np.real(np.diag(tf @ np.linalg.inv(ff) @ tf.conj().T))
        assert np.allclose(contraction, expected, atol=1e-12)
        assert ff_min == pytest.approx(np.linalg.eigvalsh(ff)[0], abs=1e-14)

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
        # degenerate for one point and for a stack of points alike
        h = (np.array([[1.0]]), np.array([[0.0]]), np.array([[1e-17]]))
        with pytest.raises(FiberDegenerateError, match="1.000e-17"):
            schur_at(*h)
        with pytest.raises(FiberDegenerateError, match="1.000e-17"):
            schur_trace_field(*(np.repeat(b[None], 3, axis=0) for b in h))
        with pytest.raises(FiberDegenerateError):
            ma_ratio(*h)
        cert = certify(QuadraticWeight(1, 1, np.diag([1.0, 1e-17])), default_grid())
        assert not cert.diagnostics["fiber_pd"] and cert.eps0 == 0.0
        assert cert.diagnostics["min_fiber_eig"] == pytest.approx(1e-17)

    def test_joint_assembly_matches_blocks(self, rng):
        tt, tf, ff = random_psd_hessian(rng, 2, 1)
        H = joint_hessian(tt, tf, ff)
        assert np.array_equal(H[:2, :2], tt) and np.array_equal(H[2:, :2], tf.conj().T)
        assert np.array_equal(H[:2, 2:], tf) and np.array_equal(H[2:, 2:], ff)
        stacked = joint_hessian(tt[None], tf[None], ff[None])
        assert np.array_equal(stacked[0], H)


U = np.finfo(float).eps / 2  # unit roundoff


@st.composite
def fiber_stacks(draw):
    """``(tf, ff)``: n = 1 or 2 rows of ``tf`` against Hermitian 1 x 1 or 2 x 2
    fiber blocks, one block broadcast along the point axis or one per point.
    Each block is positive definite, has its least eigenvalue near the
    ``FIBER_PD_RTOL`` threshold (on either side, down to inside round-off), or
    is indefinite (trace of either sign)."""
    n, d, points = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2])), draw(st.integers(1, 5))
    broadcast = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tfs, ffs = [], []
    for kind in draw(st.lists(st.sampled_from(["pd", "near", "indefinite"]),
                              min_size=1 if broadcast else points, max_size=1 if broadcast else points)):
        top = 10.0 ** rng.uniform(-3, 3)
        if kind == "pd":
            least = top * 10.0 ** rng.uniform(-10, 0)
        elif kind == "near":
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5, -0.3)
            least = weights.FIBER_PD_RTOL * max(1.0, top if d == 2 else 1.0) * (1.0 + offset)
        else:
            least = -top * 10.0 ** rng.uniform(-3, 3)
        if d == 1:
            ff = np.array([[least]], dtype=complex)
        else:
            Q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            ff = Q @ np.diag([least, top]) @ Q.conj().T
            ff = 0.5 * (ff + ff.conj().T)  # exactly Hermitian, real diagonal
        ffs.append(ff)
        tfs.append((rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))) * 10.0 ** rng.uniform(-3, 3))
    tf, ff = np.array(tfs), np.array(ffs)
    if broadcast:
        tf, ff = (np.broadcast_to(b, (points,) + b.shape[1:]) for b in (tf, ff))
    return tf, ff


class TestClosedFormBlocks:
    """The closed-form fiber blocks against the batched LAPACK route they
    replace: ``eigvalsh`` for the positivity test, ``solve`` for ``ff^{-1}
    tf^H``.  On 2 x 2 blocks ``eigvalsh`` was seen up to 12.5 ``u ||ff||``
    from the exact least eigenvalue (the closed form up to 5), and each
    route's contraction within 3.2 ``cond(ff) u |tf_a|^2 / lambda_min`` of
    the exact one, so the two must agree to 16 and 8 times those scales;
    the positivity verdicts must agree outside that eigenvalue band."""

    @given(fiber_stacks())
    def test_matches_lapack(self, stack):
        tf, ff = stack
        flat_tf, flat_ff = np.ascontiguousarray(tf), np.ascontiguousarray(ff)
        eigs = np.linalg.eigvalsh(flat_ff)
        norm = np.abs(eigs).max(axis=-1)  # ||ff||_2 per block
        threshold = weights.FIBER_PD_RTOL * np.maximum(1.0, eigs[:, -1])
        lapack_pd = eigs[:, 0] > threshold
        band = 16 * U * norm
        clear = np.abs(eigs[:, 0] - threshold) > band  # outside the round-off band
        for p in np.flatnonzero(clear):  # the verdict, block by block
            try:
                fiber_contraction(flat_tf[p : p + 1], flat_ff[p : p + 1])
            except FiberDegenerateError:
                assert not lapack_pd[p]
            else:
                assert lapack_pd[p]
        try:
            contraction, ff_min = fiber_contraction(tf, ff)
        except FiberDegenerateError as exc:
            assert not (lapack_pd & clear).all()  # some block is not clearly positive definite
            ff_min = exc.min_eig
        else:
            assert (lapack_pd | ~clear).all()  # no block is clearly degenerate
            if lapack_pd.all():
                X = np.linalg.solve(flat_ff, np.conj(np.swapaxes(flat_tf, -1, -2)))
                expected = np.real(np.einsum("...ad,...da->...a", flat_tf, X))
                row_norms = np.sum(np.abs(flat_tf) ** 2, axis=-1)
                bound = 8 * U * (norm / eigs[:, 0])[:, None] * row_norms / eigs[:, :1]
                assert np.all(np.abs(contraction - expected) <= bound)
        assert abs(ff_min - eigs[:, 0].min()) <= band.max()


class TestMaRatio:
    def test_identity_case(self):
        assert ma_ratio(np.eye(1), np.zeros((1, 1)), np.eye(1)) == pytest.approx(1.0)

    def test_cross_case(self):
        assert ma_ratio([[2.0]], [[0.8]], [[1.0]]) == pytest.approx(1.36, abs=1e-12)

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_schur_randomized(self, n, d, rng):
        for _ in range(20):
            h = random_psd_hessian(rng, n, d)
            assert abs(ma_ratio(*h) - schur_at(*h)) < 1e-10


class TestOptimalQuadraticForm:
    @given(st.integers(0, 5000))
    def test_bound_and_equality(self, seed):
        # with identity fiber block, trace(tt) - 2Re<tf,lam> + |lam|^2
        # is minimized exactly at lam = tf, where it equals the Schur trace
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        tt, tf, _ff = random_psd_hessian(rng, n, d)
        target = schur_at(tt, tf, np.eye(d))
        lam = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        q = (
            float(np.real(np.trace(tt)))
            - 2 * float(np.real(np.sum(tf * np.conj(lam))))
            + float(np.sum(np.abs(lam) ** 2))
        )
        assert q >= target - 1e-12
        q_opt = (
            float(np.real(np.trace(tt)))
            - 2 * float(np.real(np.sum(tf * np.conj(tf))))
            + float(np.sum(np.abs(tf) ** 2))
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
                psh.append(np.linalg.eigvalsh(joint_hessian(tt[k], tf[k], ff[k]))[0])
                base.append(np.linalg.eigvalsh(tt[k])[0])
                fiber.append(np.linalg.eigvalsh(ff[k])[0])
                schur.append(schur_at(tt[k], tf[k], ff[k]))
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
        assert cert.eps0 == pytest.approx(1.0, abs=1e-14)

    JOINT_GRID_WEIGHTS = {
        "quadratic n=1": (lambda: QuadraticWeight.cross_term(0.5), (1, 1)),
        "quadratic n=2": (lambda: QuadraticWeight.cross_term(0.3, 2, 1), (2, 1)),
        "polynomial": (lambda: PolynomialWeight.from_text(
            1, 1, "(+ (* 0.9 (abs2 t1)) (abs2 z1) (* 0.2 (abs2 t1) (abs2 z1)) (* 0.3 (re (* t1 t1 (conj z1)))))"), (1, 1)),
        "custom": (lambda: CustomWeight.from_text(
            2, 1, "(+ (abs2 t1) (abs2 t2) (abs2 z1) (log (+ 1 (abs2 (* t1 z1)))))"), (2, 1)),
        "twisted polynomial": (lambda: twist_weight(PolynomialWeight.from_text(
            1, 1, "(+ (* 0.2 (abs2 t1)) (abs2 z1) (* 0.3 (abs2 t1) (abs2 z1)))"), 1.5), (1, 1)),
        "quadratic d=2": (lambda: QuadraticWeight.cross_term(0.3, 1, 2), (1, 2)),
        "polynomial d=2": (lambda: PolynomialWeight.from_text(
            1, 2, "(+ (abs2 t1) (abs2 z1) (abs2 z2) (* 0.2 (abs2 t1) (abs2 z1)) (* 0.3 (re (* t1 (conj z2)))))"),
            (1, 2)),
    }

    @pytest.mark.parametrize("name", list(JOINT_GRID_WEIGHTS))
    def test_joint_grid_certifies_like_the_per_base_point_loop(self, name):
        make, (n, d) = self.JOINT_GRID_WEIGHTS[name]
        w, grid = make(), default_grid(n, d)
        reference = certify(PerBasePoint(w, len(grid.fiber_points())), grid)
        assert certify(w, grid) == reference  # every field bitwise, diagnostics included

    @pytest.mark.parametrize("name", ["quadratic n=2", "polynomial", "custom"])
    def test_one_value_and_one_hessian_call_per_certify(self, name, monkeypatch):
        # a grid weight makes one call of each over the joint grid; a
        # quadratic weight's Hessian is one constant block, read with none
        make, (n, d) = self.JOINT_GRID_WEIGHTS[name]
        w, grid = make(), default_grid(n, d)
        calls = []
        for method in ("value", "hessian_field"):
            real = getattr(w, method)
            monkeypatch.setattr(w, method, lambda t, xi, real=real, method=method: (
                calls.append((method, np.shape(t))) or real(t, xi)))
        certify(w, grid)
        points = len(grid.base_points()) * len(grid.fiber_points())
        expected = [("value", (points, n)), ("hessian_field", (points, n))]
        assert calls == ([] if w.constant_hessian else expected)
        assert w.constant_hessian == name.startswith("quadratic")

    @given(st.data())
    def test_one_block_certificate_matches_the_grid_oracle(self, data):
        # the constant-block route against the joint-grid route it replaces,
        # bitwise, with no grid evaluation at all
        n, d = data.draw(st.sampled_from([1, 2])), data.draw(st.sampled_from([1, 2]))
        kind = data.draw(st.sampled_from(["separable", "cross", "hermitian"]))
        if kind == "separable":
            w = QuadraticWeight.separable(data.draw(st.floats(0.05, 3.0)), n, d)
        elif kind == "cross":
            w = QuadraticWeight.cross_term(data.draw(st.floats(-0.95, 0.95)), n, d)
        else:
            m = n + d
            parts = st.floats(-1.0, 1.0)
            B = np.array(data.draw(st.lists(parts, min_size=2 * m * m, max_size=2 * m * m)))
            B = B[: m * m].reshape(m, m) + 1j * B[m * m :].reshape(m, m)
            A = B @ B.conj().T + data.draw(st.floats(0.01, 1.0)) * np.eye(m)
            w = QuadraticWeight(n, d, 0.5 * (A + A.conj().T))
        grid = default_grid(n, d)
        reference = oracle_certify(w, grid)
        seen = []
        for method in ("value", "hessian_field", "_value_raw"):
            setattr(w, method, lambda *args, method=method: seen.append(method))
        cert = certify(w, grid)
        assert seen == []
        assert cert == reference  # eps0, C, psh_min_eig, grid_spec and the diagnostics

    def test_reality_is_tested_at_each_base_points_own_scale(self):
        # Im phi = 1e-11 Im z1 everywhere; at t = 0 (scale 1) that fails,
        # while at |t| = 0.5 phi is about 2500, so one scale over the whole
        # grid would let it through
        w = CustomWeight.from_text(1, 1, "(+ (* 10000 (abs2 t1)) (abs2 z1) (* 1e-11 z1))")
        grid = default_grid()
        T = np.repeat(grid.base_points(), len(grid.fiber_points()), axis=0)
        X = np.tile(grid.fiber_points(), (len(grid.base_points()), 1))
        raw = w._value_raw(tuple(T.T), X)
        assert np.abs(raw.imag).max() < weights.REALITY_TOL * np.abs(raw).max()
        message = (r"weight '\(\+ \(\* 10000 \(abs2 t1\)\) \(abs2 z1\) \(\* 1e-11 z1\)\)' "
                   r"is not real-valued: max \|Im\| = 8\.500e-12")
        with pytest.raises(NotAWeightError, match=message):
            certify(w, grid)
        with pytest.raises(NotAWeightError, match=message):
            w.value(T, X)
        assert w.value(T[-12:], X[-12:]).shape == (12,)  # the last base point alone passes

    def test_non_real_weight_not_certified(self):
        # the holomorphic term z1 has zero Hessian, so only a value check sees it
        w = CustomWeight.from_text(1, 1, "(+ (abs2 t1) (abs2 z1) z1)")
        with pytest.raises(NotAWeightError, match="not real-valued"):
            certify(w, default_grid())


class TestTwist:
    def test_cancels_negative_base_block(self):
        w = QuadraticWeight(1, 1, np.diag([-0.5, 1.0]))
        tw = twist_weight(w, 0.5)
        tt, _tf, _ff = point_blocks(tw, 0j, 0j)
        assert tt[0, 0] == pytest.approx(0.0, abs=1e-14)

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
        tt, _tf, _ff = point_blocks(tw, 0.1 + 0j, 0.2 + 0j)
        assert tt[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_expression_weights_keep_their_kind(self):
        # the twist is C (abs2 t_a) in the tree, so wirtinger differentiates it exactly
        text = "(+ (* 0.2 (abs2 t1)) (abs2 z1) (* 0.3 (abs2 t1) (abs2 z1)))"
        for w in (PolynomialWeight.from_text(1, 1, text), CustomWeight.from_text(1, 1, text)):
            tw = twist_weight(w, 1.5)
            assert type(tw) is type(w) and tw.label == f"{text} + 1.5|t|^2"
            t, z = 0.3 - 0.1j, np.array([0.2j, 0.5])
            assert np.array_equal(tw.hessian_field((t,), z)[0], w.hessian_field((t,), z)[0] + 1.5)
            assert np.abs(tw.grad_base((t,), z) - w.grad_base((t,), z) - 1.5 * np.conj(t)).max() < 1e-15

    def test_other_kinds_are_not_twisted(self):
        with pytest.raises(TypeError, match="cannot twist"):
            twist_weight(weights.WeightFamily(1, 1), 0.5)

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
