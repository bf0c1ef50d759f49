"""Weight families phi(t, xi), their complex Hessians, and certification.

A weight is a smooth real-valued function of base coordinates ``t`` (n
complex variables) and fiber coordinates ``xi`` (d complex variables); it
defines the fiberwise norms ``int |f|^2 exp(-phi(t, .))``.  Three kinds are
supported:

* ``quadratic``  — phi(x) = sum H[j,k] x_j conj(x_k) with a constant
  Hermitian matrix H over the joint coordinates (base first, fiber second);
  all derivatives are exact.
* ``custom``     — an arbitrary expression-tree weight; its gradient and
  Hessian are the expression trees :func:`exprs.wirtinger` differentiates
  once at construction, so every derivative is exact.
* ``polynomial`` — a custom weight that must be a real polynomial in the
  coordinates and their conjugates, checked once at construction.

The pointwise curvature algebra lives here too: the Schur complement of the
fiber block, its base trace (the quantity whose lower bound certifies the
trace condition) and the certificate search over sampling grids.  The Schur
traces of :func:`certify`, the L2 step and the iteration read one kernel,
:func:`fiber_contraction`: over stacked blocks it returns the
per-direction diagonal ``(tf ff^{-1} tf^H)_aa`` and the least fiber-block
eigenvalue, in closed form over the point axis (``fiber_dim`` is at most 2).
A 1 x 1 block ``ff`` is its own eigenvalue and gives ``|tf_a|^2 / ff``.  A
2 x 2 block ``[[a, b], [conj(b), c]]`` has ``lambda_max = m + hypot((a - c)/2,
|b|)``, ``m = (a + c)/2``, and ``lambda_min = det / lambda_max``, ``det = ac
- |b|^2`` (``m - hypot(...)`` where ``m <= 0``, which does not cancel), and
gives ``(c |v_0|^2 + a |v_1|^2 - 2 Re(v_0 b conj(v_1))) / det``, ``v =
tf[a]``.  A block counts as positive definite when its least eigenvalue
exceeds ``FIBER_PD_RTOL * max(1, largest)``; the node fields of the L2
step, the iteration's samples and the certification grid apply this one
rule.
A stack that is one block broadcast along the point axis (stride 0, as a
quadratic weight's ``hessian_field`` returns) is evaluated on that block
alone and the result broadcast.  ``value`` and ``hessian_field`` take one
base point or one per fiber point, so :func:`certify` evaluates its whole
base x fiber grid in one call of each (and such a grid's one block, not its
copies).  The Schur base trace is ``Re tr tt`` minus the sum of that
diagonal, and :func:`joint_hessian` assembles ``[[tt, tf], [tf^H, ff]]``
for every plurisubharmonicity test.

Evaluators take fiber input per coordinate (:func:`_as_points`): a point
set's columns, or a :class:`QuadratureRule`'s broadcasting grids, which the
node fields (:meth:`node_phi`, :meth:`WeightFamily.node_jets`,
:func:`node_hessian`) pass; a term in one fiber coordinate is then evaluated
on that coordinate's grid alone, and results are raveled into node order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exprs import Call, Expr, Num, Var, eval_expr, expand_real_polynomial, parse_expr, to_text, \
    wirtinger
from .fiber_numerics import FiberDomain, QuadratureRule
from .utils import as_complex_tuple, check_hermitian

__all__ = [
    "NotAWeightError",
    "FiberDegenerateError",
    "WeightFamily",
    "QuadraticWeight",
    "PolynomialWeight",
    "CustomWeight",
    "BasePatch",
    "GridSpec",
    "WeightCertificate",
    "exp_weight",
    "node_hessian",
    "joint_hessian",
    "fiber_contraction",
    "schur_from_contraction",
    "certify",
    "twist_weight",
]

REALITY_TOL = 1e-12
# A fiber block is positive definite when its least eigenvalue exceeds this
# times max(1, its largest eigenvalue).
FIBER_PD_RTOL = 1e-14
# A least joint-Hessian eigenvalue below -PSH_TOL * max(1, scale) fails
# plurisubharmonicity, in certify and at every iteration step.
PSH_TOL = 1e-8


class NotAWeightError(ValueError):
    """The supposed weight takes non-real values."""


class FiberDegenerateError(ArithmeticError):
    """Fiber block of the Hessian is singular; strict fiberwise psh required.

    ``min_eig`` is the least fiber-block eigenvalue that was seen.
    """

    def __init__(self, message: str, min_eig: float = math.nan):
        super().__init__(message)
        self.min_eig = min_eig


def _as_fiber_array(xi, d: int) -> tuple[np.ndarray, bool]:
    """Normalize fiber input to shape (M, d); flag single-point inputs."""
    arr = np.asarray(xi, dtype=complex)
    if arr.ndim == 0:
        if d != 1:
            raise ValueError("scalar fiber point given but fiber_dim > 1")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if d == 1:
            return arr.reshape(-1, 1), False
        if arr.shape[0] == d:
            return arr.reshape(1, d), True
        raise ValueError(f"fiber points of dimension {arr.shape[0]} given, expected {d}")
    if arr.ndim == 2 and arr.shape[1] == d:
        return arr, False
    raise ValueError(f"cannot interpret fiber input of shape {arr.shape} for d={d}")


def _as_points(t, xi, n: int, d: int) -> tuple[tuple, tuple, tuple, bool]:
    """Normalize ``(t, xi)`` to per-coordinate form ``(t, xs, shape, single)``.

    ``xs`` are a :class:`QuadratureRule`'s grids (``shape`` its grid shape)
    or the contiguous columns, of shape ``(M,)``, of fiber points as in
    :func:`_as_fiber_array`; :func:`_on_points` ravels a field on ``shape``
    into point order.  ``t`` becomes n complex scalars (one base point) or,
    for points, n arrays of shape (M,) (one base point per fiber point).
    """
    if isinstance(xi, QuadratureRule):
        if xi.domain.dim != d:
            raise ValueError(f"quadrature rule on a {xi.domain.dim}-coordinate fiber, expected {d}")
        xs, shape, single = xi.grids, xi.grid_shape, False
    else:
        pts, single = _as_fiber_array(xi, d)
        xs, shape = tuple(np.ascontiguousarray(pts.T)), pts.shape[:1]
    arr = np.asarray(t, dtype=complex)
    if arr.ndim == 2:
        expected = (math.prod(shape), n)
        if arr.shape != expected or len(shape) != 1:
            raise ValueError(f"per-point base input of shape {arr.shape}, expected {expected}")
        return tuple(arr.T), xs, shape, single
    t = as_complex_tuple(arr)
    if len(t) != n:
        raise ValueError(f"base point has {len(t)} coordinates, expected {n}")
    return t, xs, shape, single


def _on_points(values, shape: tuple) -> np.ndarray:
    """A field broadcast to the points' ``shape`` and raveled into point order."""
    values = np.asarray(values)
    return (values if values.shape == shape else np.broadcast_to(values, shape)).reshape(-1)


def _checked_real(raw: np.ndarray, starts, label: str) -> np.ndarray:
    """The real part of raw weight values, whose entries from ``starts[i]`` to
    the next start share a base point; the first base point whose largest
    ``|Im|`` exceeds ``REALITY_TOL * max(1, largest |value|)`` raises."""
    if np.iscomplexobj(raw) and raw.size:
        scale = np.fmax(1.0, np.maximum.reduceat(np.abs(raw), starts))
        worst = np.maximum.reduceat(np.abs(raw.imag), starts)
        bad = np.flatnonzero(worst > REALITY_TOL * scale)
        if bad.size:
            raise NotAWeightError(f"weight {label!r} is not real-valued: max |Im| = {worst[bad[0]]:.3e}")
    return np.asarray(np.real(raw), dtype=float)


class WeightFamily:
    """Common evaluator interface; subclasses fix the derivative strategy."""

    kind = "abstract"

    def __init__(self, base_dim: int, fiber_dim: int, label: str = ""):
        if base_dim < 1 or fiber_dim < 1:
            raise ValueError("base_dim and fiber_dim must be positive")
        if fiber_dim > 2:
            raise ValueError("fiber_dim is capped at 2")
        self.n = int(base_dim)
        self.d = int(fiber_dim)
        self.label = label or self.kind

    # subclasses implement the raw (possibly complex) evaluator on the
    # per-coordinate input of _as_points: ``t`` holds n complex scalars or n
    # arrays of shape (M,), ``xs`` d arrays; the result broadcasts to their shape
    def _value_raw(self, t: tuple, xs: tuple) -> np.ndarray:
        raise NotImplementedError

    def value(self, t, xi) -> np.ndarray:
        """phi(t, xi) over fiber points or the nodes of a rule (``xi``, see
        :func:`_as_points`), at one base point ``t`` (shape (n,)) or one
        per fiber point (shape (M, n)); checked real per base point, a run
        of equal rows of ``t`` (:func:`_checked_real`)."""
        t, xs, shape, single = _as_points(t, xi, self.n, self.d)
        moved = np.any([c[1:] != c[:-1] for c in t], axis=0) if np.ndim(t[0]) else []
        starts = np.flatnonzero(np.r_[True, moved])  # the first entry of each base point
        out = _checked_real(_on_points(self._value_raw(t, xs), shape), starts, self.label)
        return float(out[0]) if single else out

    def grad_base(self, t, xi) -> np.ndarray:
        """d phi / dt_a for a = 1..n, shape (n,) or (n, M)."""
        raise NotImplementedError

    def hessian_field(self, t, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Blocks (tt, tf, ff) over fiber points or nodes, at one base point
        ``t`` or at one base point per fiber point (as in :meth:`value`).

        Shapes are (M, n, n), (M, n, d), (M, d, d).
        """
        raise NotImplementedError

    def node_jets(self, t, quad) -> tuple:
        """``(phi, d_a phi, tt)`` on the nodes of ``quad`` at one base point,
        shapes (nodes,), (n, nodes) and (nodes, n, n), read-only and
        memoized per base point on the rule: the one node path of every
        kind, which every Gram of the measures ``exp(-phi)``, ``-d_a phi
        exp(-phi)`` and ``(d_a phi dbar_b phi - tt_ab) exp(-phi)`` at ``t``
        reads."""
        t = as_complex_tuple(t)
        return quad.memoize(self, ("node_jets", t), lambda: self._node_jets(t, quad))

    def _node_jets(self, t: tuple, quad) -> tuple:
        # closed-form kinds: the evaluators on the rule's grids, and the base
        # block of the memoized full Hessian, which the L2 step reads too
        return self.node_phi(t, quad), self.grad_base(t, quad), node_hessian(self, t, quad)[0]

    def node_phi(self, t, quad) -> np.ndarray:
        """phi of :meth:`node_jets` alone, memoized per base point on the rule."""
        t = as_complex_tuple(t)
        return quad.memoize(self, ("phi", t), lambda: self.value(t, quad))

    def weight_values(self, t, quad) -> np.ndarray:
        """exp(-phi(t, .)) on the quadrature nodes, from :meth:`node_phi`,
        memoized per base point on the rule like it.

        An ``exp(-phi)`` that underflows to 0 is a weight value; one that
        overflows is not (:func:`exp_weight`).
        """
        t = as_complex_tuple(t)
        return quad.memoize(self, ("weight_values", t), lambda: exp_weight(self.node_phi(t, quad), t))

    def describe(self) -> str:
        return f"{self.kind} weight, n={self.n}, d={self.d}"


def exp_weight(phi: np.ndarray, t: tuple, out=None) -> np.ndarray:
    """``exp(-phi)`` of node values ``phi`` at the base point ``t``, written
    to ``out`` where given (``phi`` itself, in place).  A value that
    underflows to 0 is a weight value; one that overflows, or a NaN, is
    not, and raises ``ArithmeticError`` naming ``t``."""
    with np.errstate(over="ignore"):
        wv = np.exp(np.negative(phi, out=out), out=out)
    top = wv.max()
    if not top < math.inf:  # NaN fails too
        raise ArithmeticError(f"weight exp(-phi) is not finite on the quadrature "
                              f"nodes at t = {t}: its largest value is {top}")
    return wv


class QuadraticWeight(WeightFamily):
    """phi(x) = sum_jk H[j,k] x_j conj(x_k), H constant Hermitian."""

    kind = "quadratic"

    def __init__(self, base_dim: int, fiber_dim: int, H: np.ndarray, label: str = ""):
        super().__init__(base_dim, fiber_dim, label)
        H = np.asarray(H, dtype=complex)
        m = base_dim + fiber_dim
        if H.shape != (m, m):
            raise ValueError(f"H must be {(m, m)}, got {H.shape}")
        self.H = check_hermitian(H, rtol=1e-12, what="quadratic weight matrix")

    @classmethod
    def separable(cls, c: float, base_dim: int = 1, fiber_dim: int = 1) -> "QuadraticWeight":
        """phi = c |t|^2 + |xi|^2."""
        diag = [c] * base_dim + [1.0] * fiber_dim
        return cls(base_dim, fiber_dim, np.diag(diag), label=f"separable c={c}")

    @classmethod
    def cross_term(cls, lam: float, base_dim: int = 1, fiber_dim: int = 1) -> "QuadraticWeight":
        """phi = |t|^2 + |xi|^2 + 2 lam Re(t_1 conj(xi_1))."""
        m = base_dim + fiber_dim
        H = np.eye(m, dtype=complex)
        H[0, base_dim] = lam
        H[base_dim, 0] = lam
        return cls(base_dim, fiber_dim, H, label=f"cross-term lam={lam}")

    def _value_raw(self, t, xs):
        # sum_j H_jj |x_j|^2 + 2 Re sum_{j<k} H_jk x_j conj(x_k), in real
        # arithmetic, summed term by term in this order: a term broadcasts
        # only over the coordinates it reads, so on a rule's grids the terms
        # of one fiber coordinate cost n_radial * n_angular each
        parts = [(c.real, c.imag) for c in t]
        parts += [(np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)) for x in xs]
        out = 0.0
        for j, (a, b) in enumerate(parts):
            h = self.H[j, j].real
            if h:
                out = out + h * (a * a + b * b)
            for k in range(j + 1, len(parts)):
                h = self.H[j, k]
                if h:
                    c, d = parts[k]
                    out = out + 2.0 * (h.real * (a * c + b * d) - h.imag * (b * c - a * d))
        return out

    def grad_base(self, t, xi):
        # d_a phi = sum_k H[a, k] conj(x_k), summed term by term as in _value_raw
        t, xs, shape, single = _as_points(t, xi, self.n, self.d)
        conj = [np.conj(x) for x in t + xs]
        g = np.empty((self.n,) + shape, dtype=complex)
        for a in range(self.n):
            acc = 0j
            for h, x in zip(self.H[a], conj):
                if h:
                    acc = acc + h * x
            g[a] = acc
        g = g.reshape(self.n, -1)
        return g[:, 0] if single else g

    def hessian_field(self, t, xi):
        _, _, shape, _ = _as_points(t, xi, self.n, self.d)
        M, n = math.prod(shape), self.n
        tt = np.broadcast_to(self.H[:n, :n], (M, n, n))
        tf = np.broadcast_to(self.H[:n, n:], (M, n, self.d))
        ff = np.broadcast_to(self.H[n:, n:], (M, self.d, self.d))
        return tt, tf, ff

    def describe(self) -> str:
        return f"quadratic weight, n={self.n}, d={self.d}, H={self.H.tolist()}"


def _variables(n: int, d: int) -> tuple[str, ...]:
    return tuple(f"t{i+1}" for i in range(n)) + tuple(f"z{a+1}" for a in range(d))


class CustomWeight(WeightFamily):
    """Expression-tree weight; its gradient and Hessian are trees too, built
    once by :func:`exprs.wirtinger` and evaluated like the weight."""

    kind = "custom"

    def __init__(self, base_dim: int, fiber_dim: int, expr: Expr, label: str = ""):
        super().__init__(base_dim, fiber_dim, label)
        self.expr = expr
        names = _variables(base_dim, fiber_dim)
        grad = [wirtinger(expr, v) for v in names]
        self._grad = grad[:base_dim]
        base, fiber = names[:base_dim], names[base_dim:]
        block = lambda rows, cols: [[None if g is None else wirtinger(g, v, anti=True) for v in cols]
                                    for g in rows]
        # the trees of tt, tf and ff; tf^H needs none of its own
        self._hess = (block(self._grad, base), block(self._grad, fiber), block(grad[base_dim:], fiber))

    @classmethod
    def from_text(cls, base_dim: int, fiber_dim: int, text: str, label: str = "") -> "CustomWeight":
        expr = parse_expr(text, _variables(base_dim, fiber_dim))
        return cls(base_dim, fiber_dim, expr, label=label or text)

    def _evaluator(self, t, xs, shape):
        """``eval_at(tree)``: a tree on the points, raveled to shape (M,), zero
        where ``None``; the variables ``z1``, ``z2`` are bound to the
        per-coordinate input, so a subtree of one coordinate is evaluated on
        that coordinate's grid alone."""
        env = self._env(t, xs)
        zero = np.zeros(shape, dtype=complex)
        return lambda tree: (zero if tree is None else eval_expr(tree, env) + zero).reshape(-1)

    def _env(self, t, xs) -> dict:
        return dict(zip(_variables(self.n, self.d), t + xs))

    def _value_raw(self, t, xs):
        return eval_expr(self.expr, self._env(t, xs)) + 0j  # complex, like the other trees

    def grad_base(self, t, xi):
        t, xs, shape, single = _as_points(t, xi, self.n, self.d)
        eval_at = self._evaluator(t, xs, shape)
        g = np.stack([eval_at(tree) for tree in self._grad])
        return g[:, 0] if single else g

    def hessian_field(self, t, xi):
        t, xs, shape, _ = _as_points(t, xi, self.n, self.d)
        eval_at = self._evaluator(t, xs, shape)
        blocks = tuple(np.empty((math.prod(shape), len(b), len(b[0])), dtype=complex)
                       for b in self._hess)
        for B, trees in zip(blocks, self._hess):
            for i, row in enumerate(trees):
                for j, tree in enumerate(row):
                    B[:, i, j] = eval_at(tree)
        return blocks

    def describe(self) -> str:
        return f"custom weight, n={self.n}, d={self.d}, expr={to_text(self.expr)}"


class PolynomialWeight(CustomWeight):
    """A custom weight checked at construction to be a real polynomial in the
    coordinates and their conjugates."""

    kind = "polynomial"

    def __init__(self, base_dim: int, fiber_dim: int, expr: Expr, label: str = ""):
        table = expand_real_polynomial(expr, _variables(base_dim, fiber_dim))  # refuses exp/log
        if not table.is_real(tol=REALITY_TOL):
            raise NotAWeightError("polynomial weight is not conjugation-symmetric (not real)")
        super().__init__(base_dim, fiber_dim, expr, label)
        self.n_terms = len(table.terms)

    def describe(self) -> str:
        return f"polynomial weight, n={self.n}, d={self.d}, {self.n_terms} terms"


@dataclass(frozen=True)
class BasePatch:
    """Polydisc patch in the base: |t_a - center_a| <= radius."""

    center: tuple[complex, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_complex_tuple(self.center))
        if not 0 < self.radius < math.inf:
            raise ValueError(f"patch radius must be finite and positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, t, margin_frac: float = 0.0) -> bool:
        t = as_complex_tuple(t)
        if len(t) != self.dim:
            raise ValueError("point dimension does not match patch")
        lim = self.radius * (1.0 - margin_frac)
        return all(abs(c - c0) <= lim for c, c0 in zip(t, self.center))

    def sample(self, angles: int = 4) -> np.ndarray:
        """Deterministic polar sample per coordinate, cartesian across them:
        the center and ``angles`` points at 0.5 and at 1 times the radius."""
        ring = [0j] + [r * self.radius * np.exp(2j * np.pi * k / angles)
                       for r in (0.5, 1.0) for k in range(angles)]
        axes = [np.asarray(ring) + c for c in self.center]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for certification: base patch x fiber domain.  The
    base points are the patch's :meth:`BasePatch.sample`; the fiber points
    sit at 4 angles on the rings 0.25, 0.55 and 0.85 of the way out."""

    patch: BasePatch
    fiber: FiberDomain

    def base_points(self) -> np.ndarray:
        return self.patch.sample()

    def fiber_points(self) -> np.ndarray:
        axes = []
        for ro, ri in zip(self.fiber.radii, self.fiber.inner_radii):
            radii = [ri + f * (ro - ri) for f in (0.25, 0.55, 0.85)]
            ring = [r * np.exp(2j * np.pi * k / 4) for r in radii for k in range(4)]
            axes.append(np.asarray(ring))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class WeightCertificate:
    """Outcome of the grid search for the curvature hypothesis constants.

    ``eps0`` is the largest verified trace-condition constant (zero when
    the weight fails plurisubharmonicity or fiber nondegeneracy on the
    grid); ``C`` bounds the negative part of the base block; ``psh_min_eig``
    is the smallest assembled-Hessian eigenvalue seen.
    """

    eps0: float
    C: float
    psh_min_eig: float
    grid_spec: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def psh_ok(self) -> bool:
        return bool(self.diagnostics.get(
            "psh_ok", self.psh_min_eig >= -PSH_TOL * max(1.0, abs(self.psh_min_eig))))


def node_hessian(w: WeightFamily, t, quad) -> tuple:
    """Read-only Hessian blocks ``(tt, tf, ff)`` of ``w`` on the nodes of
    ``quad`` (evaluated on its grids), memoized per base point on the rule."""
    t = as_complex_tuple(t)
    return quad.memoize(w, ("hessian", t),
                        lambda: tuple(np.asarray(b) for b in w.hessian_field(t, quad)))


def joint_hessian(tt: np.ndarray, tf: np.ndarray, ff: np.ndarray) -> np.ndarray:
    """The assembled ``[[tt, tf], [tf^H, ff]]`` over stacked blocks,
    shape (..., n+d, n+d)."""
    top = np.concatenate([tt, tf], axis=-1)
    bot = np.concatenate([np.conj(np.swapaxes(tf, -1, -2)), ff], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _one_block(blocks: np.ndarray) -> bool:
    """Whether a stack of blocks is one block broadcast along the point axis."""
    return blocks.ndim == 3 and blocks.shape[0] > 1 and blocks.strides[0] == 0


def _contract(tf: np.ndarray, ff: np.ndarray, where: str) -> tuple[np.ndarray, float]:
    """:func:`fiber_contraction` in closed form over the point axis (module
    docstring); raises :class:`FiberDegenerateError` when a block is not
    positive definite by the ``FIBER_PD_RTOL`` rule."""
    a, v = ff[..., 0, 0].real, np.moveaxis(tf, -1, 0)  # v[c]: column c of tf, shape (..., n)
    sq = v.real ** 2 + v.imag ** 2
    if ff.shape[-1] == 1:
        low = high = det = a
        num = sq[0]
    else:
        b, c = ff[..., 0, 1], ff[..., 1, 1].real
        m, h = 0.5 * (a + c), np.hypot(0.5 * (a - c), np.abs(b))
        high, det = m + h, a * c - (b.real ** 2 + b.imag ** 2)
        low = np.divide(det, high, out=np.asarray(m - h), where=m > 0)  # m - h cancels where m > 0
        cross = v[0] * b[..., None] * np.conj(v[1])
        num = c[..., None] * sq[0] + a[..., None] * sq[1] - 2.0 * cross.real
    ff_min = float(low.min())
    if np.any(low <= FIBER_PD_RTOL * np.maximum(1.0, high)):
        raise FiberDegenerateError(
            f"fiber block not positive definite {where} (min eigenvalue {ff_min:.3e}); "
            "the construction requires strict plurisubharmonicity along fibers",
            min_eig=ff_min,
        )
    return num / det[..., None], ff_min


def fiber_contraction(tf, ff, where: str = "on the grid") -> tuple[np.ndarray, float]:
    """``(tf ff^{-1} tf^H)_aa`` over stacked blocks, and the least fiber eigenvalue.

    ``tf`` has shape (..., n, d) and ``ff`` (..., d, d); the contraction is
    real, nonnegative, of shape (..., n).  Both, and the positivity test
    (``where`` places a failure in the error message), are closed forms of
    the 1 x 1 or 2 x 2 blocks, vectorized over the points.  When both stacks
    are one block broadcast along the point axis, that block alone is
    evaluated and the result broadcast.
    """
    tf = np.asarray(tf, dtype=complex)
    ff = np.asarray(ff, dtype=complex)
    if _one_block(tf) and _one_block(ff):
        contraction, ff_min = _contract(tf[:1], ff[:1], where)
        return np.broadcast_to(contraction, tf.shape[:-1]), ff_min
    return _contract(tf, ff, where)


def schur_from_contraction(tt: np.ndarray, contraction: np.ndarray) -> np.ndarray:
    """Schur base trace ``Re tr tt - sum_a (tf ff^{-1} tf^H)_aa`` from the
    diagonal that :func:`fiber_contraction` returns."""
    return np.real(np.einsum("...ii->...", tt)) - contraction.sum(-1)


def certify(w: WeightFamily, grid: GridSpec) -> WeightCertificate:
    """Grid search for the trace-condition constant and companions.

    eps0 = max(0, (1/n) * min Schur trace) provided every fiber block on
    the grid is positive definite (by the ``FIBER_PD_RTOL`` rule of
    :func:`fiber_contraction`) and the assembled Hessian never dips
    below -PSH_TOL; otherwise 0, with diagnostics.  C = max(0, -min base
    block eigenvalue) always.  A weight that is not real-valued on the grid
    raises :class:`NotAWeightError`, tested per base point.  The whole
    base x fiber grid is one per-point input: one ``value`` and one
    ``hessian_field`` call, and one batched pass over the blocks (over the
    one block, where they are one block broadcast).
    """
    base_pts = grid.base_points()
    fiber_pts = grid.fiber_points()
    if w.d != fiber_pts.shape[1]:
        raise ValueError("grid fiber dimension does not match the weight")
    if w.n != base_pts.shape[1]:
        raise ValueError("grid base dimension does not match the weight")

    T = np.repeat(base_pts, len(fiber_pts), axis=0)  # base-major joint grid
    X = np.tile(fiber_pts, (len(base_pts), 1))
    w.value(T, X)  # raises NotAWeightError where phi is not real
    tt, tf, ff = w.hessian_field(T, X)
    if _one_block(tt) and _one_block(tf) and _one_block(ff):
        tt, tf, ff = tt[:1], tf[:1], ff[:1]  # the distinct block, not its copies
    psh_min = float(np.linalg.eigvalsh(joint_hessian(tt, tf, ff))[:, 0].min())
    tt_min = float(np.linalg.eigvalsh(tt)[:, 0].min())
    try:
        contraction, ff_min = fiber_contraction(tf, ff, "on the certification grid")
    except FiberDegenerateError as exc:
        ff_min, schur_min, fiber_ok = exc.min_eig, -math.inf, False
    else:
        schur_min, fiber_ok = float(schur_from_contraction(tt, contraction).min()), True

    scale = max(1.0, abs(psh_min))
    psh_ok = psh_min >= -PSH_TOL * scale
    eps0 = max(0.0, schur_min / w.n) if (psh_ok and fiber_ok) else 0.0
    return WeightCertificate(
        eps0=eps0,
        C=max(0.0, -tt_min),
        psh_min_eig=psh_min,
        grid_spec=(f"patch center {grid.patch.center}, radius {grid.patch.radius}; "
                   f"{len(base_pts)} base points x {len(fiber_pts)} fiber points"),
        diagnostics={
            "min_schur_trace": schur_min,
            "min_fiber_eig": ff_min,
            "min_base_eig": tt_min,
            "psh_ok": psh_ok,
            "fiber_pd": fiber_ok,
            "weight": w.describe(),
        },
    )


def twist_weight(w: WeightFamily, C: float) -> WeightFamily:
    """phi + C |t|^2, of the same kind: a quadratic weight adds C to the base
    block of H, an expression weight adds ``C (abs2 t_a)`` terms to its tree,
    so its derivatives stay exact."""
    if C < 0:
        raise ValueError("twist constant must be nonnegative")
    label = f"{w.label} + {C}|t|^2"
    if isinstance(w, QuadraticWeight):
        H = w.H.copy()
        H[: w.n, : w.n] += C * np.eye(w.n)
        return QuadraticWeight(w.n, w.d, H, label=label)
    if not isinstance(w, CustomWeight):
        raise TypeError(f"cannot twist a {w.kind} weight; twist the weight it is built from")
    bumps = tuple(Call("*", (Num(complex(C)), Call("abs2", (Var(f"t{a + 1}"),)))) for a in range(w.n))
    return type(w)(w.n, w.d, Call("+", (w.expr,) + bumps), label=label)
