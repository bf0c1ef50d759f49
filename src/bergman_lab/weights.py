"""Weight families phi(t, xi), their complex Hessians, and certification.

A weight is a smooth real-valued function of base coordinates ``t`` (n
complex variables) and fiber coordinates ``xi`` (d complex variables); it
defines the fiberwise norms ``int |f|^2 exp(-phi(t, .))``.  Three kinds are
supported:

* ``quadratic``  — phi(x) = sum H[j,k] x_j conj(x_k) with a constant
  Hermitian matrix H over the joint coordinates (base first, fiber second);
  all derivatives are exact.
* ``polynomial`` — a real polynomial in the coordinates and their
  conjugates, held as a sparse monomial table; derivatives are symbolic.
* ``custom``     — an arbitrary expression-tree weight; derivatives fall
  back to central complex finite differences (default step 1e-4, error
  O(step^2)).

The pointwise curvature algebra lives here too: the Schur complement of the
fiber block, its base trace (the quantity whose lower bound certifies the
trace condition), the equivalent mixed exterior-power ratio, and the
certificate search over sampling grids.  The Schur traces, pointwise and
stacked, read one kernel, :func:`fiber_contraction`, and so do the L2 step
and the iteration: over stacked blocks it returns the per-direction
diagonal ``(tf ff^{-1} tf^H)_aa`` and the least fiber-block eigenvalue, from
one batched ``eigvalsh`` (the positivity test) and one ``solve``.  A block
counts as positive definite when its least eigenvalue exceeds
``FIBER_PD_RTOL * max(1, largest)``; the single-point path, the node fields
of the L2 step and the certification grid apply this one rule.  A stack
that is one block broadcast along the point axis (stride 0, as a quadratic
weight's ``hessian_field`` returns) is evaluated on that block alone and
the result broadcast; :func:`certify` likewise stacks such a base point's
one block, not its copies.  The Schur base trace is ``Re tr tt`` minus the
sum of that diagonal, and :func:`joint_hessian` assembles ``[[tt, tf],
[tf^H, ff]]`` for every plurisubharmonicity test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exprs import Expr, PolyTable, eval_expr, expand_real_polynomial, parse_expr, to_text
from .fiber_numerics import FiberDomain
from .utils import as_complex_tuple, check_hermitian, wirtinger_gradient, wirtinger_hessian

__all__ = [
    "NotAWeightError",
    "FiberDegenerateError",
    "ComplexHessian",
    "WeightFamily",
    "QuadraticWeight",
    "PolynomialWeight",
    "CustomWeight",
    "TwistedWeight",
    "BasePatch",
    "GridSpec",
    "WeightCertificate",
    "hessian_at",
    "joint_hessian",
    "fiber_contraction",
    "schur_from_contraction",
    "schur_trace",
    "schur_trace_field",
    "ma_ratio",
    "certify",
    "twist_weight",
    "distortion_margin",
]

REALITY_TOL = 1e-12
# A fiber block is positive definite when its least eigenvalue exceeds this
# times max(1, its largest eigenvalue).
FIBER_PD_RTOL = 1e-14


class NotAWeightError(ValueError):
    """The supposed weight takes non-real values."""


class FiberDegenerateError(ArithmeticError):
    """Fiber block of the Hessian is singular; strict fiberwise psh required.

    ``min_eig`` is the least fiber-block eigenvalue that was seen.
    """

    def __init__(self, message: str, min_eig: float = math.nan):
        super().__init__(message)
        self.min_eig = min_eig


@dataclass(frozen=True)
class ComplexHessian:
    """Block decomposition of a joint complex Hessian.

    ``tt[a, b] = d^2 phi / dt_a dt_b-bar`` (n x n), ``tf[a, k] = d^2 phi /
    dt_a dxi_k-bar`` (n x d), ``ff[k, m] = d^2 phi / dxi_k dxi_m-bar``
    (d x d); the assembled (n+d) square matrix is Hermitian.
    """

    tt: np.ndarray
    tf: np.ndarray
    ff: np.ndarray

    def __post_init__(self):
        tt = np.atleast_2d(np.asarray(self.tt, dtype=complex))
        ff = np.atleast_2d(np.asarray(self.ff, dtype=complex))
        tf = np.asarray(self.tf, dtype=complex)
        if tf.ndim != 2:
            tf = tf.reshape(tt.shape[0], ff.shape[0])
        check_hermitian(tt, rtol=1e-10, what="base block")
        check_hermitian(ff, rtol=1e-10, what="fiber block")
        if tf.shape != (tt.shape[0], ff.shape[0]):
            raise ValueError(
                f"mixed block shape {tf.shape} incompatible with {tt.shape} / {ff.shape}"
            )
        object.__setattr__(self, "tt", tt)
        object.__setattr__(self, "tf", tf)
        object.__setattr__(self, "ff", ff)

    @property
    def n(self) -> int:
        return self.tt.shape[0]

    @property
    def d(self) -> int:
        return self.ff.shape[0]

    @property
    def assembled(self) -> np.ndarray:
        return joint_hessian(self.tt, self.tf, self.ff)


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

    # subclasses implement the raw (possibly complex) evaluator
    def _value_raw(self, t: tuple[complex, ...], xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, t, xi) -> np.ndarray:
        """phi(t, xi) for fixed t, vectorized over fiber points; checked real."""
        t = as_complex_tuple(t)
        if len(t) != self.n:
            raise ValueError(f"base point has {len(t)} coordinates, expected {self.n}")
        pts, single = _as_fiber_array(xi, self.d)
        raw = np.asarray(self._value_raw(t, pts))
        if np.iscomplexobj(raw):
            scale = max(1.0, float(np.abs(raw).max(initial=0.0)))
            worst = float(np.abs(raw.imag).max(initial=0.0))
            if worst > REALITY_TOL * scale:
                raise NotAWeightError(
                    f"weight {self.label!r} is not real-valued: max |Im| = {worst:.3e}"
                )
            raw = raw.real
        out = np.asarray(raw, dtype=float)
        return float(out[0]) if single else out

    def grad_base(self, t, xi) -> np.ndarray:
        """d phi / dt_a for a = 1..n, shape (n,) or (n, M). FD fallback."""
        t = as_complex_tuple(t)
        pts, single = _as_fiber_array(xi, self.d)

        def eval_at(off):
            ts = tuple(c + o for c, o in zip(t, off[: self.n]))
            return self._value_raw(ts, pts + off[self.n :][None, :])

        grads = wirtinger_gradient(eval_at, self.n + self.d, self.fd_step)[: self.n]
        out = np.stack([np.asarray(g).reshape(-1) for g in grads])
        return out[:, 0] if single else out

    def hessian_field(self, t, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Blocks (tt, tf, ff) at fixed t over fiber points.

        Shapes are (M, n, n), (M, n, d), (M, d, d).  FD fallback; analytic
        kinds override.
        """
        t = as_complex_tuple(t)
        pts, _ = _as_fiber_array(xi, self.d)

        def eval_at(off):
            ts = tuple(c + o for c, o in zip(t, off[: self.n]))
            return self._value_raw(ts, pts + off[self.n :][None, :])

        H = wirtinger_hessian(eval_at, self.n + self.d, self.fd_step)
        n = self.n
        return H[..., :n, :n], H[..., :n, n:], H[..., n:, n:]

    def base_hessian(self, t, xi) -> np.ndarray:
        """The base block tt of :meth:`hessian_field`, shape (M, n, n).

        Weights that can give this block alone more cheaply override it.
        """
        return self.hessian_field(t, xi)[0]

    fd_step = 1e-4

    def weight_values(self, t, quad) -> np.ndarray:
        """exp(-phi(t, .)) on the quadrature nodes."""
        return np.exp(-self.value(t, quad.nodes))

    def describe(self) -> str:
        return f"{self.kind} weight, n={self.n}, d={self.d}"


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

    def _joint(self, t, pts) -> np.ndarray:
        tcol = np.broadcast_to(np.asarray(t, dtype=complex), (pts.shape[0], self.n))
        return np.hstack([tcol, pts])

    def _value_raw(self, t, pts):
        # sum_j H_jj |x_j|^2 + 2 Re sum_{j<k} H_jk x_j conj(x_k), in real
        # arithmetic; the base coordinates enter as scalars.
        xs = [(c.real, c.imag) for c in t] + [(pts[:, a].real, pts[:, a].imag) for a in range(self.d)]
        out = np.zeros(pts.shape[0])
        for j, (a, b) in enumerate(xs):
            h = self.H[j, j].real
            if h:
                out = out + h * (a * a + b * b)
            for k in range(j + 1, len(xs)):
                h = self.H[j, k]
                if h:
                    c, d = xs[k]
                    out = out + 2.0 * (h.real * (a * c + b * d) - h.imag * (b * c - a * d))
        return out

    def grad_base(self, t, xi):
        t = as_complex_tuple(t)
        pts, single = _as_fiber_array(xi, self.d)
        X = self._joint(t, pts)
        g = self.H[: self.n] @ np.conj(X).T
        return g[:, 0] if single else g

    def hessian_field(self, t, xi):
        pts, _ = _as_fiber_array(xi, self.d)
        M, n = pts.shape[0], self.n
        tt = np.broadcast_to(self.H[:n, :n], (M, n, n))
        tf = np.broadcast_to(self.H[:n, n:], (M, n, self.d))
        ff = np.broadcast_to(self.H[n:, n:], (M, self.d, self.d))
        return tt, tf, ff

    def describe(self) -> str:
        return f"quadratic weight, n={self.n}, d={self.d}, H={self.H.tolist()}"


class PolynomialWeight(WeightFamily):
    """Real polynomial in the coordinates and conjugates; symbolic derivatives."""

    kind = "polynomial"

    def __init__(self, base_dim: int, fiber_dim: int, table: PolyTable, label: str = ""):
        super().__init__(base_dim, fiber_dim, label)
        if table.nvars != base_dim + fiber_dim:
            raise ValueError(
                f"table has {table.nvars} variables, expected {base_dim + fiber_dim}"
            )
        if not table.is_real(tol=REALITY_TOL):
            raise NotAWeightError("polynomial weight is not conjugation-symmetric (not real)")
        self.table = table
        self._grad = [table.wirtinger(i) for i in range(table.nvars)]
        self._hess = [
            [self._grad[i].wirtinger(j, anti=True) for j in range(table.nvars)]
            for i in range(table.nvars)
        ]

    @classmethod
    def from_text(cls, base_dim: int, fiber_dim: int, text: str, label: str = "") -> "PolynomialWeight":
        variables = tuple(f"t{i+1}" for i in range(base_dim)) + tuple(
            f"z{a+1}" for a in range(fiber_dim)
        )
        table = expand_real_polynomial(parse_expr(text, variables), variables)
        return cls(base_dim, fiber_dim, table, label=label or text)

    def _coords(self, t, pts) -> list:
        return list(t) + [pts[:, a] for a in range(self.d)]

    def _value_raw(self, t, pts):
        return self.table(self._coords(t, pts)) + np.zeros(pts.shape[0], dtype=complex)

    def grad_base(self, t, xi):
        t = as_complex_tuple(t)
        pts, single = _as_fiber_array(xi, self.d)
        coords = self._coords(t, pts)
        g = np.stack(
            [np.asarray(self._grad[a](coords)) + np.zeros(pts.shape[0], complex) for a in range(self.n)]
        )
        return g[:, 0] if single else g

    def hessian_field(self, t, xi):
        t = as_complex_tuple(t)
        pts, _ = _as_fiber_array(xi, self.d)
        coords = self._coords(t, pts)
        m = self.n + self.d
        H = np.zeros((pts.shape[0], m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                H[:, i, j] = self._hess[i][j](coords)
        n = self.n
        return H[:, :n, :n], H[:, :n, n:], H[:, n:, n:]

    def describe(self) -> str:
        return f"polynomial weight, n={self.n}, d={self.d}, {len(self.table.terms)} terms"


class CustomWeight(WeightFamily):
    """Expression-tree weight; all derivatives via finite differences."""

    kind = "custom"

    def __init__(self, base_dim: int, fiber_dim: int, expr: Expr, label: str = "", fd_step: float = 1e-4):
        super().__init__(base_dim, fiber_dim, label)
        self.expr = expr
        self.fd_step = float(fd_step)
        self.variables = tuple(f"t{i+1}" for i in range(base_dim)) + tuple(
            f"z{a+1}" for a in range(fiber_dim)
        )

    @classmethod
    def from_text(cls, base_dim: int, fiber_dim: int, text: str, label: str = "", fd_step: float = 1e-4) -> "CustomWeight":
        variables = tuple(f"t{i+1}" for i in range(base_dim)) + tuple(
            f"z{a+1}" for a in range(fiber_dim)
        )
        return cls(base_dim, fiber_dim, parse_expr(text, variables), label=label or text, fd_step=fd_step)

    def _value_raw(self, t, pts):
        env = {f"t{i+1}": t[i] for i in range(self.n)}
        env.update({f"z{a+1}": pts[:, a] for a in range(self.d)})
        return eval_expr(self.expr, env) + np.zeros(pts.shape[0], dtype=complex)

    def describe(self) -> str:
        return f"custom weight, n={self.n}, d={self.d}, expr={to_text(self.expr)}"


class TwistedWeight(WeightFamily):
    """phi + C |t|^2, delegating to the underlying family."""

    kind = "twisted"

    def __init__(self, base: WeightFamily, C: float):
        if C < 0:
            raise ValueError("twist constant must be nonnegative")
        super().__init__(base.n, base.d, label=f"{base.label} + {C}|t|^2")
        self.base = base
        self.C = float(C)
        self.fd_step = base.fd_step

    def _value_raw(self, t, pts):
        bump = self.C * sum(abs(c) ** 2 for c in t)
        return self.base._value_raw(t, pts) + bump

    def grad_base(self, t, xi):
        t = as_complex_tuple(t)
        g = self.base.grad_base(t, xi)
        shift = self.C * np.conj(np.asarray(t))
        return g + (shift[:, None] if g.ndim == 2 else shift)

    def hessian_field(self, t, xi):
        tt, tf, ff = self.base.hessian_field(t, xi)
        tt = tt + self.C * np.eye(self.n)[None, :, :]
        return tt, tf, ff

    def describe(self) -> str:
        return f"{self.base.describe()} twisted by {self.C}|t|^2"


@dataclass(frozen=True)
class BasePatch:
    """Polydisc patch in the base: |t_a - center_a| <= radius."""

    center: tuple[complex, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_complex_tuple(self.center))
        if self.radius <= 0:
            raise ValueError("patch radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, t, margin_frac: float = 0.0) -> bool:
        t = as_complex_tuple(t)
        if len(t) != self.dim:
            raise ValueError("point dimension does not match patch")
        lim = self.radius * (1.0 - margin_frac)
        return all(abs(c - c0) <= lim for c, c0 in zip(t, self.center))

    def sample(self, radii=(0.0, 0.5, 1.0), angles: int = 4) -> np.ndarray:
        """Deterministic polar sample per coordinate, cartesian across them."""
        ring = [0j] if 0.0 in radii else []
        ring += [
            r * self.radius * np.exp(2j * np.pi * k / angles)
            for r in radii
            if r > 0.0
            for k in range(angles)
        ]
        axes = [np.asarray(ring) + c for c in self.center]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for certification: base patch x fiber domain."""

    patch: BasePatch
    fiber: FiberDomain
    base_radii: tuple[float, ...] = (0.0, 0.5, 1.0)
    base_angles: int = 4
    fiber_radii: tuple[float, ...] = (0.25, 0.55, 0.85)
    fiber_angles: int = 4

    def base_points(self) -> np.ndarray:
        return self.patch.sample(self.base_radii, self.base_angles)

    def fiber_points(self) -> np.ndarray:
        axes = []
        for ro, ri in zip(self.fiber.radii, self.fiber.inner_radii):
            radii = [ri + f * (ro - ri) for f in self.fiber_radii]
            ring = [
                r * np.exp(2j * np.pi * k / self.fiber_angles)
                for r in radii
                for k in range(self.fiber_angles)
            ]
            axes.append(np.asarray(ring))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def describe(self) -> str:
        nb, nf = len(self.base_points()), len(self.fiber_points())
        return (
            f"patch center {self.patch.center}, radius {self.patch.radius}; "
            f"{nb} base points x {nf} fiber points"
        )


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
        return bool(self.diagnostics.get("psh_ok", self.psh_min_eig >= -1e-8))


def hessian_at(w: WeightFamily, t, xi) -> ComplexHessian:
    """Complex Hessian blocks of the weight at a single point."""
    t = as_complex_tuple(t)
    pts, single = _as_fiber_array(xi, w.d)
    if not single and pts.shape[0] != 1:
        raise ValueError("hessian_at expects a single fiber point")
    w.value(t, pts)  # reality check at the point
    tt, tf, ff = w.hessian_field(t, pts)
    return ComplexHessian(tt[0], tf[0], ff[0])


def joint_hessian(tt: np.ndarray, tf: np.ndarray, ff: np.ndarray) -> np.ndarray:
    """The assembled ``[[tt, tf], [tf^H, ff]]`` over stacked blocks,
    shape (..., n+d, n+d)."""
    top = np.concatenate([tt, tf], axis=-1)
    bot = np.concatenate([np.conj(np.swapaxes(tf, -1, -2)), ff], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _fiber_min_eig(ff: np.ndarray, where: str) -> float:
    """Least eigenvalue of the stacked fiber blocks, from one batched
    ``eigvalsh``; raises :class:`FiberDegenerateError` when a block is not
    positive definite by the ``FIBER_PD_RTOL`` rule."""
    eigs = np.linalg.eigvalsh(ff)
    low = eigs[..., 0]
    ff_min = float(low.min())
    if np.any(low <= FIBER_PD_RTOL * np.maximum(1.0, eigs[..., -1])):
        raise FiberDegenerateError(
            f"fiber block not positive definite {where} (min eigenvalue {ff_min:.3e}); "
            "the construction requires strict plurisubharmonicity along fibers",
            min_eig=ff_min,
        )
    return ff_min


def _one_block(blocks: np.ndarray) -> bool:
    """Whether a stack of blocks is one block broadcast along the point axis."""
    return blocks.ndim == 3 and blocks.shape[0] > 1 and blocks.strides[0] == 0


def _contract(tf: np.ndarray, ff: np.ndarray, where: str) -> tuple[np.ndarray, float]:
    ff_min = _fiber_min_eig(ff, where)
    X = np.linalg.solve(ff, np.conj(np.swapaxes(tf, -1, -2)))  # ff^{-1} tf^H
    return np.real(np.einsum("...ad,...da->...a", tf, X)), ff_min


def fiber_contraction(tf, ff, where: str = "on the grid") -> tuple[np.ndarray, float]:
    """``(tf ff^{-1} tf^H)_aa`` over stacked blocks, and the least fiber eigenvalue.

    ``tf`` has shape (..., n, d) and ``ff`` (..., d, d); the contraction is
    real, nonnegative, of shape (..., n).  One batched ``eigvalsh`` tests
    positivity (``where`` places a failure in the error message) and one
    ``solve`` forms ``ff^{-1} tf^H``.  When both stacks are one block
    broadcast along the point axis, that block alone is evaluated and the
    result broadcast.
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


def schur_trace(h: ComplexHessian) -> float:
    """Base trace of the Schur complement of the fiber block.

    sum_a [ tt[a,a] - (tf ff^{-1} tf^H)[a,a] ]; requires ff positive
    definite.
    """
    return float(schur_trace_field(h.tt, h.tf, h.ff, where="at the point"))


def schur_trace_field(tt, tf, ff, where: str = "on the grid") -> np.ndarray:
    """Vectorized Schur-complement base trace over stacked Hessian blocks."""
    return schur_from_contraction(np.asarray(tt), fiber_contraction(tf, ff, where)[0])


def _sorted_sign(seq: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, tracking the permutation sign; 0 on repeats."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return tuple(items), 0
    return tuple(items), sign


def _wedge(f1: dict, f2: dict) -> dict:
    """Wedge product of forms stored as {(holo idx, anti idx): coeff}."""
    out: dict = {}
    for (I1, J1), c1 in f1.items():
        for (I2, J2), c2 in f2.items():
            I, sI = _sorted_sign(I1 + I2)
            if sI == 0:
                continue
            J, sJ = _sorted_sign(J1 + J2)
            if sJ == 0:
                continue
            # moving the |J1| anti factors past the |I2| holo factors
            koszul = -1 if (len(J1) * len(I2)) % 2 else 1
            key = (I, J)
            out[key] = out.get(key, 0j) + c1 * c2 * sI * sJ * koszul
    return {k: v for k, v in out.items() if v != 0}


def _one_one(H: np.ndarray) -> dict:
    m = H.shape[0]
    return {((i,), (j,)): complex(H[i, j]) for i in range(m) for j in range(m) if H[i, j] != 0}


def _wedge_power(f: dict, k: int) -> dict:
    out: dict = {((), ()): 1.0 + 0j}
    for _ in range(k):
        out = _wedge(out, f)
    return out


def ma_ratio(h: ComplexHessian, n: int, d: int) -> float:
    """Mixed exterior-power ratio of the Hessian form against the flat base form.

    Computes (n/(d+1)) * [w^(d+1) ^ p^(n-1)] / [w^d ^ p^n] on top-degree
    coefficients, where w is the (1,1)-form with coefficient matrix h and p
    the flat base form.  Agrees with :func:`schur_trace` identically; kept
    as an independent cross-check since the two derivations share nothing.
    """
    if h.n != n or h.d != d:
        raise ValueError("Hessian block shapes disagree with (n, d)")
    _fiber_min_eig(h.ff, "at the point")
    base = np.zeros((n + d, n + d))
    for a in range(n):
        base[a, a] = 1.0
    w_form = _one_one(h.assembled)
    p_form = _one_one(base)
    top = (tuple(range(n + d)), tuple(range(n + d)))
    num = _wedge(_wedge_power(w_form, d + 1), _wedge_power(p_form, n - 1)).get(top, 0j)
    den = _wedge(_wedge_power(w_form, d), _wedge_power(p_form, n)).get(top, 0j)
    if den == 0:
        raise FiberDegenerateError("denominator form vanished; fiber block degenerate")
    return float(np.real(n / (d + 1) * num / den))


def certify(
    w: WeightFamily,
    grid: GridSpec,
    psh_tol: float = 1e-8,
) -> WeightCertificate:
    """Grid search for the trace-condition constant and companions.

    eps0 = max(0, (1/n) * min Schur trace) provided every fiber block on
    the grid is positive definite (by the ``FIBER_PD_RTOL`` rule of
    :func:`fiber_contraction`) and the assembled Hessian never dips
    below -psh_tol; otherwise 0, with diagnostics.  C = max(0, -min base
    block eigenvalue) always.  A weight that is not real-valued on the grid
    raises :class:`NotAWeightError`.  The distinct Hessian blocks of the
    whole grid (one per base point where the blocks are one broadcast
    block) are stacked into one batched pass.
    """
    base_pts = grid.base_points()
    fiber_pts = grid.fiber_points()
    if w.d != fiber_pts.shape[1]:
        raise ValueError("grid fiber dimension does not match the weight")
    if w.n != base_pts.shape[1]:
        raise ValueError("grid base dimension does not match the weight")

    blocks = []
    for t in base_pts:
        t = tuple(t)
        w.value(t, fiber_pts)  # raises NotAWeightError where phi is not real
        tt, tf, ff = w.hessian_field(t, fiber_pts)
        if _one_block(tt) and _one_block(tf) and _one_block(ff):
            tt, tf, ff = tt[:1], tf[:1], ff[:1]  # the distinct block, not its copies
        blocks.append((tt, tf, ff))
    tt, tf, ff = (np.concatenate(parts) for parts in zip(*blocks))
    psh_min = float(np.linalg.eigvalsh(joint_hessian(tt, tf, ff))[:, 0].min())
    tt_min = float(np.linalg.eigvalsh(tt)[:, 0].min())
    try:
        contraction, ff_min = fiber_contraction(tf, ff, "on the certification grid")
    except FiberDegenerateError as exc:
        ff_min, schur_min, fiber_ok = exc.min_eig, -math.inf, False
    else:
        schur_min, fiber_ok = float(schur_from_contraction(tt, contraction).min()), True

    scale = max(1.0, abs(psh_min))
    psh_ok = psh_min >= -psh_tol * scale
    eps0 = max(0.0, schur_min / w.n) if (psh_ok and fiber_ok) else 0.0
    return WeightCertificate(
        eps0=eps0,
        C=max(0.0, -tt_min),
        psh_min_eig=psh_min,
        grid_spec=grid.describe(),
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
    """phi + C |t|^2; exact for every kind (quadratic stays quadratic)."""
    if C < 0:
        raise ValueError("twist constant must be nonnegative")
    if isinstance(w, QuadraticWeight):
        H = w.H.copy()
        H[: w.n, : w.n] += C * np.eye(w.n)
        return QuadraticWeight(w.n, w.d, H, label=f"{w.label} + {C}|t|^2")
    return TwistedWeight(w, C)


def distortion_margin(n: int, delta: float, eps0: float) -> float:
    """Trace-constant attenuation under a metric of bounded distortion.

    For a base metric within relative distance delta of the flat one on a
    small ball, a verified constant eps0 propagates as
    eps0 * (1 - delta)^(2n-2) / (1 + delta)^(2n).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    return eps0 * (1.0 - delta) ** (2 * n - 2) / (1.0 + delta) ** (2 * n)
