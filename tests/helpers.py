"""Helpers that only the tests use: a node-sum inner product, the gradient
tilt of a scalar field, the mixed trace constant, a CSV field dump, the
Hormander fields of one direction, the FD Hessian spectrum, the
Bergman-kernel potential of a weight and a quadratic weight whose Hessian
blocks are materialized copies."""

import io
import math

import numpy as np

from bergman_lab.curvature import fd_hessian
from bergman_lab.fiber_numerics import QuadratureRule
from bergman_lab.hormander import build_hormander_data
from bergman_lab.iteration import LogKernelField
from bergman_lab.utils import as_complex_tuple, wirtinger_gradient
from bergman_lab.weights import QuadraticWeight


def _values_on_nodes(f, quad: QuadratureRule) -> np.ndarray:
    if callable(f):
        arg = quad.points if quad.domain.dim == 1 else quad.nodes
        f = f(arg)
    vals = np.asarray(f, dtype=complex)
    if vals.shape == ():
        vals = np.full(quad.size, complex(vals))
    if vals.shape != (quad.size,):
        raise ValueError(f"expected {quad.size} node values, got shape {vals.shape}")
    return vals


def weighted_inner_product(f, g, weight_values, quad: QuadratureRule) -> complex:
    """Discrete ``integral of f * conj(g) * exp(-phi)``.

    ``f`` and ``g`` may be callables on the nodes or arrays of node values;
    ``weight_values`` are the values ``exp(-phi)`` at the nodes (must be
    positive and finite).
    """
    fv = _values_on_nodes(f, quad)
    gv = _values_on_nodes(g, quad)
    wv = np.asarray(weight_values, dtype=float)
    if wv.shape != (quad.size,):
        raise ValueError(f"expected {quad.size} weight values, got shape {wv.shape}")
    if not np.all(np.isfinite(wv)) or np.any(wv <= 0):
        raise ValueError("weight values must be finite and positive")
    return complex(np.sum(fv * np.conj(gv) * wv * quad.weights))


def tilt_field(field_fn, st):
    """Multiply by the pluriharmonic exponential that flattens the gradient.

    With B0 = field(t0) > 0 and alpha_i = -(2/B0) * dfield/dt_i(t0), the
    returned field  t -> exp(Re sum_i alpha_i (t_i - t0_i)) * field(t)
    has, at t0, Hessian trace equal to B0 times the trace of the Hessian of
    log field — the reduction that turns the logarithmic inequality into a
    linear one.  ``st`` is a ``curvature.Stencil``.  Returns (tilted
    callable, alpha tuple).
    """
    t0 = np.asarray(st.center)
    B0 = float(field_fn(tuple(t0)))
    if B0 <= 0:
        raise ValueError(f"field must be positive at the stencil center, got {B0}")

    def eval_at(off):
        return field_fn(tuple(t0 + off))

    grad = wirtinger_gradient(eval_at, st.n, st.h)
    alpha = tuple(complex(-2.0 * g / B0) for g in grad)

    def tilted(t):
        t = np.asarray(as_complex_tuple(t))
        phase = np.real(np.sum(np.asarray(alpha) * (t - t0)))
        return math.exp(phase) * field_fn(tuple(t))

    return tilted, alpha


def mixed_bound(eps_B: float, eps_L: float, m: int) -> float:
    """Certified trace constant of the mix from those of its parts."""
    return (1.0 - 1.0 / m) * eps_B + (1.0 / m) * eps_L


def sample_field_csv(fld, t, quad, max_rows: int = 4096) -> str:
    """CSV dump of a weight field over the quadrature nodes at fixed t."""
    t = as_complex_tuple(t)
    vals = fld.value(t, quad.nodes)
    buf = io.StringIO()
    cols = [f"xi{c + 1} {p}" for c in range(quad.nodes.shape[1]) for p in ("re", "im")]
    buf.write(",".join(cols + ["value"]) + "\n")
    stride = max(1, quad.size // max_rows)
    for i in range(0, quad.size, stride):
        parts = []
        for c in range(quad.nodes.shape[1]):
            parts += [f"{quad.nodes[i, c].real:.12g}", f"{quad.nodes[i, c].imag:.12g}"]
        parts.append(f"{vals[i]:.12g}")
        buf.write(",".join(parts) + "\n")
    return buf.getvalue()


def gamma_field(w, fam, t0, N: int, quad: QuadratureRule) -> np.ndarray:
    """Gamma on the quadrature nodes (holomorphic: a kernel combination)."""
    return build_hormander_data(w, fam, t0, N, quad, directions=()).gamma


def lambda_field(w, fam, t0, alpha: int, N: int, quad: QuadratureRule,
                 include_weight_term: bool = True) -> np.ndarray:
    """Lambda_alpha on the nodes; include_weight_term=False gives the
    negative control (plain d/dt without the weight twist)."""
    data = build_hormander_data(
        w, fam, t0, N, quad, directions=(alpha,), include_weight_term=include_weight_term
    )
    return data.lambdas[0]


def psh_spectrum(field_fn, st) -> float:
    """Minimum eigenvalue of the FD complex Hessian of the field."""
    H = fd_hessian(field_fn, st)
    return float(np.linalg.eigvalsh(H)[0])


def bergman_weight(w, N: int, quad, patch=None, convergence_tol: float = 1e-6) -> LogKernelField:
    """The fiberwise Bergman-kernel potential -log K_t(xi, xi) of a weight.

    Plurisubharmonicity of +log K is the positivity statement; the
    returned field carries the opposite (metric-side) sign, so its
    base-base curvature block is the negative of the log-kernel one.
    When a patch is given the field is pre-evaluated on the patch sample
    points, filling the basis memo and the convergence diagnostics.
    """
    fld = LogKernelField(w, N, quad, sign=-1, convergence_tol=convergence_tol)
    if patch is not None:
        probe = np.atleast_2d(np.full(w.d, 0.0, dtype=complex))
        for t in patch.sample():
            fld._value_raw(tuple(t), probe)
    return fld


class MaterializedQuadratic(QuadraticWeight):
    """A quadratic weight whose Hessian blocks are contiguous copies rather
    than the broadcast views of :class:`QuadraticWeight`."""

    def hessian_field(self, t, xi):
        return tuple(np.ascontiguousarray(b) for b in super().hessian_field(t, xi))


def as_materialized(w: QuadraticWeight) -> MaterializedQuadratic:
    return MaterializedQuadratic(w.n, w.d, w.H, label=w.label)
