"""Helpers that only the tests use: a node-sum inner product, the gradient
tilt of a scalar field, the mixed trace constant and a CSV field dump."""

import io
import math

import numpy as np

from bergman_lab.fiber_numerics import QuadratureRule
from bergman_lab.utils import as_complex_tuple, wirtinger_gradient


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
