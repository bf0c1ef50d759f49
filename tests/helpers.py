"""Helpers that only the tests use: a node-sum inner product, the section
functional and its log as fields of t, the gradient tilt of a scalar field,
the mixed trace constant, a CSV field dump, the Hormander fields of one
direction, the FD Hessian spectrum, the base gradient of a log-kernel
field from its inverse-Gram jets, a quadratic weight whose Hessian blocks
are materialized copies, a weight evaluated one base point at a time, the
Hessian blocks and Schur trace at one point, the mixed exterior-power ratio
that cross-checks the Schur trace, and a rule's nodes as an ``(M, d)``
point list."""

import io
import math

import numpy as np

from bergman_lab.bergman import section_value
from bergman_lab.curvature import fd_hessian
from bergman_lab.fiber_numerics import QuadratureRule, vandermonde
from bergman_lab.hormander import build_hormander_data
from bergman_lab.iteration import LogKernelField
from bergman_lab.utils import as_complex_tuple
from bergman_lab.weights import FiberDegenerateError, QuadraticWeight, WeightFamily, \
    fiber_contraction, joint_hessian, schur_trace_field


def node_list(quad: QuadratureRule) -> np.ndarray:
    """The nodes of ``quad`` as an ``(M, d)`` point list in node order, built
    from the per-coordinate grids by ``np.repeat`` / ``np.tile`` (the
    reference construction of the node order)."""
    flat = [g.reshape(-1) for g in quad.grids]
    if len(flat) == 1:
        return flat[0][:, None]
    a, b = flat
    return np.stack([np.repeat(a, b.size), np.tile(b, a.size)], axis=1)


def _values_on_nodes(f, quad: QuadratureRule) -> np.ndarray:
    if callable(f):
        nodes = node_list(quad)
        f = f(nodes[:, 0] if quad.domain.dim == 1 else nodes)
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
    if not np.all(np.isfinite(wv)) or np.any(wv < 0):
        raise ValueError("weight values must be finite and nonnegative")
    return complex(np.sum(fv * np.conj(gv) * wv * quad.weights))


def section_field(w, fam, N: int, quad):
    """t -> B_t<a,a> as a plain callable."""
    return lambda t: section_value(w, fam, t, N, quad)


def log_section_field(w, fam, N: int, quad):
    """t -> log B_t<a,a>."""
    return lambda t: math.log(section_value(w, fam, t, N, quad))


def tilt_field(field_fn, st):
    """Multiply by the pluriharmonic exponential that flattens the gradient.

    With B0 = field(t0) > 0 and alpha_i = -(2/B0) * dfield/dt_i(t0), the
    returned field  t -> exp(Re sum_i alpha_i (t_i - t0_i)) * field(t)
    has, at t0, Hessian trace equal to B0 times the trace of the Hessian of
    log field — the reduction that turns the logarithmic inequality into a
    linear one.  ``st`` is a ``curvature.Stencil``; the gradient is the
    central difference d/dt = ((f(+h) - f(-h)) - i (f(+ih) - f(-ih))) / (4h)
    per coordinate.  Returns (tilted callable, alpha tuple).
    """
    t0 = np.asarray(st.center)
    B0 = float(field_fn(tuple(t0)))
    if B0 <= 0:
        raise ValueError(f"field must be positive at the stencil center, got {B0}")

    def grad(e):
        taus = st.h * np.array([1, -1, 1j, -1j])
        fp, fm, fip, fim = (field_fn(tuple(t0 + tau * e)) for tau in taus)
        return (fp - fm - 1j * (fip - fim)) / (4.0 * st.h)

    alpha = tuple(complex(-2.0 * grad(e) / B0) for e in np.eye(st.n))

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
    nodes = node_list(quad)
    vals = fld.value(t, quad)
    buf = io.StringIO()
    cols = [f"xi{c + 1} {p}" for c in range(nodes.shape[1]) for p in ("re", "im")]
    buf.write(",".join(cols + ["value"]) + "\n")
    stride = max(1, quad.size // max_rows)
    for i in range(0, quad.size, stride):
        parts = []
        for c in range(nodes.shape[1]):
            parts += [f"{nodes[i, c].real:.12g}", f"{nodes[i, c].imag:.12g}"]
        parts.append(f"{vals[i]:.12g}")
        buf.write(",".join(parts) + "\n")
    return buf.getvalue()


def gamma_field(w, fam, t0, N: int, quad: QuadratureRule) -> np.ndarray:
    """Gamma on the quadrature nodes (holomorphic: a kernel combination)."""
    return build_hormander_data(w, fam, t0, N, quad).gamma


def lambda_field(w, fam, t0, alpha: int, N: int, quad: QuadratureRule,
                 include_weight_term: bool = True) -> np.ndarray:
    """Lambda_alpha on the nodes; include_weight_term=False gives the
    negative control (plain d/dt without the weight twist)."""
    data = build_hormander_data(w, fam, t0, N, quad, include_weight_term=include_weight_term)
    return data.lambdas[alpha]


def psh_spectrum(field_fn, st) -> float:
    """Minimum eigenvalue of the FD complex Hessian of the field."""
    H = fd_hessian(field_fn, st)
    return float(np.linalg.eigvalsh(H)[0])


def log_kernel_grad_base(fld: LogKernelField, t, pts) -> np.ndarray:
    """``d_a log K_t(xi, xi) = d_aK / K`` at the fiber points ``pts`` (M, d),
    shape (n, M): ``K = M(xi)^T P conj(M(xi))`` and ``d_aK`` the same form
    of ``d_aP``, from the field's inverse-Gram jets and the monomial values."""
    P, dP, _ddP = fld.gram_jets(t)
    M = vandermonde(fld.basis, np.asarray(pts, dtype=complex))
    K = np.sum((M @ P) * M.conj(), axis=-1).real
    Kt = np.sum((M @ dP) * M.conj(), axis=-1)  # (n, M)
    return Kt / K


def point_blocks(w: WeightFamily, t, xi) -> tuple:
    """Hessian blocks (tt, tf, ff) of ``w`` at one point (t, xi), each 2-D:
    the first entry of ``hessian_field`` over one fiber point."""
    pts = np.atleast_1d(np.asarray(xi, dtype=complex))[None]
    tt, tf, ff = w.hessian_field(as_complex_tuple(t), pts)
    return tt[0], tf[0], ff[0]


def schur_at(tt, tf, ff) -> float:
    """Schur base trace of one Hessian, through the stacked path."""
    return float(schur_trace_field(*(np.asarray(b, dtype=complex)[None] for b in (tt, tf, ff)))[0])


class MaterializedQuadratic(QuadraticWeight):
    """A quadratic weight whose Hessian blocks are contiguous copies rather
    than the broadcast views of :class:`QuadraticWeight`."""

    def hessian_field(self, t, xi):
        return tuple(np.ascontiguousarray(b) for b in super().hessian_field(t, xi))


def as_materialized(w: QuadraticWeight) -> MaterializedQuadratic:
    return MaterializedQuadratic(w.n, w.d, w.H, label=w.label)


class PerBasePoint(WeightFamily):
    """A weight evaluated one base point at a time: the reference for the
    joint grid of ``certify``.

    A per-point input in base-major order (``nf`` fiber points per base
    point) makes one ``value`` and one ``hessian_field`` call of the wrapped
    weight per base point, and the blocks are concatenated in that order --
    the loop ``certify`` ran before it evaluated its grid in one call.
    """

    def __init__(self, w: WeightFamily, nf: int):
        super().__init__(w.n, w.d, w.label)
        self.w, self.nf = w, nf

    def _rows(self, T, X):
        T, X = np.asarray(T), np.asarray(X)
        return [(tuple(T[s]), X[s : s + self.nf]) for s in range(0, len(T), self.nf)]

    def value(self, T, X):
        return np.concatenate([self.w.value(t, x) for t, x in self._rows(T, X)])

    def hessian_field(self, T, X):
        blocks = [self.w.hessian_field(t, x) for t, x in self._rows(T, X)]
        return tuple(np.concatenate(b) for b in zip(*blocks))

    def describe(self) -> str:
        return self.w.describe()


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


def ma_ratio(tt, tf, ff) -> float:
    """Mixed exterior-power ratio of the Hessian form against the flat base form.

    Computes (n/(d+1)) * [w^(d+1) ^ p^(n-1)] / [w^d ^ p^n] on top-degree
    coefficients, where w is the (1,1)-form with coefficient matrix
    ``[[tt, tf], [tf^H, ff]]`` (n = len(tt), d = len(ff)) and p the flat base
    form.  Agrees with ``weights.schur_trace_field`` identically: an
    independent oracle, since the two derivations share nothing.
    """
    tt, tf, ff = (np.asarray(b, dtype=complex) for b in (tt, tf, ff))
    n, d = tt.shape[0], ff.shape[0]
    fiber_contraction(tf, ff, "at the point")  # raises on a degenerate fiber block
    base = np.zeros((n + d, n + d))
    for a in range(n):
        base[a, a] = 1.0
    w_form = _one_one(joint_hessian(tt, tf, ff))
    p_form = _one_one(base)
    top = (tuple(range(n + d)), tuple(range(n + d)))
    num = _wedge(_wedge_power(w_form, d + 1), _wedge_power(p_form, n - 1)).get(top, 0j)
    den = _wedge(_wedge_power(w_form, d), _wedge_power(p_form, n)).get(top, 0j)
    if den == 0:
        raise FiberDegenerateError("denominator form vanished; fiber block degenerate")
    return float(np.real(n / (d + 1) * num / den))
