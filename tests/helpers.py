"""Helpers that only the tests use: a node-sum inner product, the section
functional and its log as fields of t, the gradient tilt of a scalar field,
the mixed trace constant, a CSV field dump, the Hormander fields of one
direction and their finite-difference derivation, the Richardson gate of the
acceptance cross-check, the FD Hessian spectrum, the iterated weights as
evaluators at any point (log-kernel fields and their mixes) with the
iteration's ledger built through them, the block-by-block Hessian of
log K at fiber points that the iteration's frame product is checked
against, the base gradient of a log-kernel field from its inverse-Gram
jets, a quadratic weight whose Hessian blocks are materialized copies, a
weight evaluated one base point at a time, the grid route of ``certify``
that a constant-block weight skips, the weighted node norm of the
Hormander residuals, the Schur trace over stacked blocks and at one point,
the distortion attenuation of a trace constant, the mixed exterior-power
ratio that cross-checks the Schur trace, and a rule's nodes as an ``(M,
d)`` point list."""

import io
import math

import numpy as np

from bergman_lab.bergman import SectionFamily, base_gram_jets, bergman_basis, section_value
from bergman_lab.curvature import Stencil, fd_hessian, truncation_gate_at
from bergman_lab.fiber_numerics import QuadratureRule, monomial_basis, monomial_gradient, \
    monomial_synthesis, vandermonde
from bergman_lab.hormander import build_hormander_data
from bergman_lab.iteration import IterationLedger, StepRecord, _measure, \
    _positive, _sample_frames, inverse_gram_jets, potential_node_jets, potential_point_jets
from bergman_lab.utils import as_complex_tuple
from bergman_lab.weights import PSH_TOL, FiberDegenerateError, QuadraticWeight, WeightCertificate, \
    WeightFamily, _as_points, _one_block, fiber_contraction, joint_hessian, schur_from_contraction, \
    twist_weight

A13_STEP = 1e-2  # finite-difference step of the a13 cross-check (Richardson gate at half)


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


def fd_lambda_field(w, fam: SectionFamily, t0, alpha: int, N: int, quad, h: float) -> np.ndarray:
    """Lambda_alpha on the nodes, the second derivation of the exact field:
    ``sum_i conj(a_i(t0)) K_t(., s_i(t))`` rebuilt at ``t0 +- h``, ``t0 +- ih`` along
    ``alpha``, its Wirtinger derivative ``d/dt = ((f(+h) - f(-h)) - i (f(+ih) -
    f(-ih))) / (4h)`` (error O(h^2)), minus ``d_alpha phi`` times Gamma."""
    t0 = as_complex_tuple(t0)
    amps = fam.amplitudes_at(t0)

    def combo(tau: complex) -> np.ndarray:
        t = list(t0)
        t[alpha] += tau
        b = bergman_basis(w, tuple(t), N, quad)
        rhs = np.conj(amps @ b.monomials_at(fam.sections_at(tuple(t))))
        return monomial_synthesis(b.basis, b.transform @ (b.transform.conj().T @ rhs), quad)

    fp, fm, fip, fim = (combo(tau) for tau in h * np.array([1, -1, 1j, -1j]))
    dK = (fp - fm - 1j * (fip - fim)) / (4.0 * h)
    return dK - w.node_jets(t0, quad)[1][alpha] * combo(0.0)


def richardson_gap(route, exact, norm, budget: float, at_half: bool) -> float:
    """The one Richardson gate of a13: ``route(h)`` at ``A13_STEP`` and
    ``A13_STEP/2``.  Gives ``inf`` when ``norm`` of their difference exceeds
    ``budget``, else ``norm`` of the value at the compared step (the half
    step when ``at_half``) minus ``exact``."""
    fd_h, fd_half = route(A13_STEP), route(A13_STEP / 2)
    if norm(fd_h - fd_half) > budget:
        return math.inf
    return norm((fd_half if at_half else fd_h) - exact)


def trace_route(field_fn, t0):
    """h -> trace of the stencil Hessian of a scalar field at t0."""
    return lambda h: float(np.real(np.trace(fd_hessian(field_fn, Stencil(t0, h)))))


def psh_spectrum(field_fn, st) -> float:
    """Minimum eigenvalue of the FD complex Hessian of the field."""
    H = fd_hessian(field_fn, st)
    return float(np.linalg.eigvalsh(H)[0])


class GridMismatchError(ValueError):
    """Weights to be mixed live on incompatible bases or fibers."""


def _one_base_point(t: tuple) -> tuple:
    """Base input normalized by ``weights._as_points``, refused when it is
    one base point per fiber point: iterated weights memoize per base point."""
    if np.ndim(t[0]):
        raise ValueError("iterated weights take one base point at a time; got base "
                         f"input of shape {(np.size(t[0]), len(t))}")
    return t


def _point_list(xs: tuple) -> np.ndarray:
    """Per-coordinate fiber input (``weights._as_points``) as an ``(M, d)``
    list of points, which the monomial frames are evaluated at."""
    return np.stack(np.broadcast_arrays(*xs), axis=-1).reshape(-1, len(xs))


class LogKernelField(WeightFamily):
    """log K_t(xi, xi) for the kernel of an inner weight, with exact base and
    fiber derivatives at any base point: the iteration's potential as a
    weight object, memoized on the rule, built on the same functions as
    ``iteration.run_iteration`` (``inverse_gram_jets``,
    ``potential_node_jets``, ``potential_point_jets``).

    Each basis read from the memo of ``quad`` is gated on kernel truncation
    convergence at the fiber samples the iteration measures at and at the
    middle ring of each coordinate, from the frames kept on the rule
    (``iteration._sample_frames``).  The field owns its memo entries
    ``("gram_jets", t)`` (:meth:`gram_jets`) and ``("node_jets", t)``.
    """

    kind = "bergman-potential"

    def __init__(self, inner: WeightFamily, N: int, quad, label: str = ""):
        super().__init__(inner.n, inner.d, label or f"logK[{inner.label}]")
        if quad.domain.dim != inner.d:
            raise GridMismatchError(
                f"weight has fiber_dim {inner.d} but quadrature is {quad.domain.dim}-dimensional"
            )
        self.inner = inner
        self.N = int(N)
        self.quad = quad
        self.basis = monomial_basis(self.N, inner.d)
        self._max_gap = 0.0
        self._frames = _sample_frames(self.basis, quad)

    @property
    def max_convergence_gap(self) -> float:
        """Worst truncation gap seen across all basis builds so far."""
        return self._max_gap

    def _basis_at(self, t: tuple):
        b = bergman_basis(self.inner, t, self.N, self.quad)
        points, rows, _grads = self._frames
        self._max_gap = max(self._max_gap, truncation_gate_at(b, points, rows))
        return b

    def gram_jets(self, t) -> tuple:
        """``(P, dP, ddP)`` at t (``iteration.inverse_gram_jets``) of the
        inner weight's basis and Gram jets, memoized on the rule."""
        t = as_complex_tuple(t)
        return self.quad.memoize(self, ("gram_jets", t), lambda: inverse_gram_jets(
            self._basis_at(t).transform, *base_gram_jets(self.inner, t, self.N, self.quad)))

    def _node_jets(self, t, quad) -> tuple:
        return potential_node_jets(self.basis, self.gram_jets(t), quad)

    def node_phi(self, t, quad) -> np.ndarray:
        return self.node_jets(t, quad)[0]  # phi comes with its derivatives, no node Vandermonde

    def _point_jets(self, t, M, dM) -> tuple:
        H, n = potential_point_jets(self.gram_jets(t), M, dM), self.n
        return H[:, :n, :n], H[:, :n, n:], H[:, n:, n:]

    def _value_raw(self, t, xs):
        b = self._basis_at(_one_base_point(t))
        return np.log(_positive(np.sum(np.abs(b.orthonormal_at(_point_list(xs))) ** 2, axis=-1)))

    def hessian_field(self, t, xi):
        t, xs, _shape, _ = _as_points(t, xi, self.n, self.d)
        pts = _point_list(xs)
        return self._point_jets(_one_base_point(t), vandermonde(self.basis, pts),
                                monomial_gradient(self.basis, pts))


class MixedWeight(WeightFamily):
    """Pointwise affine combination  sum_i coef_i * field_i(t, xi), read
    through its node jets: the same combination of the parts' jets."""

    kind = "mixed"

    def __init__(self, parts, label: str = ""):
        parts = tuple((float(c), f) for c, f in parts)
        if not parts:
            raise ValueError("mixed weight needs at least one part")
        n, d = parts[0][1].n, parts[0][1].d
        for _c, f in parts[1:]:
            if (f.n, f.d) != (n, d):
                raise GridMismatchError(
                    f"cannot mix weights of dims ({f.n},{f.d}) and ({n},{d})"
                )
        quads = [f.quad for _c, f in parts if getattr(f, "quad", None) is not None]
        for q in quads[1:]:
            if q.shape != quads[0].shape or q.domain != quads[0].domain:
                raise GridMismatchError("mixed weights sampled on different quadrature grids")
        super().__init__(n, d, label or "mixed")
        self.parts = parts
        self.quad = quads[0] if quads else None

    def _node_jets(self, t, quad) -> tuple:
        """``sum_i coef_i * node_jets(part_i)``, term by term, accumulated in
        place on the first part's terms."""
        (c0, f0), *rest = self.parts
        out = [c0 * np.asarray(x) for x in f0.node_jets(t, quad)]
        for c, f in rest:
            for i, x in enumerate(f.node_jets(t, quad)):
                out[i] += c * np.asarray(x)
        return tuple(out)

    node_phi = LogKernelField.node_phi  # phi from the jets, as for the potentials


def mix_weights(phi_B: WeightFamily, phi_L: WeightFamily, m: int) -> MixedWeight:
    """(1 - 1/m) phi_B + (1/m) phi_L, the one-step weight mix."""
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"mixing order m must be an integer >= 2, got {m}")
    return MixedWeight(
        ((1.0 - 1.0 / m, phi_B), (1.0 / m, phi_L)),
        label=f"mix(m={m}; {phi_B.label}, {phi_L.label})",
    )


def oracle_iteration(phi_L: WeightFamily, m: int, K: int, cfg, eps0: float, t0,
                     twist: float = 0.0) -> IterationLedger:
    """The ledger of ``iteration.run_iteration``, built through the chain of
    weight objects: psi_0 = ``LogKernelField(phi_L)``, then per step the
    mixed weight of the previous potential and phi_L and its log-kernel
    field, each memoized on the rule, measured at the fiber samples from
    the field's own jets.  ``convergence_gap`` is the worst gate gap over
    every field of the chain.  Its arguments are taken as valid."""
    eps0, t0 = float(eps0), as_complex_tuple(t0)
    if twist > 0:
        phi_L = twist_weight(phi_L, twist)
    q = 1.0 - 1.0 / m
    steps, aborted, failure = [], False, ""
    fields = [LogKernelField(phi_L, cfg.N, cfg.quad)]
    for k in range(1, K + 1):
        psi = LogKernelField(mix_weights(fields[-1], phi_L, m), cfg.N, cfg.quad)
        fields.append(psi)
        b_k, weight_id, delta = (1.0 - q**k) * eps0, f"logK(step {k}, m={m})", twist * q**k
        _points, M, dM = psi._frames
        jets = psi.gram_jets(t0)
        try:
            measured, psh_min, ff_min = _measure(jets, M[: len(dM)], dM, t0)
        except FiberDegenerateError as exc:
            steps.append(StepRecord(k, weight_id, b_k, math.nan, delta=delta))
            aborted, failure = True, f"step {k}: {exc}"
            break
        steps.append(StepRecord(k, weight_id, b_k, measured, psh_min, ff_min, delta))
        if psh_min < -PSH_TOL * max(1.0, abs(measured)):
            aborted, failure = True, (
                f"step {k}: potential failed certification "
                f"(min joint eigenvalue {psh_min:.3e}, min fiber eigenvalue {ff_min:.3e})"
            )
            break
    return IterationLedger(m=int(m), eps0=eps0, steps=tuple(steps), base_dim=phi_L.n,
                           aborted=aborted, failure=failure,
                           diagnostics={"convergence_gap": max(f.max_convergence_gap for f in fields)})


def _log_hessian(K, dK_x, dK_y, ddK) -> np.ndarray:
    """``d_x dbar_y log K = ddK / K - d_xK conj(d_yK) / K^2`` from K > 0, shape
    (S,), its holomorphic derivatives (S, nx) and (S, ny) and ``ddK`` (S, nx, ny)."""
    K = K[:, None, None]
    return ddK / K - dK_x[:, :, None] * np.conj(dK_y)[:, None, :] / (K * K)


def oracle_point_jets(jets: tuple, M: np.ndarray, dM: np.ndarray) -> tuple:
    """The (tt, tf, ff) blocks of the Hessian of log K at S fiber points,
    block by block: the reference for ``iteration.potential_point_jets``,
    from the kernel's inverse-Gram jets and the points' monomial values
    ``M`` (S, dim) and holomorphic gradients ``dM`` (S, d, dim), through K
    (S,) and its derivatives ``d_t K`` (S, n), ``d_xi K`` (S, d), ``d_t
    dbar_t K`` (S, n, n), ``d_t dbar_xi K`` (S, n, d) and ``d_xi dbar_xi K``
    (S, d, d), each its own product."""
    P, dP, ddP = jets
    Mc, dMc = M.conj(), dM.conj()
    MdP = M @ dP  # (n, S, dim)
    dMP = dM @ P  # (S, d, dim)
    K = _positive(np.sum((M @ P) * Mc, axis=-1).real)
    Kt = np.sum(MdP * Mc, axis=-1).T
    Kx = np.sum(dMP * Mc[:, None, :], axis=-1)
    Ktt = np.sum((M @ ddP) * Mc, axis=-1).transpose(2, 0, 1)
    Ktx = np.einsum("asj,scj->sac", MdP, dMc)
    Kxx = np.einsum("scj,sej->sce", dMP, dMc)
    return (_log_hessian(K, Kt, Kt, Ktt), _log_hessian(K, Kt, Kx, Ktx),
            _log_hessian(K, Kx, Kx, Kxx))


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


def schur_trace_field(tt, tf, ff, where: str = "on the grid") -> np.ndarray:
    """Vectorized Schur-complement base trace over stacked Hessian blocks."""
    return schur_from_contraction(np.asarray(tt), fiber_contraction(tf, ff, where)[0])


def schur_at(tt, tf, ff) -> float:
    """Schur base trace of one Hessian, through the stacked path."""
    return float(schur_trace_field(*(np.asarray(b, dtype=complex)[None] for b in (tt, tf, ff)))[0])


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


class MaterializedQuadratic(QuadraticWeight):
    """A quadratic weight whose Hessian blocks are contiguous copies rather
    than the broadcast views of :class:`QuadraticWeight`, and which
    ``certify`` evaluates over its grid like any weight."""

    constant_hessian = False

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


def oracle_certify(w: WeightFamily, grid) -> WeightCertificate:
    """``certify`` by its grid route for every weight: one ``value`` and one
    ``hessian_field`` call over the whole base x fiber grid, and blocks
    that are one block broadcast along the point axis taken as that block,
    the route a ``constant_hessian`` weight skips."""
    base_pts, fiber_pts = grid.base_points(), grid.fiber_points()
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
    psh_ok = psh_min >= -PSH_TOL * max(1.0, abs(psh_min))
    return WeightCertificate(
        eps0=max(0.0, schur_min / w.n) if (psh_ok and fiber_ok) else 0.0,
        C=max(0.0, -tt_min),
        psh_min_eig=psh_min,
        grid_spec=(f"patch center {grid.patch.center}, radius {grid.patch.radius}; "
                   f"{len(base_pts)} base points x {len(fiber_pts)} fiber points"),
        diagnostics={"min_schur_trace": schur_min, "min_fiber_eig": ff_min, "min_base_eig": tt_min,
                     "psh_ok": psh_ok, "fiber_pd": fiber_ok, "weight": w.describe()},
    )


def weighted_norm(vals: np.ndarray, measure: np.ndarray) -> float:
    """``sqrt(sum |vals|^2 measure)``, the node norm the Hormander residuals read."""
    return math.sqrt(float(np.sum(np.abs(vals) ** 2 * measure).real))


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
    form.  Agrees with :func:`schur_trace_field` identically: an
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
