"""The m-step Bergman recursion and its curvature-bound ledger.

Starting from a weight phi_L whose certified trace constant is eps0, the
scheme alternates two moves:

    psi_k = log K_{w_k}(xi, xi)          (Bergman potential of the current weight)
    w_{k+1} = (1 - 1/m) psi_k + (1/m) phi_L      with w_0 = phi_L.

Plurisubharmonicity of psi_0 contributes nothing at the first mix, and
every later psi_k inherits the trace bound of its weight, so the certified
bounds follow the geometric series

    b_k = (1/m) sum_{i<k} (1 - 1/m)^i eps0 = (1 - (1 - 1/m)^k) eps0  ->  eps0.

The ledger records b_k next to the measured Schur trace of the joint
(t, xi) Hessian of psi_k at the scenario's base point t0 and two fiber
samples inside the fiber (the center, or an annulus's middle ring, and a
point 0.35 of the way out across the first coordinate).  The caller states
eps0, t0 and an optional twist C, which ``run_iteration`` applies to phi_L
itself; a non-positive eps0 certifies nothing and raises before any step.
Certification failure of any step's potential aborts the run with the
ledger so far.

Iterated weights have no closed form, so they are represented as
evaluator objects with exact jets.  ``K_t(xi, xi) = M(xi)^T P(t)
conj(M(xi))`` with ``P = G^{-1}`` the inverse Gram of the inner weight, so
the base derivatives of psi come from those of P (Berndtsson's variation
formula for log K_t, Ann. Inst. Fourier 56, 2006):

    d_a P        = -P d_aG P,
    d_a dbar_b P = P (d_bG)^H P d_aG P + P d_aG P (d_bG)^H P - P d_a dbar_bG P,

where ``d_aG`` and ``d_a dbar_bG`` are the ring Grams of the differentiated
measures, one memo entry per (weight, t, N) (``bergman.base_gram_jets``),
and the products are batched over the direction axes.  At the fiber sample
points the monomial values and their holomorphic gradients turn P and its
derivatives into the blocks (tt, tf, ff) of the Hessian of log K.  The node
jets (``WeightFamily.node_jets``), which every basis build and Gram
derivative of the next step reads, are ``log K``, ``d_a log K`` and the
base block tt from one ring synthesis of the stack (P, d_aP, d_a dbar_bP)
(``fiber_numerics.ring_synthesis``), with no node Vandermonde.  A mixed
weight is read through its jets alone, the same linear combination of its
parts', accumulated in place; the parts' jets are memoized on the rule, so
those of phi_L are evaluated once per run, not per step.  Each step
therefore builds one basis, at t0, gates it on one frame evaluation at the
fiber samples it is measured at and the middle ring, and evaluates no
finite-difference stencil.

The chain of weights keeps every psi_k alive, so each step drops what the
quadrature rule stored for its mixed weight and for the previous
potential once its Gram builds have read them; what a later step needs of
psi_k is its P-jets, a few (dim x dim) matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergman import base_gram_jets, bergman_basis
from .curvature import CheckConfig, truncation_gate_at
from .fiber_numerics import monomial_basis, monomial_gradient, ring_synthesis, vandermonde
from .utils import as_complex_tuple
from .weights import (
    PSH_TOL,
    FiberDegenerateError,
    WeightFamily,
    _as_points,
    fiber_contraction,
    joint_hessian,
    schur_from_contraction,
    twist_weight,
)

__all__ = [
    "GridMismatchError",
    "LogKernelField",
    "MixedWeight",
    "StepRecord",
    "IterationLedger",
    "mix_weights",
    "run_iteration",
]

MAX_STEPS = 12


class GridMismatchError(ValueError):
    """Weights to be mixed live on incompatible bases or fibers."""


def _positive(K: np.ndarray) -> np.ndarray:
    if float(K.min()) <= 0.0:
        raise ArithmeticError("kernel diagonal vanished on the fiber")
    return K


def _log_hessian(K, dK_x, dK_y, ddK) -> np.ndarray:
    """``d_x dbar_y log K = ddK / K - d_xK conj(d_yK) / K^2`` from K > 0, shape
    (S,), its holomorphic derivatives (S, nx) and (S, ny) and ``ddK`` (S, nx, ny)."""
    K = K[:, None, None]
    return ddK / K - dK_x[:, :, None] * np.conj(dK_y)[:, None, :] / (K * K)


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
    fiber derivatives.

    Each basis read from the memo of ``quad`` is gated on kernel truncation
    convergence at the fiber samples the iteration measures at and at the
    middle ring of each coordinate (0.5 r on a disk), since each step's log
    K is read on every node and becomes the next step's weight.  This field
    owns its memo entries ``("gram_jets", t)`` (:meth:`gram_jets`) and
    ``("node_jets", t)``, so a run reads, and gates, each basis once.
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
        dom = quad.domain
        probe = [ri + 0.5 * (ro - ri) for ri, ro in zip(dom.inner_radii, dom.radii)]
        self._gate_points = np.vstack([_fiber_samples(quad), np.array([probe], dtype=complex)])

    @property
    def max_convergence_gap(self) -> float:
        """Worst truncation gap seen across all basis builds so far."""
        return self._max_gap

    def _basis_at(self, t: tuple):
        b = bergman_basis(self.inner, t, self.N, self.quad)
        self._max_gap = max(self._max_gap, truncation_gate_at(b, self._gate_points))
        return b

    def gram_jets(self, t) -> tuple:
        """``(P, dP, ddP)`` at t: the inverse Gram ``P = C C^H`` of the inner
        weight, ``dP[a] = d_a P`` and ``ddP[a, b] = d_a dbar_b P`` (see the
        module docstring), memoized on the rule under this field.  The
        products are batched over the direction axes."""
        t = as_complex_tuple(t)

        def compute():
            C = self._basis_at(t).transform
            P = C @ C.conj().T
            dG, ddG = base_gram_jets(self.inner, t, self.N, self.quad)
            PdG = P @ dG  # (n, dim, dim)
            PdGh = P @ dG.conj().transpose(0, 2, 1)
            dP = -PdG @ P
            ddP = (PdGh[None] @ PdG[:, None] + PdG[:, None] @ PdGh[None] - P @ ddG) @ P
            return P, dP, ddP

        return self.quad.memoize(self, ("gram_jets", t), compute)

    def _node_jets(self, t, quad) -> tuple:
        P, dP, ddP = self.gram_jets(t)
        n = self.n
        stack = np.concatenate([P[None], dP, ddP.reshape((n * n,) + P.shape)])
        S = ring_synthesis(self.basis, stack, quad)  # rows K, d_aK, d_a dbar_bK
        K = _positive(S[0].real)
        dK = S[1 : n + 1]
        ddK = S[n + 1 :].reshape(n, n, -1)
        # d_a dbar_b log K on (n, n, nodes) rows: the quotients of _log_hessian
        # as products with the real 1/K and 1/K^2, which numpy's complex
        # division by a real divisor computes bit for bit, at half the cost
        rK = 1.0 / K
        tt = ddK * rK - dK[:, None] * np.conj(dK)[None, :] * (1.0 / (K * K))
        return np.log(K), dK * rK, np.moveaxis(tt, -1, 0)

    def node_phi(self, t, quad) -> np.ndarray:
        return self.node_jets(t, quad)[0]  # phi comes with its derivatives, no node Vandermonde

    def _point_jets(self, t, pts) -> tuple:
        """K and its derivatives at S fiber points: ``K`` (S,), ``d_t K`` (S, n),
        ``d_xi K`` (S, d), ``d_t dbar_t K`` (S, n, n), ``d_t dbar_xi K`` (S, n, d)
        and ``d_xi dbar_xi K`` (S, d, d)."""
        P, dP, ddP = self.gram_jets(t)
        M = vandermonde(self.basis, pts)  # (S, dim)
        dM = monomial_gradient(self.basis, pts)  # (S, d, dim)
        Mc, dMc = M.conj(), dM.conj()
        MdP = M @ dP  # (n, S, dim)
        dMP = dM @ P  # (S, d, dim)
        K = _positive(np.sum((M @ P) * Mc, axis=-1).real)
        Kt = np.sum(MdP * Mc, axis=-1).T
        Kx = np.sum(dMP * Mc[:, None, :], axis=-1)
        Ktt = np.moveaxis(np.sum((M @ ddP) * Mc, axis=-1), -1, 0)
        Ktx = np.einsum("asj,scj->sac", MdP, dMc)
        Kxx = np.einsum("scj,sej->sce", dMP, dMc)
        return K, Kt, Kx, Ktt, Ktx, Kxx

    def _value_raw(self, t, xs):
        b = self._basis_at(_one_base_point(t))
        return np.log(_positive(np.sum(np.abs(b.orthonormal_at(_point_list(xs))) ** 2, axis=-1)))

    def hessian_field(self, t, xi):
        t, xs, _shape, _ = _as_points(t, xi, self.n, self.d)
        K, Kt, Kx, Ktt, Ktx, Kxx = self._point_jets(_one_base_point(t), _point_list(xs))
        return (_log_hessian(K, Kt, Kt, Ktt), _log_hessian(K, Kt, Kx, Ktx),
                _log_hessian(K, Kx, Kx, Kxx))


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


@dataclass(frozen=True)
class StepRecord:
    k: int
    weight_id: str
    certified_bound: float
    measured_trace: float
    psh_min: float = math.nan
    ff_min: float = math.nan
    delta: float = 0.0  # twist slack C (1-1/m)^k for twisted runs


@dataclass(frozen=True)
class IterationLedger:
    """Per-step certified bounds b_k next to measured kernel traces."""

    m: int
    eps0: float
    steps: tuple
    base_dim: int = 1
    aborted: bool = False
    failure: str = ""
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")

    @property
    def limit_gap(self) -> float:
        """eps0 - b_K = (1 - 1/m)^K eps0 for the last recorded step."""
        if not self.steps:
            return self.eps0
        return self.eps0 - self.steps[-1].certified_bound

    @property
    def worst_step(self) -> float:
        """min_k (measured_k - n * b_k - delta_k), 0 with no step recorded:
        the margin by which every measured trace clears its bound and its
        twist slack."""
        return min((s.measured_trace - self.base_dim * s.certified_bound - s.delta
                    for s in self.steps), default=0.0)

    def satisfies(self, tolerance: float = 1e-3) -> bool:
        """Nothing aborted and :attr:`worst_step` is at least -tolerance."""
        return not self.aborted and self.worst_step >= -tolerance


def _fiber_samples(quad) -> np.ndarray:
    """Two points of the fiber, shape (2, d): its center, or the middle ring
    of each annulus coordinate, which does not contain the center; and the
    point 0.35 of the way out from the inner to the outer radius along the
    first coordinate.  On a disk or polydisc they are 0 and 0.35 r."""
    dom = quad.domain
    mid = [0.5 * (ri + ro) if ri > 0 else 0.0 for ri, ro in zip(dom.inner_radii, dom.radii)]
    xi = np.array([mid, mid], dtype=complex)
    xi[1, 0] = dom.inner_radii[0] + 0.35 * (dom.radii[0] - dom.inner_radii[0])
    return xi


def run_iteration(
    phi_L: WeightFamily,
    m: int,
    K: int,
    cfg: CheckConfig,
    eps0: float,
    t0,
    twist: float = 0.0,
) -> IterationLedger:
    """Run K steps of the recursion; the ledger pairs each certified b_k
    with the worst measured Schur trace of the step's log-kernel field at
    ``t0`` over the fiber samples, whose Hessian blocks are exact (no
    stencil).  ``eps0`` must be positive: a non-positive constant certifies
    nothing, and raises ``ArithmeticError`` (a failed hypothesis).  A
    positive ``twist`` C iterates ``phi_L + C |t|^2`` instead
    (``weights.twist_weight``) and records the vanishing twist slack
    ``delta_k = C (1 - 1/m)^k`` of each step.

    A step whose potential fails the plurisubharmonicity check (or whose
    fiber block degenerates) aborts the run, returning the ledger built
    so far with the failing record included.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m}")
    if not isinstance(K, (int, np.integer)) or not 0 <= K <= MAX_STEPS:
        raise ValueError(f"step count must lie in 0..{MAX_STEPS}, got {K}")
    eps0 = float(eps0)
    if not eps0 > 0.0:
        raise ArithmeticError(f"iteration needs a strictly positive eps0, got {eps0}")
    t0 = as_complex_tuple(t0)
    xi_samples = _fiber_samples(cfg.quad)
    if twist > 0:
        phi_L = twist_weight(phi_L, twist)

    q = 1.0 - 1.0 / m
    steps: list[StepRecord] = []
    aborted = False
    failure = ""
    psi = LogKernelField(phi_L, cfg.N, cfg.quad)
    for k in range(1, K + 1):
        prev = psi
        w = mix_weights(prev, phi_L, m)
        psi = LogKernelField(w, cfg.N, cfg.quad)
        b_k = (1.0 - q**k) * eps0
        weight_id = f"logK(step {k}, m={m})"
        try:
            measured, psh_min, ff_min = _measure(psi, t0, xi_samples)
        except FiberDegenerateError as exc:
            steps.append(StepRecord(k, weight_id, b_k, math.nan, delta=twist * q**k))
            aborted, failure = True, f"step {k}: {exc}"
            break
        finally:
            # this step's Gram builds were the last readers of the node fields
            # of w and prev; psi keeps its P-jets for the next step
            cfg.quad.release(w)
            cfg.quad.release(prev)
        rec = StepRecord(
            k=k,
            weight_id=weight_id,
            certified_bound=b_k,
            measured_trace=measured,
            psh_min=psh_min,
            ff_min=ff_min,
            delta=twist * q**k,
        )
        steps.append(rec)
        scale = max(1.0, abs(measured))
        if psh_min < -PSH_TOL * scale:  # a non-positive fiber block raised above
            aborted, failure = True, (
                f"step {k}: potential failed certification "
                f"(min joint eigenvalue {psh_min:.3e}, min fiber eigenvalue {ff_min:.3e})"
            )
            break
    return IterationLedger(
        m=int(m),
        eps0=eps0,
        steps=tuple(steps),
        base_dim=phi_L.n,
        aborted=aborted,
        failure=failure,
        diagnostics={"convergence_gap": psi.max_convergence_gap},
    )


def _measure(psi: LogKernelField, t0, xi_samples):
    """Worst Schur trace / joint eigenvalue / fiber eigenvalue over the
    fiber samples at t0."""
    tt, tf, ff = psi.hessian_field(t0, xi_samples)
    contraction, ff_min = fiber_contraction(tf, ff, f"at the samples over t = {t0}")
    measured = float(schur_from_contraction(tt, contraction).min())
    psh_min = float(np.linalg.eigvalsh(joint_hessian(tt, tf, ff))[:, 0].min())
    return measured, psh_min, ff_min
