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
(t, xi) Hessian of psi_k at sample points; certification failure of any
step's potential aborts the run with the ledger so far.

Iterated weights have no closed form, so they are represented as
evaluator objects with exact jets.  ``K_t(xi, xi) = M(xi)^T P(t)
conj(M(xi))`` with ``P = G^{-1}`` the inverse Gram of the inner weight, so
the base derivatives of psi come from those of P (Berndtsson's variation
formula for log K_t, Ann. Inst. Fourier 56, 2006):

    d_a P        = -P d_aG P,
    d_a dbar_b P = P (d_bG)^H P d_aG P + P d_aG P (d_bG)^H P - P d_a dbar_bG P,

where ``d_aG`` and ``d_a dbar_bG`` are the ring Grams of the differentiated
measures (``bergman.base_gram_derivative`` and ``base_gram_hessian``).  At
the fiber sample points the monomial values and their holomorphic
gradients turn P and its derivatives into the blocks (tt, tf, ff) of the
Hessian of log K.  On the quadrature nodes, which every basis build of the
next step reads, ``log K``, ``d_a log K`` and the base block tt come from one
ring synthesis of the stack (P, d_aP, d_a dbar_bP)
(``fiber_numerics.ring_synthesis``), with no node Vandermonde.  Mixed
weights combine their parts' values, gradients and Hessian blocks
linearly, so the Gram derivatives of ``w_{k+1}`` read exact node
derivatives of psi_k.  Each step therefore builds one basis per base point
sample and evaluates no finite-difference stencil.

The chain of weights keeps every psi_k alive, so each step drops what the
quadrature rule stored for its mixed weight and for the previous
potential once its Gram builds have read them; what a later step needs of
psi_k is its P-jets, a few (dim x dim) matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergman import base_gram_derivative, base_gram_hessian, bergman_basis
from .curvature import CONVERGENCE_TOL, CheckConfig, truncation_gate
from .fiber_numerics import monomial_basis, monomial_gradient, ring_synthesis, vandermonde
from .utils import as_complex_tuple
from .weights import (
    BasePatch,
    FiberDegenerateError,
    GridSpec,
    WeightFamily,
    _as_fiber_array,
    certify,
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
    "run_twisted_iteration",
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


class LogKernelField(WeightFamily):
    """sign * log K_t(xi, xi) for the kernel of an inner weight, with exact
    base and fiber derivatives.

    Bases come from the basis memo of ``quad``; the first use of each
    base point is gated on kernel truncation convergence at a probe fiber
    point.  The inverse-Gram jets and the node values are stored on ``quad``
    under this field (see :meth:`gram_jets`).
    """

    kind = "bergman-potential"

    def __init__(self, inner: WeightFamily, N: int, quad, sign: int = 1,
                 convergence_tol: float = CONVERGENCE_TOL, label: str = ""):
        super().__init__(inner.n, inner.d, label or f"logK[{inner.label}]")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if quad.domain.dim != inner.d:
            raise GridMismatchError(
                f"weight has fiber_dim {inner.d} but quadrature is {quad.domain.dim}-dimensional"
            )
        self.inner = inner
        self.N = int(N)
        self.quad = quad
        self.basis = monomial_basis(self.N, inner.d)
        self.sign = int(sign)
        self.convergence_tol = float(convergence_tol)
        self._gated: set = set()
        self._max_gap = 0.0
        probe = [0.5 * r for r in quad.domain.radii]
        self._probe = probe[0] if inner.d == 1 else tuple(probe)

    @property
    def max_convergence_gap(self) -> float:
        """Worst truncation gap seen across all basis builds so far."""
        return self._max_gap

    @property
    def cached_points(self) -> int:
        """Distinct base points whose basis passed the truncation gate."""
        return len(self._gated)

    def _basis_at(self, t: tuple):
        b = bergman_basis(self.inner, t, self.N, self.quad)
        if b.t not in self._gated:
            gap = b.diag_convergence_gap(self._probe)
            self._max_gap = max(self._max_gap, gap)
            truncation_gate(gap, self.convergence_tol, self.N, f"at t={b.t}")
            self._gated.add(b.t)
        return b

    def gram_jets(self, t) -> tuple:
        """``(P, dP, ddP)`` at t: the inverse Gram ``P = C C^H`` of the inner
        weight, ``dP[a] = d_a P`` and ``ddP[a, b] = d_a dbar_b P`` (see the
        module docstring), memoized on the rule under this field."""
        t = as_complex_tuple(t)

        def compute():
            C = self._basis_at(t).transform
            P = C @ C.conj().T
            w, N, quad, n = self.inner, self.N, self.quad, self.n
            dG = [base_gram_derivative(w, t, N, quad, a) for a in range(n)]
            PdG = [P @ D for D in dG]
            PdGh = [P @ D.conj().T for D in dG]
            dP = np.stack([-X @ P for X in PdG])
            ddP = np.empty((n, n) + P.shape, dtype=complex)
            for a in range(n):
                for b in range(n):
                    ddG = base_gram_hessian(w, t, N, quad, a, b)
                    ddP[a, b] = (PdGh[b] @ PdG[a] + PdG[a] @ PdGh[b] - P @ ddG) @ P
            return P, dP, ddP

        return self.quad.memoize(self, ("gram_jets", t), compute)

    def _node_jets(self, t) -> tuple:
        """``sign *`` (log K, d_a log K with shape (n, nodes), the base block
        (nodes, n, n)) on the nodes, from one ring synthesis of the stack
        (P, dP, ddP); memoized on the rule under this field."""
        t = as_complex_tuple(t)

        def compute():
            P, dP, ddP = self.gram_jets(t)
            n, s = self.n, self.sign
            stack = np.concatenate([P[None], dP, ddP.reshape((n * n,) + P.shape)])
            S = ring_synthesis(self.basis, stack, self.quad).T  # (nodes, 1 + n + n^2)
            K = _positive(S[:, 0].real)
            dK = S[:, 1 : n + 1]
            ddK = S[:, n + 1 :].reshape(-1, n, n)
            return s * np.log(K), s * (dK / K[:, None]).T, s * _log_hessian(K, dK, dK, ddK)

        return self.quad.memoize(self, ("node_jets", t), compute)

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

    def _value_raw(self, t, pts):
        if pts is self.quad.nodes:
            return self._node_jets(t)[0]
        b = self._basis_at(t)
        diag = _positive(np.sum(np.abs(b.orthonormal_at(pts)) ** 2, axis=-1))
        return self.sign * np.log(diag)

    def grad_base(self, t, xi):
        if xi is self.quad.nodes:
            return self._node_jets(t)[1]
        pts, single = _as_fiber_array(xi, self.d)
        K, Kt = self._point_jets(t, pts)[:2]
        g = self.sign * (Kt / K[:, None]).T
        return g[:, 0] if single else g

    def base_hessian(self, t, xi):
        if xi is self.quad.nodes:
            return self._node_jets(t)[2]
        return self.hessian_field(t, xi)[0]

    def hessian_field(self, t, xi):
        pts, _ = _as_fiber_array(xi, self.d)
        K, Kt, Kx, Ktt, Ktx, Kxx = self._point_jets(t, pts)
        s = self.sign
        return (s * _log_hessian(K, Kt, Kt, Ktt), s * _log_hessian(K, Kt, Kx, Ktx),
                s * _log_hessian(K, Kx, Kx, Kxx))

    def describe(self) -> str:
        inner = self.inner.describe()
        side = "log kernel" if self.sign == 1 else "-log kernel"
        return f"{side} of [{inner}] at degree {self.N}"


class MixedWeight(WeightFamily):
    """Pointwise affine combination  sum_i coef_i * field_i(t, xi); its
    derivatives are the same combination of the parts' derivatives."""

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
        quads = [f.quad for _c, f in parts if hasattr(f, "quad")]
        for q in quads[1:]:
            if q.shape != quads[0].shape or q.domain != quads[0].domain:
                raise GridMismatchError("mixed weights sampled on different quadrature grids")
        super().__init__(n, d, label or "mixed")
        self.parts = parts

    def _value_raw(self, t, pts):
        total = np.zeros(pts.shape[0])
        for c, f in self.parts:
            total = total + c * np.asarray(f.value(t, pts))
        return total

    def grad_base(self, t, xi):
        return sum(c * np.asarray(f.grad_base(t, xi)) for c, f in self.parts)

    def base_hessian(self, t, xi):
        return sum(c * np.asarray(f.base_hessian(t, xi)) for c, f in self.parts)

    def hessian_field(self, t, xi):
        blocks = [[c * np.asarray(b) for b in f.hessian_field(t, xi)] for c, f in self.parts]
        return tuple(sum(terms) for terms in zip(*blocks))

    def describe(self) -> str:
        terms = " + ".join(f"{c:g}*[{f.label}]" for c, f in self.parts)
        return f"mixed weight {terms}"


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

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "weight_id": self.weight_id,
            "certified_bound": self.certified_bound,
            "measured_trace": self.measured_trace,
            "psh_min": self.psh_min,
            "ff_min": self.ff_min,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class IterationLedger:
    """Per-step certified bounds b_k next to measured kernel traces."""

    m: int
    eps0: float
    steps: tuple
    target: float
    base_dim: int = 1
    aborted: bool = False
    failure: str = ""
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")

    def bound_at(self, k: int) -> float:
        """Closed form b_k = (1 - (1 - 1/m)^k) eps0."""
        return (1.0 - (1.0 - 1.0 / self.m) ** k) * self.eps0

    @property
    def limit_gap(self) -> float:
        """eps0 - b_K = (1 - 1/m)^K eps0 for the last recorded step."""
        if not self.steps:
            return self.eps0
        return self.eps0 - self.steps[-1].certified_bound

    def satisfies(self, tolerance: float = 1e-3) -> bool:
        """Every measured trace clears n * b_k - tolerance and nothing aborted."""
        return not self.aborted and all(
            s.measured_trace >= self.base_dim * s.certified_bound - tolerance
            for s in self.steps
        )

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "eps0": self.eps0,
            "target": self.target,
            "base_dim": self.base_dim,
            "aborted": self.aborted,
            "failure": self.failure,
            "steps": [s.as_dict() for s in self.steps],
            "diagnostics": {
                k: v for k, v in self.diagnostics.items() if k != "fields"
            },
        }


def _default_samples(w: WeightFamily, quad):
    t_samples = ((0.0 + 0.0j,) * w.n,)
    inner = np.zeros(w.d, dtype=complex)
    mid = np.zeros(w.d, dtype=complex)
    mid[0] = 0.35 * quad.domain.radii[0]
    return t_samples, np.vstack([inner, mid])


def _default_eps0(w: WeightFamily, quad) -> float:
    grid = GridSpec(patch=BasePatch(center=(0.0,) * w.n, radius=0.4), fiber=quad.domain)
    return certify(w, grid).eps0


def run_iteration(
    phi_L: WeightFamily,
    m: int,
    K: int,
    cfg: CheckConfig,
    eps0: float | None = None,
    t_samples=None,
    xi_samples=None,
    psh_tol: float = 1e-8,
    twist_slack: float = 0.0,
    keep_fields: bool = False,
) -> IterationLedger:
    """Run K steps of the recursion; the ledger pairs each certified b_k
    with the worst measured Schur trace of the step's log-kernel field,
    whose Hessian blocks at the samples are exact (no stencil).

    A step whose potential fails the plurisubharmonicity check (or whose
    fiber block degenerates) aborts the run, returning the ledger built
    so far with the failing record included.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m}")
    if not isinstance(K, (int, np.integer)) or not 0 <= K <= MAX_STEPS:
        raise ValueError(f"step count must lie in 0..{MAX_STEPS}, got {K}")
    if cfg.quad is None:
        raise ValueError("cfg.quad must carry a quadrature rule")
    if eps0 is None:
        eps0 = _default_eps0(phi_L, cfg.quad)
    eps0 = float(eps0)
    if eps0 <= 0.0:
        raise ValueError(f"iteration needs a strictly positive eps0, got {eps0}")
    if t_samples is None or xi_samples is None:
        dt, dxi = _default_samples(phi_L, cfg.quad)
        t_samples = dt if t_samples is None else t_samples
        xi_samples = dxi if xi_samples is None else xi_samples
    t_samples = tuple(as_complex_tuple(t) for t in t_samples)
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=complex))

    q = 1.0 - 1.0 / m
    steps: list[StepRecord] = []
    fields: list[LogKernelField] = []
    aborted = False
    failure = ""
    psi = LogKernelField(phi_L, cfg.N, cfg.quad, sign=1)
    for k in range(1, K + 1):
        prev = psi
        w = mix_weights(prev, phi_L, m)
        psi = LogKernelField(w, cfg.N, cfg.quad, sign=1)
        if keep_fields:
            fields.append(psi)
        b_k = (1.0 - q**k) * eps0
        weight_id = f"logK(step {k}, m={m})"
        try:
            measured, psh_min, ff_min = _measure(psi, t_samples, xi_samples)
        except FiberDegenerateError as exc:
            steps.append(StepRecord(k, weight_id, b_k, math.nan, delta=twist_slack * q**k))
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
            delta=twist_slack * q**k,
        )
        steps.append(rec)
        scale = max(1.0, abs(measured))
        if psh_min < -psh_tol * scale:  # a non-positive fiber block raised above
            aborted, failure = True, (
                f"step {k}: potential failed certification "
                f"(min joint eigenvalue {psh_min:.3e}, min fiber eigenvalue {ff_min:.3e})"
            )
            break
    diagnostics = {
        "convergence_gap": psi.max_convergence_gap,
        "t_samples": len(t_samples),
        "xi_samples": int(xi_samples.shape[0]),
    }
    if keep_fields:
        diagnostics["fields"] = tuple(fields)
    return IterationLedger(
        m=int(m),
        eps0=eps0,
        steps=tuple(steps),
        target=eps0,
        base_dim=phi_L.n,
        aborted=aborted,
        failure=failure,
        diagnostics=diagnostics,
    )


def _measure(psi: LogKernelField, t_samples, xi_samples):
    """Worst Schur trace / joint eigenvalue / fiber eigenvalue over samples."""
    measured = math.inf
    psh_min = math.inf
    ff_min = math.inf
    for t in t_samples:
        tt, tf, ff = psi.hessian_field(t, xi_samples)
        contraction, t_ff_min = fiber_contraction(tf, ff, f"at the samples over t = {t}")
        measured = min(measured, float(schur_from_contraction(tt, contraction).min()))
        psh_min = min(psh_min, float(np.linalg.eigvalsh(joint_hessian(tt, tf, ff))[:, 0].min()))
        ff_min = min(ff_min, t_ff_min)
    return measured, psh_min, ff_min


def run_twisted_iteration(
    phi_L: WeightFamily,
    C: float,
    m: int,
    K: int,
    cfg: CheckConfig,
    eps0: float | None = None,
    **kwargs,
) -> IterationLedger:
    """Twist the weight by C |t|^2, iterate, and report the vanishing
    per-step twist slack delta_k = C (1 - 1/m)^k in the ledger."""
    twisted = twist_weight(phi_L, C)
    return run_iteration(twisted, m, K, cfg, eps0=eps0, twist_slack=float(C), **kwargs)
