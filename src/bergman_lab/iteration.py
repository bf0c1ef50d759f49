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
evaluator objects: a log-kernel field evaluates the orthonormalized basis
of its inner weight at each base point it is asked about, and mixed
weights combine evaluators pointwise.  The bases come from the basis memo
on the quadrature rule (see ``bergman``), so each distinct base point is
built once however often the Hessian stencils revisit it, and cost scales
with the number of distinct base points touched, not with a precomputed
grid.  Evaluating a log-kernel field on ``quad.nodes`` (which every basis
build of the next step does) synthesizes the kernel diagonal ring by ring
(``fiber_numerics.kernel_diagonal``): a contraction with the ring powers
and one node-sized inverse FFT per base point, with no node Vandermonde
and no (nodes x dim) product.  Any other point set (the Hessian stencils'
fiber samples) goes through the orthonormal frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergman import bergman_basis
from .curvature import CheckConfig, truncation_gate
from .fiber_numerics import kernel_diagonal
from .utils import as_complex_tuple
from .weights import (
    BasePatch,
    FiberDegenerateError,
    GridSpec,
    WeightFamily,
    certify,
    schur_trace_field,
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


class LogKernelField(WeightFamily):
    """sign * log K_t(xi, xi) for the kernel of an inner weight.

    Bases come from the basis memo of ``quad``; the first use of each
    base point is gated on kernel truncation convergence at a probe fiber
    point.
    """

    kind = "bergman-potential"
    fd_step = 1e-2  # log-kernel values carry ~1e-13 relative noise, so
    # second differences need a step well above sqrt of that

    def __init__(self, inner: WeightFamily, N: int, quad, sign: int = 1,
                 convergence_tol: float = 1e-6, label: str = ""):
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

    def _value_raw(self, t, pts):
        b = self._basis_at(t)
        if pts is self.quad.nodes:
            diag = kernel_diagonal(b.basis, b.transform, self.quad)
        else:
            diag = np.sum(np.abs(b.orthonormal_at(pts)) ** 2, axis=-1)
        if float(diag.min()) <= 0.0:
            raise ArithmeticError("kernel diagonal vanished on the fiber")
        return self.sign * np.log(diag)

    def describe(self) -> str:
        inner = self.inner.describe()
        side = "log kernel" if self.sign == 1 else "-log kernel"
        return f"{side} of [{inner}] at degree {self.N}"


class MixedWeight(WeightFamily):
    """Pointwise affine combination  sum_i coef_i * field_i(t, xi)."""

    kind = "mixed"
    fd_step = 1e-2

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


def _default_eps0(w: WeightFamily, quad, threads: int = 1) -> float:
    grid = GridSpec(patch=BasePatch(center=(0.0,) * w.n, radius=0.4), fiber=quad.domain)
    return certify(w, grid, threads=threads).eps0


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
    with the worst measured Schur trace of the step's log-kernel field.

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
        eps0 = _default_eps0(phi_L, cfg.quad, threads=cfg.threads)
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
    w = phi_L
    psi = LogKernelField(w, cfg.N, cfg.quad, sign=1, convergence_tol=cfg.convergence_tol)
    psi.fd_step = cfg.h
    for k in range(1, K + 1):
        w = mix_weights(psi, phi_L, m)
        psi = LogKernelField(w, cfg.N, cfg.quad, sign=1, convergence_tol=cfg.convergence_tol)
        psi.fd_step = cfg.h
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
        if psh_min < -psh_tol * scale or ff_min <= 0.0:
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
    n = psi.n
    for t in t_samples:
        tt, tf, ff = psi.hessian_field(t, xi_samples)
        schur = schur_trace_field(tt, tf, ff)
        measured = min(measured, float(schur.min()))
        top = np.concatenate([tt, tf], axis=2)
        bot = np.concatenate([np.conj(np.swapaxes(tf, 1, 2)), ff], axis=2)
        joint = np.concatenate([top, bot], axis=1)
        psh_min = min(psh_min, float(np.linalg.eigvalsh(joint)[:, 0].min()))
        ff_min = min(ff_min, float(np.linalg.eigvalsh(ff)[:, 0].min()))
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
