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

The chain is stepped on arrays, not weight objects.  ``K_t(xi, xi) =
M(xi)^T P(t) conj(M(xi))`` with ``P = G^{-1}`` the inverse Gram of the
inner weight, so the base derivatives of psi come from those of P
(Berndtsson's variation formula for log K_t, Ann. Inst. Fourier 56, 2006):

    d_a P        = -P d_aG P,
    d_a dbar_b P = P (d_bG)^H P d_aG P + P d_aG P (d_bG)^H P - P d_a dbar_bG P,

where ``d_aG`` and ``d_a dbar_bG`` are the ring Grams of the differentiated
measures (``bergman.gram_jet_arrays``) and the products are batched over
the direction axes (:func:`inverse_gram_jets`).  The state of the run is
the current potential's jets ``(P, d_aP, d_a dbar_bP)`` at t0.  psi_0
comes from phi_L, the scenario's own weight, through the memoized
``bergman.bergman_basis`` and ``bergman.base_gram_jets``, which an earlier
check of the scenario at t0 has often built already.  Each step then

1. synthesizes the node jets of psi, ``log K``, ``d_a log K`` and the base
   block, from one ring synthesis of that stack
   (:func:`potential_node_jets`, ``fiber_numerics.ring_synthesis``), with
   no node Vandermonde;
2. mixes them in place with phi_L's memoized node jets, ``(1 - 1/m) psi +
   (1/m) phi_L`` term by term; phi_L's jets are evaluated on the nodes and
   scaled by 1/m once per run;
3. turns phi's buffer into the measure ``mu = exp(-phi) w`` in place
   (``weights.exp_weight``, which refuses a non-finite value, then the
   quadrature weights), which both the basis Gram (``ring_gram``) and the
   Gram jets (``bergman.gram_jet_arrays``) read; factors the basis Gram
   (``orthonormalize``), gates the basis from the monomial rows of the two
   fiber samples it is measured at and of the middle ring
   (``bergman.truncation_gaps``), and builds the next P-jets;
4. reads K and all its first and second (t, xi) derivatives at the fiber
   samples from one product of their monomial rows and gradients with the
   stack of P-jets, and assembles from them the joint Hessian of log K
   there (:func:`potential_point_jets`), whose blocks (tt, tf, ff) are
   views of it.

A step evaluates no finite-difference stencil and stores nothing on the
quadrature rule: the monomial values at the three gate points and the
samples' gradients are the same at every step, so they are evaluated once
per basis and rule and kept there (:func:`_sample_frames`); everything
else a step computes is dropped when the next step has read its P-jets.
The general evaluators of psi at any base and fiber point, which the tests
check these jets against (``tests/helpers.py``), are built on the same
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergman import base_gram_jets, bergman_basis, gram_jet_arrays, truncation_gaps
from .curvature import CheckConfig, truncation_gate_at, worst_truncation_gap
from .fiber_numerics import monomial_basis, monomial_gradient, orthonormalize, ring_gram, \
    ring_synthesis, vandermonde
from .utils import as_complex_tuple
from .weights import (
    PSH_TOL,
    FiberDegenerateError,
    WeightFamily,
    exp_weight,
    fiber_contraction,
    schur_from_contraction,
    twist_weight,
)

__all__ = [
    "StepRecord",
    "IterationLedger",
    "inverse_gram_jets",
    "potential_node_jets",
    "potential_point_jets",
    "run_iteration",
]

MAX_STEPS = 12


def _positive(K: np.ndarray) -> np.ndarray:
    if float(K.min()) <= 0.0:
        raise ArithmeticError("kernel diagonal vanished on the fiber")
    return K


def inverse_gram_jets(C: np.ndarray, dG: np.ndarray, ddG: np.ndarray) -> tuple:
    """``(P, dP, ddP)``: the inverse Gram ``P = C C^H`` of a basis with
    transform ``C``, ``dP[a] = d_a P`` and ``ddP[a, b] = d_a dbar_b P`` (see
    the module docstring) from the Gram jets ``dG`` (n, dim, dim) and
    ``ddG`` (n, n, dim, dim), the products batched over the direction axes."""
    P = C @ C.conj().T
    PdG = P @ dG  # (n, dim, dim)
    PdGh = P @ dG.conj().transpose(0, 2, 1)
    dP = -PdG @ P
    ddP = (PdGh[None] @ PdG[:, None] + PdG[:, None] @ PdGh[None] - P @ ddG) @ P
    return P, dP, ddP


def potential_node_jets(basis, jets: tuple, quad) -> tuple:
    """``(log K, d_a log K, tt)`` on the nodes of ``quad``, shapes (nodes,),
    (n, nodes) and (nodes, n, n), for the kernel whose inverse-Gram jets over
    ``basis`` are ``jets`` (:func:`inverse_gram_jets`): one ring synthesis
    of the stack ``(P, d_aP, d_a dbar_bP)``.  A kernel diagonal that
    vanishes on a node raises ``ArithmeticError``."""
    P, dP, ddP = jets
    n = len(dP)
    stack = np.concatenate([P[None], dP, ddP.reshape((n * n,) + P.shape)])
    S = ring_synthesis(basis, stack, quad)  # rows K, d_aK, d_a dbar_bK
    K = _positive(S[0].real)
    dK = S[1 : n + 1]
    ddK = S[n + 1 :].reshape(n, n, -1)
    # d_a dbar_b log K = d_a dbar_b K / K - d_aK conj(d_bK) / K^2 on (n, n,
    # nodes) rows, the quotients as products with the real 1/K and 1/K^2,
    # which numpy's complex division by a real divisor computes bit for
    # bit, at half the cost
    rK = 1.0 / K
    tt = dK[:, None] * np.conj(dK)[None, :]
    tt *= 1.0 / (K * K)
    np.subtract(ddK * rK, tt, out=tt)
    return np.log(K), dK * rK, tt.transpose(2, 0, 1)


def potential_point_jets(jets: tuple, M: np.ndarray, dM: np.ndarray) -> np.ndarray:
    """The joint (t, xi) Hessian of log K at S fiber points, shape (S, n+d,
    n+d), from the kernel's inverse-Gram jets and the points' monomial
    values ``M`` (S, dim) and holomorphic gradients ``dM`` (S, d, dim).

    With ``F`` the frame (S, 1+d, dim) of each point's row and gradient,
    one product ``F X F^H`` over the stack ``X = (P, d_aP, d_a dbar_bP)``
    reads K, its first derivatives and every second derivative ``d dbar
    K`` at once: ``F P F^H = [[K, dbar_xi K], [d_xi K, d_xi dbar_xi K]]``,
    ``F d_aP F^H = [[d_a K, d_a dbar_xi K], ...]`` and ``F d_a dbar_bP
    F^H = [[d_a dbar_b K, ...], ...]``.  The log-Hessian ``d dbar K / K - dK
    conj(dK) / K^2`` is then assembled once, its lower-left block the
    conjugate transpose of its upper-right one, as
    ``weights.joint_hessian`` assembles it."""
    P, dP, ddP = jets
    n, (S, d) = len(dP), dM.shape[:2]
    F = np.concatenate([M[:, None], dM], axis=1)
    X = np.concatenate([P[None], dP, ddP.reshape((n * n,) + P.shape)])
    Y = (F.reshape(-1, P.shape[0]) @ X).reshape(len(X), S, 1 + d, -1) @ F.conj().transpose(0, 2, 1)
    K = _positive(Y[0, :, 0, 0].real)
    grad = np.concatenate([Y[1 : n + 1, :, 0, 0].T, Y[0, :, 1:, 0]], axis=1)  # d_t K, d_xi K
    H = np.zeros((S, n + d, n + d), dtype=complex)  # its lower-left block is set last
    H[:, :n, :n] = Y[n + 1 :, :, 0, 0].T.reshape(S, n, n)
    H[:, :n, n:] = Y[1 : n + 1, :, 0, 1:].transpose(1, 0, 2)
    H[:, n:, n:] = Y[0, :, 1:, 1:]
    K = K[:, None, None]
    H /= K
    H -= grad[:, :, None] * np.conj(grad)[:, None, :] / (K * K)
    H[:, n:, :n] = np.conj(H[:, :n, n:]).transpose(0, 2, 1)
    return H


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


def _sample_frames(basis, quad) -> tuple:
    """``(points, M, dM)``, memoized on ``quad`` under ``basis``: the gate
    points, the two fiber samples (:func:`_fiber_samples`) and the middle
    ring of each coordinate (0.5 r on a disk), shape (3, d); their monomial
    values ``M`` (3, dim); and the samples' holomorphic gradients ``dM`` (2,
    d, dim).  Every step of a run reads them, so they are evaluated once."""

    def compute():
        dom = quad.domain
        probe = [ri + 0.5 * (ro - ri) for ri, ro in zip(dom.inner_radii, dom.radii)]
        samples = _fiber_samples(quad)
        points = np.vstack([samples, np.array([probe], dtype=complex)])
        return points, vandermonde(basis, points), monomial_gradient(basis, samples)

    return quad.memoize(basis, "sample_frames", compute)


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
    with the worst measured Schur trace of the step's potential at ``t0``
    over the fiber samples, whose Hessian blocks are exact (no stencil).
    ``eps0`` must be positive: a non-positive constant certifies nothing,
    and raises ``ArithmeticError`` (a failed hypothesis).  A
    positive ``twist`` C iterates ``phi_L + C |t|^2`` instead
    (``weights.twist_weight``) and records the vanishing twist slack
    ``delta_k = C (1 - 1/m)^k`` of each step; a negative or non-finite
    one raises ``ValueError`` before any step.

    A step whose potential fails the plurisubharmonicity check (or whose
    fiber block degenerates) aborts the run, returning the ledger built
    so far with the failing record included.  A weight whose fiber
    dimension is not the rule's raises ``ValueError``.  The ledger's
    ``diagnostics["convergence_gap"]`` is the worst truncation gap of the
    run's bases.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m}")
    if not isinstance(K, (int, np.integer)) or not 0 <= K <= MAX_STEPS:
        raise ValueError(f"step count must lie in 0..{MAX_STEPS}, got {K}")
    eps0 = float(eps0)
    if not eps0 > 0.0:
        raise ArithmeticError(f"iteration needs a strictly positive eps0, got {eps0}")
    twist = float(twist)
    if not 0.0 <= twist < math.inf:  # NaN fails too
        raise ValueError(f"twist constant must be nonnegative and finite, got {twist}")
    t0 = as_complex_tuple(t0)
    if twist > 0:
        phi_L = twist_weight(phi_L, twist)

    quad, N = cfg.quad, cfg.N
    if quad.domain.dim != phi_L.d:
        raise ValueError(f"weight has fiber_dim {phi_L.d} but quadrature is "
                         f"{quad.domain.dim}-dimensional")
    basis = monomial_basis(N, phi_L.d)
    points, rows, grads = _sample_frames(basis, quad)

    q, c = 1.0 - 1.0 / m, 1.0 / m
    steps: list[StepRecord] = []
    aborted, failure = False, ""
    gap = 0.0  # the worst truncation gap of the run
    if K:  # psi_0, from phi_L's memoized basis and Gram jets
        b = bergman_basis(phi_L, t0, N, quad)
        gap = truncation_gate_at(b, points, rows)
        jets = inverse_gram_jets(b.transform, *base_gram_jets(phi_L, t0, N, quad))
        c_phi_L = [c * x for x in phi_L.node_jets(t0, quad)]
    for k in range(1, K + 1):
        # the node jets of w_k = q psi_{k-1} + c phi_L, term by term
        phi, dphi, tt = mixed = potential_node_jets(basis, jets, quad)
        for acc, x in zip(mixed, c_phi_L):
            acc *= q
            acc += x
        mu = exp_weight(phi, t0, out=phi)  # phi's buffer becomes the measure exp(-phi) w
        mu *= quad.weights
        C = orthonormalize(ring_gram(basis, mu, quad), basis.exponents)
        gap = max(gap, worst_truncation_gap(truncation_gaps(rows, C, basis, N), points, N, t0))
        jets = inverse_gram_jets(C, *gram_jet_arrays(basis, [mu], dphi, tt, quad))
        b_k, weight_id, delta = (1.0 - q**k) * eps0, f"logK(step {k}, m={m})", twist * q**k
        try:
            measured, psh_min, ff_min = _measure(jets, rows[: len(grads)], grads, t0)
        except FiberDegenerateError as exc:
            steps.append(StepRecord(k, weight_id, b_k, math.nan, delta=delta))
            aborted, failure = True, f"step {k}: {exc}"
            break
        steps.append(StepRecord(k, weight_id, b_k, measured, psh_min, ff_min, delta))
        if psh_min < -PSH_TOL * max(1.0, abs(measured)):  # a non-positive fiber block raised above
            aborted, failure = True, (
                f"step {k}: potential failed certification "
                f"(min joint eigenvalue {psh_min:.3e}, min fiber eigenvalue {ff_min:.3e})"
            )
            break
    return IterationLedger(m=int(m), eps0=eps0, steps=tuple(steps), base_dim=phi_L.n,
                           aborted=aborted, failure=failure, diagnostics={"convergence_gap": gap})


def _measure(jets: tuple, M: np.ndarray, dM: np.ndarray, t0):
    """Worst Schur trace / joint eigenvalue / fiber eigenvalue over the
    fiber samples at t0, from the potential's inverse-Gram jets there and
    the samples' frames (:func:`_sample_frames`): one joint Hessian
    (:func:`potential_point_jets`), whose blocks are views of it."""
    H = potential_point_jets(jets, M, dM)
    n = len(jets[1])
    contraction, ff_min = fiber_contraction(H[:, :n, n:], H[:, n:, n:], f"at the samples over t = {t0}")
    measured = float(schur_from_contraction(H[:, :n, :n], contraction).min())
    psh_min = float(np.linalg.eigvalsh(H)[:, 0].min())
    return measured, psh_min, ff_min
