"""Seeded scenario generator and closed-form oracles for the benchmark.

Each workload is a sequence of rounds.  A round is a fixed list of scenario
forms whose sizes (quadrature, degree, checks) never change; only the
physical parameters are drawn, from ``random.Random`` seeded with the
string ``"<seed>:<workload>:<round>"`` (stable across processes).  The program sees nothing but the scenario text this module
writes.  Every scenario declares the trace constant that theory guarantees
for its weight, so the expected verdict of every check is ``pass``.

The oracle for each scenario is the certified ``eps0`` in closed form:
``1 - lam^2`` for the cross weight, ``(2 - lam^2) / 2`` for the n = 2
quadratic cross form, and for ``c|t|^2 + |z|^2 + a|t z|^2`` the minimum of
its Schur trace ``c + a|z|^2 / (1 + a|t|^2)`` over the certification grid
(innermost fiber ring ``|z| = 0.25``, outermost base ring ``|t| = 0.45``).
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("disk_sweep", "polydisc_2d", "iterate_ledger")

PATCH_RADIUS = 0.45
# GridSpec defaults in bergman_lab.weights: the innermost fiber ring sits at
# 0.25 of the fiber radius and the outermost base ring at the patch radius.
GRID_FIBER_RING = 0.25
GRID_BASE_RING = PATCH_RADIUS

DISK_NUMERICS = "degree = 16\nquadrature = 48 96\n"
POLYDISC_NUMERICS = "degree = 10\nquadrature = 12 24\n"


def _point(rng: random.Random, radius: float) -> complex:
    """A point of the closed disk of the given radius, uniform in area."""
    r = radius * math.sqrt(rng.random())
    z = cmath.rect(r, 2.0 * math.pi * rng.random())
    return complex(round(z.real, 6), round(z.imag, 6))


def _c(z: complex) -> str:
    """Scenario spelling of a complex number, e.g. ``0.1-0.02j``."""
    return f"{z.real!r}{z.imag:+.6f}j"


def _header(sid: str, base_dim: int, fiber: str, patch_center: str) -> str:
    return (
        f"id = {sid}\nbase_dim = {base_dim}\nfiber = {fiber}\n"
        f"patch = {patch_center} ; {PATCH_RADIUS}\n"
    )


def _disk_cross(rng, sid):
    lam = round(rng.uniform(0.1, 0.7), 6)
    t0, s = _point(rng, 0.15), _point(rng, 0.3)
    eps0 = 1.0 - lam * lam
    text = (
        _header(sid, 1, "disk 1.0", "0")
        + f"weight = cross {lam!r}\nsection = {_c(s)} ; 1.0\ndet_frame = 1 | z1\n"
        + f"t0 = {_c(t0)}\n" + DISK_NUMERICS + f"eps0 = {eps0!r}\n"
        + "checks = certify bergman_infra section_inequality log_inequality "
        + "det_inequality psh_spectrum hormander\n"
    )
    return text, {"form": "cross", "lam": lam, "t0": [_c(t0)], "section": _c(s)}, eps0


def _disk_cross_n2(rng, sid):
    lam = round(rng.uniform(0.1, 0.7), 6)
    t0 = (_point(rng, 0.15), _point(rng, 0.15))
    s = _point(rng, 0.3)
    eps0 = (2.0 - lam * lam) / 2.0
    text = (
        _header(sid, 2, "disk 1.0", "0 0")
        + f"weight = quadratic 1 0 {-lam!r} ; 0 1 0 ; {-lam!r} 0 1\n"
        + f"section = {_c(s)} ; 1.0\nt0 = {_c(t0[0])} {_c(t0[1])}\n"
        + DISK_NUMERICS + f"eps0 = {eps0!r}\n"
        + "checks = certify section_inequality log_inequality psh_spectrum hormander\n"
    )
    params = {"form": "cross_n2", "lam": lam, "t0": [_c(t) for t in t0], "section": _c(s)}
    return text, params, eps0


def _disk_polynomial(rng, sid):
    c = round(rng.uniform(0.5, 1.5), 6)
    a = round(rng.uniform(0.1, 0.5), 6)
    t0, s = _point(rng, 0.15), _point(rng, 0.3)
    # Schur trace c + a|z|^2 / (1 + a|t|^2); theory guarantees its infimum c.
    certified = c + a * GRID_FIBER_RING**2 / (1.0 + a * GRID_BASE_RING**2)
    text = (
        _header(sid, 1, "disk 1.0", "0")
        + f"weight = polynomial (+ (* {c!r} (abs2 t1)) (abs2 z1) "
        + f"(* {a!r} (abs2 t1) (abs2 z1)))\n"
        + f"section = {_c(s)} ; 1.0\nt0 = {_c(t0)}\n" + DISK_NUMERICS + f"eps0 = {c!r}\n"
        + "checks = certify bergman_infra section_inequality log_inequality "
        + "psh_spectrum hormander\n"
    )
    params = {"form": "polynomial", "c": c, "a": a, "t0": [_c(t0)], "section": _c(s)}
    return text, params, certified


def _polydisc(rng, sid):
    lam = round(rng.uniform(0.1, 0.7), 6)
    t0 = _point(rng, 0.15)
    s = (_point(rng, 0.3), _point(rng, 0.3))
    eps0 = 1.0 - lam * lam
    text = (
        _header(sid, 1, "polydisc 1.0 1.0", "0")
        + f"weight = quadratic 1 {-lam!r} 0 ; {-lam!r} 1 0 ; 0 0 1\n"
        + f"section = {_c(s[0])} | {_c(s[1])} ; 1.0\nt0 = {_c(t0)}\n"
        + POLYDISC_NUMERICS + f"eps0 = {eps0!r}\n"
        + "checks = certify log_inequality psh_spectrum\n"
    )
    params = {"form": "polydisc_cross", "lam": lam, "t0": [_c(t0)], "section": [_c(x) for x in s]}
    return text, params, eps0


def _iterate(rng, sid, steps):
    lam = round(rng.uniform(0.1, 0.6), 6)
    m = rng.choice((2, 3))
    twist = 0.0 if rng.random() < 0.5 else round(rng.uniform(0.1, 0.5), 6)
    eps0 = 1.0 - lam * lam
    text = (
        _header(sid, 1, "disk 1.0", "0")
        + f"weight = cross {lam!r}\n" + DISK_NUMERICS + f"eps0 = {eps0!r}\n"
        + f"iteration = m {m} steps {steps}\ntwist = {twist!r}\n"
        + "checks = certify iterate\n"
    )
    params = {"form": "iterate", "lam": lam, "m": m, "steps": steps, "twist": twist}
    return text, params, eps0


def _iterate_round(rng, sid):
    """Three ledgers with steps a seeded permutation of (s, 10, 20 - s), s in 8..12.

    Every round then runs 30 steps in total, so the drawn step counts do not
    move the round time.
    """
    s = rng.randint(8, 12)
    steps = [s, 10, 20 - s]
    rng.shuffle(steps)
    return [_iterate(rng, f"{sid}-{k}", n) for k, n in enumerate(steps)]


def _forms(*forms):
    return lambda rng, sid: [form(rng, f"{sid}-{k}") for k, form in enumerate(forms)]


ROUNDS = {
    "disk_sweep": _forms(_disk_cross, _disk_cross_n2, _disk_polynomial),
    "polydisc_2d": _forms(_polydisc),
    "iterate_ledger": _iterate_round,
}


def round_scenarios(workload: str, seed: int, index: int) -> list:
    """Scenarios of round ``index``: a list of (text, params, expected_eps0)."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{seed}:{workload}:{index}")
    return ROUNDS[workload](rng, f"{workload}-s{seed}-r{index}")
