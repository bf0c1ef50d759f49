"""Text scenarios: one file describes a weight, sections, numerics, and checks.

Format: ``key = value`` lines, ``#`` comments, blank lines ignored.  Keys
other than ``section`` appear at most once.

::

    id = cross_term_l05
    base_dim = 1
    fiber = disk 1.0                  # disk R | polydisc R1 R2 | annulus r R
    patch = 0 ; 0.45                  # n center coordinates ; radius
    weight = cross 0.5                # see weight forms below
    section = 0.0 ; 1.0               # fiber components '|'-separated ; amplitude
    det_frame = 1 | z1                # optional: fiber polynomials for det checks
    t0 = 0
    degree = 24
    quadrature = 64 128
    tolerance = 1e-3
    eps0 = 0.75                       # optional override of the certified constant
    iteration = m 2 steps 8
    twist = 0.0
    checks = certify log_inequality hormander
    seed = 7

Weight forms (entries may be complex, written like ``0.5+0.25j``):

* ``separable <c>`` — c|t|^2 + |xi|^2
* ``cross <lam>`` — cross-term coupling of t_1 and xi_1
* ``quadratic <row> ; <row> ; …`` — Hermitian (n+d)x(n+d) matrix, row-major
* ``polynomial <prefix expr>`` — real polynomial in t_i, z_a, conj(...)
* ``custom <prefix expr>`` — arbitrary smooth expression (derivatives by FD)

Defaults: degree 24, quadrature 64 128, tolerance 1e-3,
patch = origin with radius 0.45, fiber = unit disk, one unit-amplitude
section at the fiber origin, t0 = patch center, no checks, seed 0.
Unknown keys, unknown check names and unreadable numbers are parse errors
naming the line.  The numeric ranges are checked when a :class:`Scenario`
is constructed, so command-line overrides applied with
``dataclasses.replace`` meet them too: the quadrature floor of
:func:`build_quadrature` and its node cap (``(n_radial * n_angular) ** d``
at most ``2**20``), ``2 <= degree <= n_angular/2 - 1`` (above that
angular modes alias), finite nonnegative ``tolerance``, ``eps0`` and
``twist``, and ``m >= 2``, ``0 <= steps <= 12`` for the iteration.  The
parser also requires ``t0`` to lie in the base patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergman import HoloPoly, SectionFamily, SectionOutsideDomainError
from .fiber_numerics import FiberDomain, build_quadrature, check_resolution, max_exact_degree
from .iteration import MAX_STEPS
from .weights import (
    BasePatch,
    CustomWeight,
    GridSpec,
    PolynomialWeight,
    QuadraticWeight,
    WeightFamily,
)

__all__ = ["Scenario", "ScenarioError", "CHECK_REGISTRY", "parse_scenario"]

CHECK_REGISTRY = (
    "certify",
    "bergman_infra",
    "section_inequality",
    "log_inequality",
    "det_inequality",
    "psh_spectrum",
    "hormander",
    "iterate",
)

DEFAULTS = {
    "degree": 24,
    "quadrature": (64, 128),
    "tolerance": 1e-3,
    "patch_radius": 0.45,
    "seed": 0,
}


class ScenarioError(ValueError):
    """Parse or semantic error in a scenario file, with line context."""


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment description (defaults filled in)."""

    id: str
    n: int
    d: int
    patch: BasePatch
    fiber: FiberDomain
    weight: WeightFamily
    sections: SectionFamily
    det_frame: tuple = ()
    t0: tuple = (0j,)
    N: int = DEFAULTS["degree"]
    quadrature: tuple = DEFAULTS["quadrature"]
    tolerance: float = DEFAULTS["tolerance"]
    eps0: float | None = None
    iteration_m: int = 2
    iteration_steps: int = 4
    twist: float = 0.0
    checks: tuple = ()
    seed: int = DEFAULTS["seed"]
    source: str = field(default="", repr=False)

    def __post_init__(self):
        nr, na = self.quadrature
        try:
            check_resolution(nr, na, self.fiber.dim)
        except ValueError as exc:
            raise _err(0, "quadrature", str(exc)) from None
        if self.N < 2:
            raise _err(0, "degree", "kernel degree must be at least 2")
        if self.N > max_exact_degree(na):
            raise _err(
                0, "degree",
                f"degree {self.N} exceeds n_angular/2 - 1 = {max_exact_degree(na)} for "
                f"quadrature {nr} {na}: angular modes would alias (lower the degree or "
                f"raise n_angular to at least {2 * (self.N + 1)})",
            )
        for key, value in (("tolerance", self.tolerance), ("eps0", self.eps0),
                           ("twist", self.twist)):
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise _err(0, key, f"{value} is not a finite nonnegative number")
        if self.iteration_m < 2 or not 0 <= self.iteration_steps <= MAX_STEPS:
            raise _err(
                0, "iteration",
                f"need m >= 2 and 0 <= steps <= {MAX_STEPS}, got m {self.iteration_m} "
                f"steps {self.iteration_steps}",
            )

    def build_quad(self):
        nr, na = self.quadrature
        return build_quadrature(self.fiber, nr, na)

    def grid_spec(self) -> GridSpec:
        return GridSpec(patch=self.patch, fiber=self.fiber)

    def config(self) -> dict:
        """Everything that determines the run's numbers (hashable payload)."""
        return {
            "id": self.id,
            "n": self.n,
            "d": self.d,
            "patch": {"center": [repr(c) for c in self.patch.center], "radius": self.patch.radius},
            "fiber": {
                "kind": self.fiber.kind,
                "radii": list(self.fiber.radii),
                "inner_radii": list(self.fiber.inner_radii),
            },
            "weight": self.weight.describe(),
            "sections": [
                {
                    "components": [_poly_key(c) for c in s],
                    "amplitude": _poly_key(a),
                }
                for s, a in zip(self.sections.sections, self.sections.amplitudes)
            ],
            "det_frame": [_poly_key(f) for f in self.det_frame],
            "t0": [repr(c) for c in self.t0],
            "degree": self.N,
            "quadrature": list(self.quadrature),
            "tolerance": self.tolerance,
            "eps0": self.eps0,
            "iteration": {"m": self.iteration_m, "steps": self.iteration_steps},
            "twist": self.twist,
            "checks": list(self.checks),
            "seed": self.seed,
        }


def _poly_key(p: HoloPoly) -> list:
    """Order-independent content key of a polynomial, for config hashing."""
    return [[list(exp), repr(c)] for exp, c in sorted(p.coeffs.items())]


def _err(lineno: int, key: str, msg: str) -> ScenarioError:
    where = f"line {lineno}" if lineno else "scenario"
    return ScenarioError(f"{where}, field {key!r}: {msg}")


def _parse_number(kind, tok: str, lineno: int, key: str):
    """``kind(tok)`` for kind int, float or complex, or a ScenarioError naming the line."""
    try:
        return kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise _err(lineno, key, f"cannot read {tok!r} as {what}") from None


def _parse_fiber(value: str, lineno: int) -> FiberDomain:
    parts = value.split()
    if not parts:
        raise _err(lineno, "fiber", "empty fiber description")
    kind, args = parts[0], parts[1:]
    try:
        nums = [float(a) for a in args]
        if kind == "disk":
            return FiberDomain.disk(*nums)
        if kind == "polydisc":
            return FiberDomain.polydisc(*nums)
        if kind == "annulus":
            return FiberDomain.annulus(*nums)
    except (TypeError, ValueError) as exc:
        raise _err(lineno, "fiber", str(exc)) from None
    raise _err(lineno, "fiber", f"unknown fiber kind {kind!r} (disk|polydisc|annulus)")


def _parse_weight(value: str, n: int, d: int, lineno: int) -> WeightFamily:
    kind, _, rest = value.partition(" ")
    rest = rest.strip()
    if kind == "separable":
        lam = _parse_number(float, rest or "1.0", lineno, "weight")
        return QuadraticWeight.separable(lam, n, d)
    if kind == "cross":
        lam = _parse_number(float, rest or "0.5", lineno, "weight")
        return QuadraticWeight.cross_term(lam, n, d)
    if kind == "quadratic":
        rows = [r.split() for r in rest.split(";")]
        m = n + d
        if len(rows) != m or any(len(r) != m for r in rows):
            raise _err(lineno, "weight", f"quadratic weight needs {m} rows of {m} entries")
        H = np.array([[_parse_number(complex, x, lineno, "weight") for x in row] for row in rows])
        try:
            return QuadraticWeight(n, d, H, label="quadratic")
        except ValueError as exc:
            raise _err(lineno, "weight", str(exc)) from None
    if kind == "polynomial":
        try:
            return PolynomialWeight.from_text(n, d, rest)
        except Exception as exc:
            raise _err(lineno, "weight", str(exc)) from None
    if kind == "custom":
        try:
            return CustomWeight.from_text(n, d, rest)
        except Exception as exc:
            raise _err(lineno, "weight", str(exc)) from None
    raise _err(
        lineno, "weight",
        f"unknown weight form {kind!r} (separable|cross|quadratic|polynomial|custom)",
    )


def _parse_section(value: str, n: int, d: int, lineno: int):
    comps_text, sep, amp_text = value.partition(";")
    tvars = tuple(f"t{i+1}" for i in range(n))
    comps = [c.strip() for c in comps_text.split("|")]
    if len(comps) != d:
        raise _err(lineno, "section", f"expected {d} fiber component(s), got {len(comps)}")
    try:
        polys = tuple(HoloPoly.from_text(c, tvars) for c in comps)
        amp = HoloPoly.from_text(amp_text.strip(), tvars) if sep else HoloPoly.constant(1.0, n)
    except Exception as exc:
        raise _err(lineno, "section", str(exc)) from None
    return polys, amp


def _parse_det_frame(value: str, d: int, lineno: int) -> tuple:
    zvars = tuple(f"z{a+1}" for a in range(d))
    out = []
    for piece in value.split("|"):
        try:
            out.append(HoloPoly.from_text(piece.strip(), zvars))
        except Exception as exc:
            raise _err(lineno, "det_frame", str(exc)) from None
    return tuple(out)


def parse_scenario(text: str) -> Scenario:
    entries: dict = {}
    section_lines: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if key == "section":
            section_lines.append((lineno, value))
            continue
        if key in entries:
            raise _err(lineno, key, "duplicate key")
        entries[key] = (lineno, value)

    known = {
        "id", "base_dim", "fiber_dim", "fiber", "patch", "weight", "det_frame",
        "t0", "degree", "quadrature", "tolerance", "eps0",
        "iteration", "twist", "checks", "seed",
    }
    for key, (lineno, _v) in entries.items():
        if key not in known:
            raise _err(lineno, key, "unknown key")

    def take(key, default=None):
        if key in entries:
            return entries[key]
        return (0, default)

    lineno, value = take("base_dim", "1")
    n = _parse_number(int, value, lineno, "base_dim")

    lineno, value = take("fiber", "disk 1.0")
    fiber = _parse_fiber(value, lineno)
    d = fiber.dim
    if "fiber_dim" in entries:
        lineno, value = entries["fiber_dim"]
        if _parse_number(int, value, lineno, "fiber_dim") != d:
            raise _err(lineno, "fiber_dim", f"fiber_dim {value} contradicts the {d}-dimensional fiber")

    lineno, value = take("patch", None)
    if value is None:
        patch = BasePatch(center=(0j,) * n, radius=DEFAULTS["patch_radius"])
    else:
        coords_text, sep, radius_text = value.partition(";")
        toks = coords_text.split()
        if not sep or len(toks) != n:
            raise _err(lineno, "patch", f"expected {n} center coordinate(s), ';', then a radius")
        center = tuple(_parse_number(complex, tk, lineno, "patch") for tk in toks)
        try:
            patch = BasePatch(center=center, radius=float(radius_text))
        except ValueError as exc:
            raise _err(lineno, "patch", str(exc)) from None

    if "weight" not in entries:
        raise ScenarioError("scenario is missing the required 'weight' field")
    lineno, value = entries["weight"]
    weight = _parse_weight(value, n, d, lineno)

    if section_lines:
        rows = [_parse_section(v, n, d, ln) for ln, v in section_lines]
        sections = SectionFamily(
            base_dim=n,
            fiber_dim=d,
            sections=tuple(r[0] for r in rows),
            amplitudes=tuple(r[1] for r in rows),
        )
    else:
        sections = SectionFamily.constant([[0.0] * d], base_dim=n)

    lineno, value = take("det_frame", None)
    det_frame = _parse_det_frame(value, d, lineno) if value is not None else ()

    lineno, value = take("t0", None)
    if value is None:
        t0 = patch.center
    else:
        toks = value.split()
        if len(toks) != n:
            raise _err(lineno, "t0", f"expected {n} coordinate(s), got {len(toks)}")
        t0 = tuple(_parse_number(complex, tk, lineno, "t0") for tk in toks)
    if not patch.contains(t0):
        raise _err(lineno, "t0", f"base point {value!r} lies outside the patch")

    lineno, value = take("degree", str(DEFAULTS["degree"]))
    N = _parse_number(int, value, lineno, "degree")

    lineno, value = take("quadrature", None)
    if value is None:
        quadrature = DEFAULTS["quadrature"]
    else:
        toks = value.split()
        if len(toks) != 2:
            raise _err(lineno, "quadrature", "expected two integers: n_radial n_angular")
        quadrature = tuple(_parse_number(int, tok, lineno, "quadrature") for tok in toks)

    lineno, value = take("tolerance", str(DEFAULTS["tolerance"]))
    tolerance = _parse_number(float, value, lineno, "tolerance")

    lineno, value = take("eps0", None)
    eps0 = None if value is None else _parse_number(float, value, lineno, "eps0")

    lineno, value = take("iteration", None)
    iteration_m, iteration_steps = 2, 4
    if value is not None:
        toks = value.split()
        pairs = dict(zip(toks[::2], toks[1::2]))
        if set(pairs) - {"m", "steps"} or len(toks) % 2:
            raise _err(lineno, "iteration", f"expected 'm <int> steps <int>', got {value!r}")
        iteration_m = _parse_number(int, pairs.get("m", "2"), lineno, "iteration")
        iteration_steps = _parse_number(int, pairs.get("steps", "4"), lineno, "iteration")

    lineno, value = take("twist", "0.0")
    twist = _parse_number(float, value, lineno, "twist")

    lineno, value = take("checks", "")
    checks = tuple(value.replace(",", " ").split())
    for name in checks:
        if name not in CHECK_REGISTRY:
            raise _err(
                lineno, "checks",
                f"unknown check {name!r}; registered: {', '.join(CHECK_REGISTRY)}",
            )

    lineno, value = take("seed", str(DEFAULTS["seed"]))
    seed = _parse_number(int, value, lineno, "seed")

    lineno, value = take("id", "scenario")
    sid = value.strip() or "scenario"

    if "det_inequality" in checks and not det_frame:
        raise ScenarioError("check 'det_inequality' needs a 'det_frame' field")

    try:
        sections.validate_on_patch(fiber, patch)
    except SectionOutsideDomainError as exc:
        raise ScenarioError(f"field 'section': {exc}") from None

    return Scenario(
        id=sid,
        n=n,
        d=d,
        patch=patch,
        fiber=fiber,
        weight=weight,
        sections=sections,
        det_frame=det_frame,
        t0=t0,
        N=N,
        quadrature=quadrature,
        tolerance=tolerance,
        eps0=eps0,
        iteration_m=iteration_m,
        iteration_steps=iteration_steps,
        twist=twist,
        checks=checks,
        seed=seed,
        source=text,
    )
