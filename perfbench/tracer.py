"""Outside-in span tracer for bergman_lab.

Nothing in the package is edited.  ``Tracer.install`` rebinds each traced
function in every ``bergman_lab.*`` module that holds a reference to it
(the modules use ``from .fiber_numerics import vandermonde`` and the like,
so patching only the defining module would miss most calls), and wraps the
methods named in ``METHODS`` on their classes.  ``uninstall`` puts every
original back.

One span stack gives self time: a span's duration minus the time its child
spans cover.  ``total_s`` counts only the outermost activation of a name,
so recursion (nested weights build bases of their inner weights) is not
counted twice.  Counters are taken at the same boundaries: computed
Vandermonde and Gram sizes, basis builds against distinct (weight, t, N,
quadrature) keys per scenario, and stencil points.  ``metrics`` divides
every count and time by the number of traced rounds.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import time
from collections import Counter, defaultdict

# (defining module, function, span name)
FUNCTIONS = (
    ("fiber_numerics", "build_quadrature", "fiber_numerics.build_quadrature"),
    ("fiber_numerics", "vandermonde", "fiber_numerics.vandermonde"),
    ("fiber_numerics", "gram_matrix", "fiber_numerics.gram_matrix"),
    ("fiber_numerics", "orthonormalize", "fiber_numerics.orthonormalize"),
    ("bergman", "bergman_basis", "bergman.bergman_basis"),
    ("bergman", "section_value", "bergman.section_value"),
    ("bergman", "section_value_pair", "bergman.section_value"),
    ("weights", "certify", "weights.certify"),
    ("curvature", "fd_hessian", "curvature.fd_hessian"),
    ("curvature", "check_section_inequality", "curvature.check_section_inequality"),
    ("curvature", "check_log_inequality", "curvature.check_log_inequality"),
    ("curvature", "check_det_inequality", "curvature.check_det_inequality"),
    ("hormander", "build_hormander_data", "hormander.build_hormander_data"),
    ("hormander", "orthogonality_residual", "hormander.residuals"),
    ("hormander", "dbar_identity_residual", "hormander.residuals"),
    ("hormander", "hormander_bound_check", "hormander.residuals"),
    ("hormander", "assembled_lower_bound", "hormander.assembled_lower_bound"),
    ("iteration", "run_iteration", "iteration.run_iteration"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("reports", "write_report", "reports.write_report"),
    ("cli", "run_scenario_checks", "cli.run_scenario_checks"),
    ("cli", "run_check", "cli.run_check"),
)

# (module, class, method, span name, also wrap overrides in subclasses)
METHODS = (
    ("weights", "WeightFamily", "weight_values", "weights.weight_values", False),
    ("weights", "WeightFamily", "hessian_field", "weights.hessian_field", True),
    ("bergman", "BergmanBasis", "monomials_at", "bergman.monomials_at", False),
    ("bergman", "DirectImageGram", "gram_at", "bergman.gram_at", False),
)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Span stack, per-name statistics and counters for one traced run."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.run_check_s: list = []
        self._stack: list = []  # [start, time covered by children]
        self._depth = Counter()
        self._keys: set = set()
        self._key_refs: list = []
        self._patches: list = []  # (owner, attribute, original)
        self._hooks = {
            "fiber_numerics.vandermonde": self._count_vandermonde,
            "fiber_numerics.gram_matrix": self._count_gram,
            "bergman.bergman_basis": self._count_basis,
            "curvature.fd_hessian": self._count_stencil,
            "cli.run_check": self._count_check,
        }

    # --- counters at the span boundaries --------------------------------

    def _count_vandermonde(self, args, kwargs, result, dur):
        self.counts["vandermonde.elems"] += int(result.size)

    def _count_gram(self, args, kwargs, result, dur):
        quad = args[2] if len(args) > 2 else kwargs["quad"]
        dim = result.shape[0]
        self.counts["gram_matrix.madds"] += int(quad.size) * dim * dim

    def _count_basis(self, args, kwargs, result, dur):
        w, _t, N, quad = args[:4]
        key = (id(w), result.t, N, id(quad))  # result.t is the normalized base point
        if key not in self._keys:
            self._keys.add(key)
            self._key_refs.append((w, quad))  # keep ids unique within the scenario
            self.counts["basis_distinct"] += 1

    def _count_stencil(self, args, kwargs, result, dur):
        st = args[1] if len(args) > 1 else kwargs["st"]
        self.counts["fd_hessian.points"] += st.count

    def _count_check(self, args, kwargs, result, dur):
        self.run_check_s.append(dur)
        self.counts[f"verdict.{result.verdict}"] += 1

    def begin_scenario(self):
        """Basis keys are distinct per scenario run, like a per-run memo."""
        self._keys.clear()
        self._key_refs.clear()

    # --- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        stack, depth, hook = self._stack, self._depth, self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if depth[name] == 0:
                    self.total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("bergman_lab")
        by_name = {
            info.name: importlib.import_module(f"bergman_lab.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        }
        mods = list(by_name.values())
        for home, func, name in FUNCTIONS:
            original = getattr(by_name[home], func)
            wrapped = self._wrap(name, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        for home, cls_name, method, name, overrides in METHODS:
            base = getattr(by_name[home], cls_name)
            for cls in _subclasses(base) if overrides else [base]:
                if method in vars(cls):
                    original = vars(cls)[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results ---------------------------------------------------------

    def layer_self_total(self) -> float:
        """Self time of the layer spans, leaving out the ``cli.*`` umbrellas.

        ``cli.run_scenario_checks`` and ``cli.run_check`` wrap whole
        scenarios and checks, so their self time is whatever no layer span
        covers; counting it would make the coverage 1 by construction.
        """
        return sum(v for name, v in self.self_s.items() if not name.startswith("cli."))

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures under their benchmark names: (value per round, unit)."""
        c, s, tot, k = self.calls, self.self_s, self.total_s, self.counts
        builds = c["bergman.bergman_basis"]
        ratio = k["basis_distinct"] / builds if builds else 1.0
        n, t, comp = "count/round", "s/round", "computed/round"
        per_round = {
            "fiber_numerics.vandermonde.calls": (c["fiber_numerics.vandermonde"], n),
            "fiber_numerics.vandermonde.self_s": (s["fiber_numerics.vandermonde"], t),
            "fiber_numerics.vandermonde.elems": (k["vandermonde.elems"], comp),
            "fiber_numerics.gram_matrix.calls": (c["fiber_numerics.gram_matrix"], n),
            "fiber_numerics.gram_matrix.self_s": (s["fiber_numerics.gram_matrix"], t),
            "fiber_numerics.gram_matrix.madds": (k["gram_matrix.madds"], comp),
            "fiber_numerics.orthonormalize.calls": (c["fiber_numerics.orthonormalize"], n),
            "fiber_numerics.orthonormalize.self_s": (s["fiber_numerics.orthonormalize"], t),
            "fiber_numerics.build_quadrature.self_s": (s["fiber_numerics.build_quadrature"], t),
            "bergman.bergman_basis.calls": (builds, n),
            "bergman.bergman_basis.total_s": (tot["bergman.bergman_basis"], t),
            "bergman.basis_distinct": (k["basis_distinct"], n),
            "bergman.monomials_at.calls": (c["bergman.monomials_at"], n),
            "bergman.monomials_at.self_s": (s["bergman.monomials_at"], t),
            "bergman.section_value.calls": (c["bergman.section_value"], n),
            "bergman.section_value.total_s": (tot["bergman.section_value"], t),
            "bergman.gram_at.calls": (c["bergman.gram_at"], n),
            "bergman.gram_at.self_s": (s["bergman.gram_at"], t),
            "weights.weight_values.calls": (c["weights.weight_values"], n),
            "weights.weight_values.self_s": (s["weights.weight_values"], t),
            "weights.hessian_field.calls": (c["weights.hessian_field"], n),
            "weights.hessian_field.self_s": (s["weights.hessian_field"], t),
            "weights.certify.total_s": (tot["weights.certify"], t),
            "curvature.fd_hessian.calls": (c["curvature.fd_hessian"], n),
            "curvature.fd_hessian.total_s": (tot["curvature.fd_hessian"], t),
            "curvature.fd_hessian.points": (k["fd_hessian.points"], n),
            "curvature.check_section_inequality.total_s":
                (tot["curvature.check_section_inequality"], t),
            "curvature.check_log_inequality.total_s": (tot["curvature.check_log_inequality"], t),
            "curvature.check_det_inequality.total_s": (tot["curvature.check_det_inequality"], t),
            "hormander.build_hormander_data.total_s": (tot["hormander.build_hormander_data"], t),
            "hormander.residuals.total_s": (tot["hormander.residuals"], t),
            "hormander.assembled_lower_bound.total_s": (tot["hormander.assembled_lower_bound"], t),
            "iteration.run_iteration.total_s": (tot["iteration.run_iteration"], t),
            "scenario.parse_scenario.self_s": (s["scenario.parse_scenario"], t),
            "reports.write_report.self_s": (s["reports.write_report"], t),
            "cli.run_check.self_s": (s["cli.run_check"], t),
            "cli.verdict.pass": (k["verdict.pass"], n),
            "cli.verdict.fail": (k["verdict.fail"], n),
            "cli.verdict.unconverged": (k["verdict.unconverged"], n),
        }
        out = {name: (value / rounds, unit) for name, (value, unit) in per_round.items()}
        out["bergman.basis_reuse_ratio"] = (ratio, "ratio")
        out["cli.run_check.p90_s"] = (_quantile(self.run_check_s, 0.9), "s")
        return out


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
