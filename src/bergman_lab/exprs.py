"""Tiny prefix-notation expression grammar for weights and sections.

Expressions are s-expressions over complex scalars:

    expr    := number | variable | '(' op expr... ')'
    op      := + | * | conj | exp | log | abs2 | re

Variables are declared by the caller (base coordinates ``t1..tn``, fiber
coordinates ``z1..zd``; the aliases ``t``/``z`` resolve to ``t1``/``z1``
when unambiguous).  Numbers are anything Python's ``complex()`` accepts
(``0.5``, ``-2``, ``1j``, ``1+2j``) and is finite.

Expressions are evaluated directly with numpy on arrays, and differentiated
as trees: :func:`wirtinger` returns the derivative in a variable or its
conjugate as another expression of the same grammar, which is what the
exact derivatives of every expression weight run on.  The symbolic
expansion into a table of monomials in the variables and their conjugates
(available only when the expression is free of ``exp``/``log``) decides
whether a weight is a real polynomial and expands holomorphic sections.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpressionError",
    "Expr",
    "Num",
    "Var",
    "Call",
    "parse_expr",
    "eval_expr",
    "wirtinger",
    "to_text",
    "expand_real_polynomial",
    "expand_holomorphic_polynomial",
    "PolyTable",
]

UNARY_OPS = ("conj", "exp", "log", "abs2", "re")
NARY_OPS = ("+", "*")


class ExpressionError(ValueError):
    """Malformed or out-of-dialect expression text."""


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple


Expr = Num | Var | Call


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_expr(text: str, variables: tuple[str, ...]) -> Expr:
    """Parse ``text`` into an expression tree over the given variables."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    pos = 0

    def atom(tok: str) -> Expr:
        name = tok
        if name == "t" and "t1" in variables and "t2" not in variables:
            name = "t1"
        if name == "z" and "z1" in variables and "z2" not in variables:
            name = "z1"
        if name in variables:
            return Var(name)
        try:
            value = complex(tok)
        except ValueError:
            raise ExpressionError(
                f"unknown symbol {tok!r}; variables here are {', '.join(variables)}"
            ) from None
        if not cmath.isfinite(value):
            raise ExpressionError(f"number {tok!r} is not finite")
        return Num(value)

    def parse_one() -> Expr:
        nonlocal pos
        if pos >= len(tokens):
            raise ExpressionError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise ExpressionError("unexpected ')'")
        if tok != "(":
            return atom(tok)
        if pos >= len(tokens):
            raise ExpressionError("unterminated '('")
        op = tokens[pos]
        pos += 1
        if op not in UNARY_OPS and op not in NARY_OPS:
            raise ExpressionError(f"unknown operator {op!r}")
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(parse_one())
        if pos >= len(tokens):
            raise ExpressionError("unterminated '('")
        pos += 1  # consume ')'
        if op in UNARY_OPS and len(args) != 1:
            raise ExpressionError(f"operator {op!r} takes exactly one argument, got {len(args)}")
        if op in NARY_OPS and len(args) < 2:
            raise ExpressionError(f"operator {op!r} needs at least two arguments")
        return Call(op, tuple(args))

    tree = parse_one()
    if pos != len(tokens):
        raise ExpressionError(f"trailing tokens after expression: {' '.join(tokens[pos:])}")
    return tree


def eval_expr(expr: Expr, env: dict[str, np.ndarray | complex]):
    """Evaluate with numpy broadcasting; returns complex scalar or array."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    args = [eval_expr(a, env) for a in expr.args]
    if expr.op == "+":
        out = args[0]
        for a in args[1:]:
            out = out + a
        return out
    if expr.op == "*":
        out = args[0]
        for a in args[1:]:
            out = out * a
        return out
    if expr.op == "conj":
        return np.conj(args[0])
    if expr.op == "exp":
        return np.exp(args[0])
    if expr.op == "log":
        return np.log(args[0])
    if expr.op == "abs2":
        return (args[0] * np.conj(args[0])).real
    if expr.op == "re":
        return np.real(args[0])
    raise ExpressionError(f"unknown operator {expr.op!r}")


def _sum(terms) -> Expr | None:
    terms = tuple(e for e in terms if e is not None)
    return None if not terms else terms[0] if len(terms) == 1 else Call("+", terms)


def _product(factors) -> Expr:
    factors = tuple(e for e in factors if e != Num(1 + 0j))
    return Num(1 + 0j) if not factors else factors[0] if len(factors) == 1 else Call("*", factors)


def wirtinger(expr: Expr, var: str, anti: bool = False) -> Expr | None:
    """The derivative of ``expr`` in ``var`` (in its conjugate when ``anti``)
    as an expression tree, or ``None`` where it is identically zero.

    The rules are closed in the grammar: the sum and product rules,
    ``d conj f = conj(dbar f)``, ``abs2 f = f conj f``, ``re f = (f + conj
    f)/2``, ``d exp f = exp f df`` and ``d log f = df exp(-log f)``.
    """
    if isinstance(expr, Num):
        return None
    if isinstance(expr, Var):
        return Num(1 + 0j) if expr.name == var and not anti else None
    op, args = expr.op, expr.args
    if op == "+":
        return _sum(wirtinger(a, var, anti) for a in args)
    if op == "*":
        parts = [(i, wirtinger(a, var, anti)) for i, a in enumerate(args)]
        return _sum(_product(args[:i] + (da,) + args[i + 1 :]) for i, da in parts if da is not None)
    if op == "abs2":
        return wirtinger(Call("*", (args[0], Call("conj", args))), var, anti)
    if op == "re":
        return wirtinger(Call("*", (Num(0.5 + 0j), Call("+", (args[0], Call("conj", args))))), var, anti)
    inner = wirtinger(args[0], var, anti != (op == "conj"))  # conj swaps d and dbar
    if inner is None:
        return None
    if op == "conj":
        return Num(inner.value.conjugate()) if isinstance(inner, Num) else Call("conj", (inner,))
    if op == "exp":
        return _product((expr, inner))
    if op == "log":
        return _product((inner, Call("exp", (Call("*", (Num(-1 + 0j), expr)),))))
    raise ExpressionError(f"unknown operator {op!r}")


def to_text(expr: Expr) -> str:
    """Canonical s-expression text (parse(to_text(e)) == e)."""
    if isinstance(expr, Num):
        v = expr.value
        if v.imag == 0:
            return repr(v.real)
        return f"{v!r}".strip("()")
    if isinstance(expr, Var):
        return expr.name
    return "(" + " ".join([expr.op] + [to_text(a) for a in expr.args]) + ")"


class PolyTable:
    """Sparse polynomial in variables and their conjugates.

    Keys are ``(holo, anti)`` pairs of exponent tuples aligned with the
    variable order; values are complex coefficients.  Supports the ring
    operations the expansion needs and the reality test of polynomial
    weights.
    """

    def __init__(self, variables: tuple[str, ...], terms: dict | None = None):
        self.variables = tuple(variables)
        self.terms: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
        for key, c in (terms or {}).items():
            self._add(key, c)

    def _add(self, key, coeff):
        if abs(coeff) == 0:
            return
        cur = self.terms.get(key, 0j) + coeff
        if abs(cur) < 1e-300:
            self.terms.pop(key, None)
        else:
            self.terms[key] = cur

    def __add__(self, other: "PolyTable") -> "PolyTable":
        out = PolyTable(self.variables, self.terms)
        for key, c in other.terms.items():
            out._add(key, c)
        return out

    def __mul__(self, other: "PolyTable") -> "PolyTable":
        out = PolyTable(self.variables)
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                out._add(key, c1 * c2)
        return out

    def scale(self, c: complex) -> "PolyTable":
        return PolyTable(self.variables, {k: v * c for k, v in self.terms.items()})

    def conjugate(self) -> "PolyTable":
        return PolyTable(
            self.variables, {(b, a): np.conj(c) for (a, b), c in self.terms.items()}
        )

    def is_real(self, tol: float = 1e-12) -> bool:
        """True when the polynomial is real-valued (conjugation-symmetric)."""
        scale = max((abs(c) for c in self.terms.values()), default=1.0)
        for (a, b), c in self.terms.items():
            if abs(c - np.conj(self.terms.get((b, a), 0j))) > tol * scale:
                return False
        return True


def expand_real_polynomial(expr: Expr, variables: tuple[str, ...]) -> PolyTable:
    """Expand an exp/log-free expression into a :class:`PolyTable`.

    Conjugations, ``abs2`` and ``re`` are folded into the doubled variable
    set; ``exp``/``log`` are rejected (the result would not be polynomial).
    """
    index = {v: i for i, v in enumerate(variables)}
    zero = (0,) * len(variables)

    def rec(e: Expr) -> PolyTable:
        if isinstance(e, Num):
            return PolyTable(variables, {(zero, zero): e.value})
        if isinstance(e, Var):
            holo = tuple(1 if i == index[e.name] else 0 for i in range(len(variables)))
            return PolyTable(variables, {(holo, zero): 1.0 + 0j})
        if e.op == "+":
            out = rec(e.args[0])
            for a in e.args[1:]:
                out = out + rec(a)
            return out
        if e.op == "*":
            out = rec(e.args[0])
            for a in e.args[1:]:
                out = out * rec(a)
            return out
        if e.op == "conj":
            return rec(e.args[0]).conjugate()
        if e.op == "abs2":
            p = rec(e.args[0])
            return p * p.conjugate()
        if e.op == "re":
            p = rec(e.args[0])
            return (p + p.conjugate()).scale(0.5)
        raise ExpressionError(f"operator {e.op!r} is not polynomial; use the custom weight kind")

    return rec(expr)


def expand_holomorphic_polynomial(expr: Expr, variables: tuple[str, ...]) -> dict:
    """Expand a holomorphic polynomial to {exponent tuple: coefficient}.

    Only ``+``, ``*``, numbers and variables are admitted — conjugation (or
    anything built from it) breaks holomorphy and is rejected.
    """

    def check(e: Expr):
        if isinstance(e, Call):
            if e.op not in NARY_OPS:
                raise ExpressionError(
                    f"operator {e.op!r} is not holomorphic; sections and amplitudes "
                    "must be polynomials in the plain variables"
                )
            for a in e.args:
                check(a)

    check(expr)
    table = expand_real_polynomial(expr, variables)
    return {a: c for (a, _b), c in table.terms.items()}
