"""Prefix expression grammar: parsing, evaluation, differentiation and
polynomial expansion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bergman_lab.exprs import (
    Call,
    ExpressionError,
    Num,
    Var,
    eval_expr,
    expand_holomorphic_polynomial,
    expand_real_polynomial,
    parse_expr,
    to_text,
    wirtinger,
)

TZ = ("t1", "z1")


def table_value(table, values):
    """A polynomial table evaluated term by term at one value per variable."""
    return sum(
        c * np.prod([v**ka * np.conj(v) ** kb for v, ka, kb in zip(values, a, b)])
        for (a, b), c in table.terms.items()
    )


class TestParse:
    def test_atom_number(self):
        assert parse_expr("2.5", TZ) == Num(2.5 + 0j)
        assert parse_expr("1j", TZ) == Num(1j)

    def test_atom_variable_and_alias(self):
        assert parse_expr("z1", TZ) == Var("z1")
        assert parse_expr("z", TZ) == Var("z1")
        assert parse_expr("t", TZ) == Var("t1")

    def test_alias_refused_when_ambiguous(self):
        with pytest.raises(ExpressionError, match="unknown symbol"):
            parse_expr("t", ("t1", "t2", "z1"))

    def test_nested(self):
        e = parse_expr("(+ (abs2 t1) (abs2 z1) (* 1.0 (re (* t1 (conj z1)))))", TZ)
        assert isinstance(e, Call) and e.op == "+" and len(e.args) == 3

    def test_errors(self):
        for bad in ["", "(+ 1", "(foo 1 2)", "(conj 1 2)", "(+ 1)", "1 2", "(+ 1 q)"]:
            with pytest.raises(ExpressionError):
                parse_expr(bad, TZ)

    def test_roundtrip(self):
        text = "(+ (abs2 z1) (re (* 2.0 t1 (conj z1))))"
        e = parse_expr(text, TZ)
        assert parse_expr(to_text(e), TZ) == e


class TestEval:
    def test_vectorized(self):
        e = parse_expr("(+ (abs2 z1) (* 0.5 (conj z1)))", TZ)
        z = np.array([1.0 + 1j, 2.0])
        out = eval_expr(e, {"z1": z})
        assert np.allclose(out, np.abs(z) ** 2 + 0.5 * np.conj(z))

    def test_exp_log(self):
        e = parse_expr("(log (exp (abs2 t1)))", TZ)
        assert eval_expr(e, {"t1": 0.5 + 0.5j}) == pytest.approx(0.5)

    def test_re_returns_real(self):
        e = parse_expr("(re (* t1 (conj z1)))", TZ)
        val = eval_expr(e, {"t1": 1 + 2j, "z1": 3 - 1j})
        assert np.isrealobj(val)
        assert val == pytest.approx(np.real((1 + 2j) * np.conj(3 - 1j)))


class TestRealExpansion:
    def test_cross_term_weight(self):
        # |t|^2 + |z|^2 + 2 lam Re(t conj(z)) expands to 4 + 2 monomials
        lam = 0.5
        e = parse_expr(f"(+ (abs2 t1) (abs2 z1) (* {2*lam} (re (* t1 (conj z1)))))", TZ)
        table = expand_real_polynomial(e, TZ)
        assert table.is_real()
        t, z = 0.3 + 0.1j, -0.2 + 0.4j
        direct = abs(t) ** 2 + abs(z) ** 2 + 2 * lam * np.real(t * np.conj(z))
        assert table_value(table, [t, z]) == pytest.approx(direct, abs=1e-14)

    def test_rejects_exp(self):
        e = parse_expr("(exp (abs2 z1))", TZ)
        with pytest.raises(ExpressionError, match="not polynomial"):
            expand_real_polynomial(e, TZ)

    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
                st.integers(0, 2),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=4,
        ),
        st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    )
    def test_real_part_always_real_table(self, terms, z):
        # re(any polynomial) expands to a conjugation-symmetric table;
        # build (re (+ terms)) through the AST instead of formatting text
        args = []
        for c, a, b in terms:
            factors = [Num(c)] + [Var("z1")] * a + [Call("conj", (Var("z1"),))] * b
            args.append(factors[0] if len(factors) == 1 else Call("*", tuple(factors)))
        poly = args[0] if len(args) == 1 else Call("+", tuple(args))
        table = expand_real_polynomial(Call("re", (poly,)), ("z1",))
        assert table.is_real(tol=1e-9)
        val = table_value(table, [z])
        direct = np.real(sum(c * z**a * np.conj(z) ** b for c, a, b in terms))
        assert abs(val - direct) < 1e-9 * max(1.0, abs(direct))


class TestWirtinger:
    def test_wirtinger_matches_hand(self):
        e = parse_expr("(abs2 z1)", TZ)
        dz = wirtinger(e, "z1")  # d/dz of z conj(z) = conj(z)
        assert eval_expr(dz, {"t1": 0j, "z1": 2 + 1j}) == pytest.approx(2 - 1j)
        dzz = wirtinger(dz, "z1", anti=True)
        assert eval_expr(dzz, {"t1": 0j, "z1": 5j}) == pytest.approx(1.0)

    def test_zero_derivatives_are_none(self):
        assert wirtinger(parse_expr("2.5", TZ), "z1") is None
        assert wirtinger(parse_expr("(abs2 z1)", TZ), "t1") is None
        assert wirtinger(parse_expr("(* 3 z1)", TZ), "z1", anti=True) is None  # holomorphic
        assert wirtinger(parse_expr("(conj z1)", TZ), "z1") is None
        assert wirtinger(wirtinger(parse_expr("(+ (abs2 t1) (abs2 z1))", TZ), "t1"), "z1", anti=True) is None

    def test_log_hessian_closed_form(self):
        # d dbar log(1 + |z|^2) = (1 + |z|^2)^-2
        ddbar = wirtinger(wirtinger(parse_expr("(log (+ 1 (abs2 z1)))", TZ), "z1"), "z1", anti=True)
        z = np.array([0j, 0.3 - 0.4j, 1.5 + 2j])
        want = (1 + np.abs(z) ** 2) ** -2
        assert np.abs(eval_expr(ddbar, {"z1": z}) - want).max() <= 1e-15 * want.max()

    def test_exp_conj_and_re_rules(self):
        # f = exp(Re(t) |z|^2): d_t f = f |z|^2 / 2, d_z f = f Re(t) conj(z),
        # d_t dbar_z f = f z (1 + Re(t) |z|^2) / 2
        f = parse_expr("(exp (* (re t1) (abs2 z1)))", TZ)
        t, z = 0.7 - 0.2j, np.array([0.1 + 0.2j, -0.5j, 0.8])
        env = {"t1": t, "z1": z}
        F = np.exp(t.real * np.abs(z) ** 2)
        cases = [
            (wirtinger(f, "t1"), F * np.abs(z) ** 2 / 2),
            (wirtinger(f, "z1"), F * t.real * np.conj(z)),
            (wirtinger(f, "z1", anti=True), F * t.real * z),
            (wirtinger(wirtinger(f, "t1"), "z1", anti=True), F * z * (1 + t.real * np.abs(z) ** 2) / 2),
        ]
        for tree, want in cases:
            assert np.abs(eval_expr(tree, env) - want).max() <= 1e-15 * np.abs(want).max()


class TestHolomorphicExpansion:
    def test_section_polynomial(self):
        e = parse_expr("(+ 0.25 (* 0.5 t1 t1))", ("t1",))
        coeffs = expand_holomorphic_polynomial(e, ("t1",))
        assert coeffs == {(0,): 0.25 + 0j, (2,): 0.5 + 0j}

    def test_rejects_conj(self):
        e = parse_expr("(conj t1)", ("t1",))
        with pytest.raises(ExpressionError, match="not holomorphic"):
            expand_holomorphic_polynomial(e, ("t1",))
