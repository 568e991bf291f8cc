"""Core arithmetic: MultiPoly, RatFunc, DualRatFunc, gcd, resultant."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import tamearc.poly
from tamearc.errors import DivisionByZero, InexactDivision, NotAUnit
from tamearc.expr import parse_poly
from tamearc.poly import (
    DualRatFunc,
    MultiPoly,
    RatFunc,
    VARS_T,
    VARS_XY,
    _center,
    _gcd_cofactors,
    _gcd_prs,
    _iprimitive,
    _sym_digits,
    _zdivmod,
    _zgcd,
    _zinv,
    _zmul,
    _zpowmod,
    _zred,
    _zsub,
    divmod_in,
    invmod,
    poly_gcd,
    rem,
    resultant,
    subresultants,
)

import frozen
from oracles import (
    fraction_product, fraction_render, fraction_render_ratfunc, fraction_sort_key, peval, subst,
)

X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
T = MultiPoly.variable("t")

_SX, _SY, _ST = sympy.symbols("x y t")


def to_sympy(p):
    if p.vars == VARS_T:
        expr = sympy.Integer(0)
        for e, c in p.terms.items():
            expr += sympy.Rational(c) * _ST ** e[0]
        return expr
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        expr += sympy.Rational(c) * _SX ** e[0] * _SY ** e[1]
    return expr


def rand_poly(rng, vars, deg, terms=4):
    d = {}
    for _ in range(rng.randint(1, terms)):
        if vars == VARS_T:
            e = (rng.randint(0, deg),)
        else:
            a = rng.randint(0, deg)
            e = (a, rng.randint(0, deg - a))
        d[e] = d.get(e, Fraction(0)) + Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiPoly(vars, {e: c for e, c in d.items() if c})


small_fraction = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def poly_strategy(vars):
    if vars == VARS_T:
        exps = st.tuples(st.integers(min_value=0, max_value=5))
    else:
        exps = st.tuples(st.integers(min_value=0, max_value=3),
                         st.integers(min_value=0, max_value=3))
    return st.dictionaries(exps, small_fraction, max_size=4).map(
        lambda d: MultiPoly(vars, {e: c for e, c in d.items() if c}))


class TestMultiPoly:
    def test_normal_form_drops_zeros(self):
        p = X - X
        assert p.is_zero() and p.terms == {}
        # the public constructor on zeros, mixed int and Fraction values, shared
        # rational contents and negative leading coefficients: the (cont, ints) it makes
        cases = [
            ((VARS_XY, {}), 1, {}),
            ((VARS_T, {}), 1, {}),
            ((VARS_XY, {(1, 0): 0, (0, 1): Fraction(0)}), 1, {}),
            ((VARS_XY, {(2, 0): 0, (0, 1): Fraction(2, 3)}), Fraction(2, 3), {(0, 1): 1}),
            ((VARS_XY, {(2, 0): 3, (0, 1): Fraction(3, 2)}), Fraction(3, 2),
             {(2, 0): 2, (0, 1): 1}),
            ((VARS_XY, {(1, 0): Fraction(2, 3), (0, 0): Fraction(4, 9)}), Fraction(2, 9),
             {(1, 0): 3, (0, 0): 2}),
            ((VARS_XY, {(1, 1): Fraction(-1, 2), (0, 0): 1}), Fraction(-1, 2),
             {(1, 1): 1, (0, 0): -2}),
            ((VARS_T, {(3,): -4, (1,): 6, (0,): Fraction(-2, 5)}), Fraction(-2, 5),
             {(3,): 10, (1,): -15, (0,): 1}),
            ((VARS_T, {(2,): Fraction(6, 4)}), Fraction(3, 2), {(2,): 1}),
        ]
        for (vars, terms), cont, ints in cases:
            q = MultiPoly(vars, terms)
            assert (q.cont, q.ints) == (cont, ints), terms
            assert type(q.cont) is Fraction
            assert q.terms == {e: c for e, c in terms.items() if c}
        for q in render_pool():
            assert MultiPoly(q.vars, q.terms) == q, q.render()
        with pytest.raises(ValueError, match=re.escape(
                "bad exponent vector (1,) for vars ('x', 'y')")):
            MultiPoly(VARS_XY, {(1,): 1})
        with pytest.raises(ValueError, match=re.escape(
                "bad exponent vector (-1,) for vars ('t',)")):
            MultiPoly(VARS_T, {(-1,): 1})
        with pytest.raises(ValueError, match=re.escape(
                "bad exponent vector ('a',) for vars ('t',)")):
            MultiPoly(VARS_T, {("a",): 1})
        with pytest.raises(TypeError, match="^coefficient must be int or Fraction, got float$"):
            MultiPoly(VARS_T, {(1,): 0.5})

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.terms = {}

    @given(poly_strategy(VARS_XY), poly_strategy(VARS_XY), poly_strategy(VARS_XY))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r

    @given(poly_strategy(VARS_T), poly_strategy(VARS_T))
    @settings(max_examples=40, deadline=None)
    def test_mul_matches_sympy(self, p, q):
        lhs = to_sympy(p * q)
        rhs = sympy.expand(to_sympy(p) * to_sympy(q))
        assert sympy.simplify(lhs - rhs) == 0

    def test_div_exact(self):
        p = (X + Y) * (X - Y) * (X + MultiPoly.const(VARS_XY, 3))
        q = p.div_exact(X + Y)
        assert q is not None and q * (X + Y) == p
        assert (X * X + Y).div_exact(X + Y) is None

    def test_divide_out(self):
        a, b = X + Y, X - MultiPoly.const(VARS_XY, 2)
        p = MultiPoly.const(VARS_XY, Fraction(-3, 2)) * a ** 3 * b
        q, m = p.divide_out(a)
        assert m == 3 and q * a ** 3 == p and not a.divides(q)
        assert p.divide_out(X) == (p, 0)
        with pytest.raises(ValueError):
            p.divide_out(MultiPoly.const(VARS_XY, 2))

    def test_div_exact_packing_does_not_wrap(self):
        # packed with stride 2, y and x * x are both z^2
        assert Y.div_exact(X) is None
        assert (X * Y + Y).div_exact(X * X) is None
        assert (X * Y).div_exact(Y) == X

    def test_derivative(self):
        p = X ** 3 * Y + X
        assert p.derivative("x") == 3 * X ** 2 * Y + MultiPoly.const(VARS_XY, 1)
        assert p.derivative("y") == X ** 3

    def test_subst_shear(self):
        p = X * Y
        sheared = subst(p, {"x": X + 2 * Y, "y": Y})
        assert sheared == X * Y + 2 * Y ** 2

    def test_shear_and_swap_match_subst(self):
        # the integer kernels against the generic substitution, for every shear
        # the intersection code may try and a few shifts
        from tamearc.geometry import _SHEAR_BASE
        rng = random.Random(11)
        polys = [rand_poly(rng, VARS_XY, 4, terms=6) for _ in range(12)]
        polys += [X - Y, Y - X ** 2, MultiPoly.const(VARS_XY, Fraction(-3, 2)),
                  MultiPoly.zero(VARS_XY)]
        for p in polys:
            assert p.swap_xy() == subst(p, {"x": Y, "y": X}), p.render()
            for lam in _SHEAR_BASE:
                for b in (0, 3, -2):
                    want = subst(p, {"x": X + lam * Y + MultiPoly.const(VARS_XY, b), "y": Y})
                    assert p.shear(lam, b) == want, (p.render(), lam, b)

    def test_shear_needs_integers_in_x_y(self):
        with pytest.raises(TypeError):
            X.shear(Fraction(1, 2))
        with pytest.raises(ValueError):
            T.shear(1)
        with pytest.raises(ValueError):
            T.swap_xy()

    def test_content_primitive(self):
        p = MultiPoly.const(VARS_XY, Fraction(-4, 3)) * X + \
            MultiPoly.const(VARS_XY, Fraction(-2, 3)) * Y
        prim = p.primitive()
        assert prim == -2 * X - Y or prim == 2 * X + Y
        assert prim.lc() > 0

    def test_render_reparses(self):
        rng = random.Random(11)
        from tamearc.expr import parse_poly
        for _ in range(50):
            p = rand_poly(rng, VARS_XY, 3)
            if p.is_zero():
                continue
            assert parse_poly(p.render(), VARS_XY) == p


def assert_canonical(r):
    """r is what the public constructor makes of r.terms, integer-primitive with lc > 0."""
    p = MultiPoly(r.vars, r.terms)
    assert (r.vars, r.cont, r.ints) == (p.vars, p.cont, p.ints), r
    if not r.ints:
        assert r.cont == 1
        return
    lead = max(r.ints, key=lambda e: (sum(e), e))
    assert gcd(*r.ints.values()) == 1 and r.ints[lead] > 0, (r.cont, r.ints)


def kernel_results(p, q, c):
    """Every kind of kernel result on p, q and the scalar c."""
    # (p + c)*(p - c) and (q - p)*(q + p) cancel their cross terms inside the product
    out = [p + q, p - q, q - p, p - p, p * q, q * p, p * c, c * p, -p, p ** 2, p ** 3,
           (p + c) * (p - c), (q - p) * (q + p), p.primitive(),
           *_gcd_cofactors(p, q), *_gcd_cofactors(p * q, q)]
    if not q.is_zero():
        out.append((p * q).div_exact(q))
    for v in p.vars:
        out.append(p.derivative(v))
        out.extend(p.dense_in(v))
    return out


class TestRepresentation:
    @pytest.mark.parametrize("vars", [VARS_T, VARS_XY])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_results_are_canonical(self, vars, data):
        p, q = data.draw(poly_strategy(vars)), data.draw(poly_strategy(vars))
        for r in kernel_results(p, q, data.draw(small_fraction)):
            assert_canonical(r)

    def test_forced_cancellations(self):
        one_t, one_xy = MultiPoly.const(VARS_T, 1), MultiPoly.const(VARS_XY, 1)
        half = Fraction(1, 2)
        for r in ((T - one_t) * (T + one_t), (T * half - one_t) * (T * half + one_t),
                  X * Y - Y * X, (X - Y) * (X * X + X * Y + Y * Y),
                  (-X - one_xy) * (X - one_xy), (X + Y) * half - Y * half):
            assert_canonical(r)
        assert ((T - one_t) * (T + one_t)).ints == {(2,): 1, (0,): -1}
        assert (X * Y - Y * X).is_zero()
        for p in (T, X, Y):
            for q in (p + 1, -p * 3 - 2, p * Fraction(-2, 3)):
                for r in kernel_results(p, q, Fraction(-3, 4)):
                    assert_canonical(r)


def constant_operand_pool(rng, vars):
    """Seeded polynomials with zero, constants, rational contents and negative leads."""
    pool = [MultiPoly.zero(vars), MultiPoly.const(vars, Fraction(-7, 4))]
    for _ in range(15):
        p = rand_poly(rng, vars, 4)
        pool.extend([p, -p * Fraction(3, 5)])
    return pool


class TestConstantOperands:
    CONSTANTS = (0, 1, -1, 6, Fraction(-2, 3), Fraction(5, 7))

    @pytest.mark.parametrize("vars", [VARS_T, VARS_XY])
    def test_products_match_the_fraction_reference(self, vars):
        rng = random.Random(271)
        for p in constant_operand_pool(rng, vars):
            for c in self.CONSTANTS:
                k = MultiPoly.const(vars, c)
                for r in (p * k, k * p):
                    assert r.terms == fraction_product(p, k), (p.render(), c)
                    assert_canonical(r)
                    # only the contents multiply: an operand's integer part is reused
                    assert not c or p.is_zero() or any(r.ints is s.ints for s in (p, k))

    @pytest.mark.parametrize("vars", [VARS_T, VARS_XY])
    def test_exact_quotients_match_the_fraction_reference(self, vars):
        rng = random.Random(272)
        for p in constant_operand_pool(rng, vars):
            for c in self.CONSTANTS:
                k = MultiPoly.const(vars, c)
                if c:
                    q = p.div_exact(k)
                    assert q.terms == fraction_product(p, MultiPoly.const(vars, 1 / Fraction(c)))
                    assert_canonical(q)
                else:
                    assert p.div_exact(k) is None
                q = k.div_exact(p)
                if p.is_zero():
                    assert q is None
                elif p.is_const():
                    assert q == MultiPoly.const(vars, c / p.const_value())
                else:
                    # a nonzero constant is never a multiple of a non-constant
                    assert q is None if c else q.is_zero()


class TestGcd:
    def test_pinned(self):
        g = poly_gcd((X + Y) * (X - Y), (X + Y) * X)
        assert g == X + Y

    def test_coprime(self):
        assert poly_gcd(X, Y).degree() == 0

    def test_zero_cases(self):
        z = MultiPoly.zero(VARS_XY)
        assert poly_gcd(z, z).is_zero()
        assert poly_gcd(X, z) == X

    def test_matches_sympy_univariate(self):
        rng = random.Random(5)
        for _ in range(40):
            p, q = rand_poly(rng, VARS_T, 4), rand_poly(rng, VARS_T, 4)
            if p.is_zero() or q.is_zero():
                continue
            ours = to_sympy(poly_gcd(p, q))
            theirs = sympy.gcd(sympy.Poly(to_sympy(p), _ST),
                               sympy.Poly(to_sympy(q), _ST)).as_expr()
            quot = sympy.simplify(ours / theirs)
            assert quot.is_constant()

    def test_matches_sympy_bivariate(self):
        rng = random.Random(6)
        for _ in range(25):
            a = rand_poly(rng, VARS_XY, 2)
            b = rand_poly(rng, VARS_XY, 2)
            c = rand_poly(rng, VARS_XY, 2)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            p, q = a * c, b * c
            ours = to_sympy(poly_gcd(p, q))
            theirs = sympy.gcd(sympy.Poly(to_sympy(p), _SX, _SY),
                               sympy.Poly(to_sympy(q), _SX, _SY)).as_expr()
            quot = sympy.cancel(ours / theirs)
            assert quot.is_constant(), (p.render(), q.render())

    def test_cofactors_multiply_back(self):
        rng = random.Random(8)
        for vars, deg in ((VARS_T, 4), (VARS_XY, 3)):
            for a, b in gcd_pairs(rng, vars, deg, 40):
                g, qa, qb = _gcd_cofactors(a, b)
                assert g == poly_gcd(a, b)
                if a.is_zero() and b.is_zero():
                    assert g.is_zero() and qa.is_zero() and qb.is_zero()
                    continue
                assert g * qa == a and g * qb == b, (a.render(), b.render())
                assert g.lc() > 0 and g.cont == 1
                assert poly_gcd(qa, qb) == MultiPoly.const(vars, 1)

    def test_unlucky_point_is_rejected(self):
        # the first point is 2 * 1 + 29 = 31, where v + 1 and v + 33 take
        # the values 32 and 64: their gcd reads as the false factor v + 1,
        # which only the exact division of v + 33 rejects
        for v in (T, X, Y):
            a, b = v + 1, v + 33
            for p, q in ((a, b), (b, a)):
                g, qp, qq = _gcd_cofactors(p, q)
                assert (g, qp, qq) == (MultiPoly.const(v.vars, 1), p, q)

    def test_constant_inner_gcd_still_lifts(self):
        # at the first point xi = 31 the inner gcd of x*32 and (x + 1)*32 is
        # the constant 32 = xi + 1, whose digits lift to y + 1: only an
        # inner gcd of exactly 1 proves the operands coprime
        a, b = X * (Y + 1), (X + 1) * (Y + 1)
        assert _gcd_cofactors(a, b) == (Y + 1, X, X + 1)
        assert _gcd_cofactors(a * Fraction(-3, 2), b) == (Y + 1, X * Fraction(-3, 2), X + 1)

    def test_coprime_operands_are_their_own_cofactors(self):
        rng = random.Random(27)
        seen = 0
        for vars, deg in ((VARS_T, 4), (VARS_XY, 3)):
            one = MultiPoly.const(vars, 1)
            for _ in range(40):
                a, b = rand_poly(rng, vars, deg), rand_poly(rng, vars, deg)
                if a.is_const() or b.is_const():
                    continue
                g, qa, qb = _gcd_cofactors(a, b)
                if g == one:
                    assert qa is a and qb is b, (a.render(), b.render())
                    seen += 1
        pairs = [(X * X + Y * Y - 1, X - 2), ((X + Y) * Fraction(-5, 3), Y * Y - X),
                 (T ** 3 - T + 7, T * Fraction(2, 9) + 1)]
        for a, b in pairs:
            g, qa, qb = _gcd_cofactors(a, b)
            assert g == MultiPoly.const(a.vars, 1) and qa is a and qb is b
        assert seen >= 20

    def test_fallback_after_the_last_point(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return _gcd_prs(a, b)

        monkeypatch.setattr(tamearc.poly, "_HEU_POINTS", 1)
        monkeypatch.setattr(tamearc.poly, "_gcd_prs", counted)
        a, b = X + 1, X + 33
        assert _gcd_cofactors(a * Y, b * Y) == (Y, a, b)
        # the y-contents x + 1 and x + 33 go through the fallback in turn
        assert calls == [(a * Y, b * Y), (a, b)]

    def test_prs_fallback_matches_sympy(self):
        # the heuristic succeeds on every pool, so only a direct call
        # reaches the fallback
        for p, q in sympy_univariate_pairs():
            # the x-only copies run the same PRS, in x
            for a, b, gen in ((p, q, _ST), (subst(p, {"t": X}), subst(q, {"t": X}), _SX)):
                ours = to_sympy(_gcd_prs(a, b))
                theirs = sympy.gcd(sympy.Poly(to_sympy(a), gen),
                                   sympy.Poly(to_sympy(b), gen)).as_expr()
                assert sympy.simplify(ours / theirs).is_constant(), (a.render(), b.render())
        for p, q in sympy_bivariate_pairs():
            ours = to_sympy(_gcd_prs(p, q))
            theirs = sympy.gcd(sympy.Poly(to_sympy(p), _SX, _SY),
                               sympy.Poly(to_sympy(q), _SX, _SY)).as_expr()
            assert sympy.cancel(ours / theirs).is_constant(), (p.render(), q.render())


class TestDivmodIn:
    @staticmethod
    def check(f, g, var, gen):
        q, r = divmod_in(f, g, var)
        theirs = sympy.div(to_sympy(f), to_sympy(g), gen)
        assert (sympy.expand(to_sympy(q) - theirs[0]), sympy.expand(to_sympy(r) - theirs[1])) \
            == (0, 0), (f.render(), g.render(), var)
        assert rem(f, g, var) == r

    def test_matches_sympy_in_t(self):
        rng = random.Random(12)
        for _ in range(150):
            f, g = rand_poly(rng, VARS_T, 7, 6), rand_poly(rng, VARS_T, 3)
            if not g.is_zero():
                self.check(f, g, "t", _ST)

    def test_matches_sympy_in_xy_with_a_divisor_in_one_variable(self):
        rng = random.Random(13)
        for _ in range(150):
            f = rand_poly(rng, VARS_XY, 6, 8)
            gx = subst(rand_poly(rng, VARS_T, 3), {"t": X})
            gy = subst(rand_poly(rng, VARS_T, 3), {"t": Y})
            for g, var, gen in ((gx, "x", _SX), (gy, "y", _SY)):
                if not g.is_zero():
                    self.check(f, g, var, gen)

    def test_rational_contents_and_a_non_monic_integer_divisor(self):
        one = MultiPoly.const(VARS_XY, 1)
        f = Fraction(2, 3) * X ** 5 * Y + Fraction(-7, 4) * X ** 2 * Y ** 3 + Fraction(1, 5) * one
        for g in (3 * X ** 2 - 2 * one, Fraction(5, 7) * X ** 3 + Fraction(1, 2) * X):
            self.check(f, g, "x", _SX)
            self.check(f, g.swap_xy(), "y", _SY)
        self.check(Fraction(3, 2) * T ** 4 - T, 4 * T ** 2 + 6 * T - 3, "t", _ST)

    def test_zero_and_lower_degree_dividends(self):
        g = 2 * X ** 2 + X
        zero = MultiPoly.zero(VARS_XY)
        assert divmod_in(zero, g, "x") == (zero, zero)
        f = Fraction(1, 3) * X * Y ** 4 - Y
        assert divmod_in(f, g, "x") == (zero, f)
        self.check(f, g, "x", _SX)

    def test_truncation_and_the_remainder_theorem(self):
        # the plane factorizer's two jobs for rem: p mod x^k keeps exactly
        # the terms of x-degree below k, and p mod (x - x0) is p(x0, y)
        rng = random.Random(14)
        one = MultiPoly.const(VARS_XY, 1)
        pool = [MultiPoly.zero(VARS_XY), Fraction(-5, 3) * one,
                Fraction(2, 7) * Y ** 3 - Y + 4 * one]
        pool += [rand_poly(rng, VARS_XY, 7, 8) for _ in range(60)]
        pool += [subst(rand_poly(rng, VARS_T, 5), {"t": Y}) for _ in range(10)]
        points = (0, 1, -2, 7, Fraction(-3, 2), Fraction(5, 4))
        for p in pool:
            for k in range(1, max(p.deg_in("x"), 0) + 3):
                want = {e: c for e, c in p.terms.items() if e[0] < k}
                assert rem(p, X ** k, "x").terms == want, (p.render(), k)
            for x0 in points:
                want = {}
                for (i, j), c in p.terms.items():
                    want[(0, j)] = want.get((0, j), Fraction(0)) + c * Fraction(x0) ** i
                got = rem(p, X - x0, "x")
                assert got.terms == {e: c for e, c in want.items() if c}, (p.render(), x0)
                assert peval(got.terms, 0, 3) == peval(p.terms, x0, 3)

    def test_errors(self):
        f = X ** 3 + Y
        with pytest.raises(DivisionByZero):
            divmod_in(f, MultiPoly.zero(VARS_XY), "x")
        with pytest.raises(ValueError):
            divmod_in(f, X + Y, "x")
        with pytest.raises(ValueError):
            rem(f, X * Y, "y")


class TestInvmod:
    def test_inverse_or_division_by_zero(self):
        rng = random.Random(9)
        outcomes = set()
        for i in range(120):
            a, u = rand_poly(rng, VARS_T, 5), rand_poly(rng, VARS_T, 4)
            if u.degree() < 1:
                continue
            if i % 3 == 0:
                c = rand_poly(rng, VARS_T, 2)
                a, u = a * c, u * c
            if u.degree() < 1:
                continue
            coprime = sympy.gcd(sympy.Poly(to_sympy(a), _ST),
                                sympy.Poly(to_sympy(u), _ST)).degree() == 0
            if coprime:
                s = invmod(a, u, "t")
                assert s.deg_in("t") < u.deg_in("t")
                assert sympy.rem(to_sympy(a * s) - 1, to_sympy(u), _ST) == 0
            else:
                with pytest.raises(DivisionByZero):
                    invmod(a, u, "t")
            outcomes.add(coprime)
        assert outcomes == {True, False}


    def test_constant_remainder_inverts_to_its_reciprocal(self):
        # a remainder that is a nonzero constant c has the inverse 1/c, as
        # every element of the residue field of a rational point has
        u = T ** 2 - 2
        assert invmod(T ** 2 + Fraction(3, 2), u, "t") == MultiPoly.const(VARS_T, Fraction(2, 7))
        assert invmod(T + 5, T - 1, "t") == MultiPoly.const(VARS_T, Fraction(1, 6))
        assert invmod(MultiPoly.const(VARS_T, -3), u, "t") == MultiPoly.const(VARS_T, Fraction(-1, 3))

def gcd_pairs(rng, vars, deg, count):
    """Pairs with a random common factor, each also against a constant and 0."""
    zero = MultiPoly.zero(vars)
    unit = MultiPoly.const(vars, Fraction(-7, 3))
    pairs = [(zero, zero)]
    for _ in range(count):
        c = rand_poly(rng, vars, 2)
        a = rand_poly(rng, vars, deg) * c
        b = rand_poly(rng, vars, deg) * c
        pairs += [(a, b), (a, zero), (zero, b), (unit, b), (a, unit)]
    return pairs


def sympy_univariate_pairs():
    """The pairs that TestGcd.test_matches_sympy_univariate draws."""
    rng = random.Random(5)
    for _ in range(40):
        p, q = rand_poly(rng, VARS_T, 4), rand_poly(rng, VARS_T, 4)
        if not (p.is_zero() or q.is_zero()):
            yield p, q


def sympy_bivariate_pairs():
    """The pairs that TestGcd.test_matches_sympy_bivariate draws."""
    rng = random.Random(6)
    for _ in range(25):
        a, b, c = (rand_poly(rng, VARS_XY, 2) for _ in range(3))
        if not (a.is_zero() or b.is_zero() or c.is_zero()):
            yield a * c, b * c


class TestResultant:
    def test_frozen_pins(self):
        assert resultant(X, Y, "y").render() == frozen.RES_Y_X_Y
        assert resultant(Y - X ** 2, Y, "y").render() == frozen.RES_Y_YMINUSX2_Y
        two = MultiPoly.const(VARS_T, 2)
        three = MultiPoly.const(VARS_T, 3)
        assert resultant(T * T - two, T + three, "t").const_value() == \
            frozen.RES_T_T2MINUS2_TPLUS3

    def test_common_factor_gives_zero(self):
        p = (X + Y) * (X - Y)
        assert resultant(p, X + Y, "y").is_zero()

    def test_odd_degree_sign_pinned(self):
        # Res_y(2y + x, y^3 + x) = 2^3 * ((-x/2)^3 + x) = -x^3 + 8x
        two_y = 2 * Y + X
        cubic = Y ** 3 + X
        assert resultant(two_y, cubic, "y") == -(X ** 3) + 8 * X

    def test_matches_sylvester_determinant(self):
        # sympy.resultant can flip the global sign (subresultant PRS quirk);
        # the Sylvester matrix determinant is the unambiguous reference
        from sympy.polys.subresultants_qq_zz import sylvester
        rng = random.Random(7)
        pairs = [
            # 5832*x^3 - 11664*x - 6480: a defective step (delta = 2) after h != 1
            (2 * Y ** 5 - 3 * X * Y ** 3 - 2 * Y ** 4, -2 * Y ** 4 + 3 * X * Y ** 2 - 3, "y"),
            # 1 - x: both degrees odd, so the sign flips
            (Y ** 3 + X, Y + 1, "y"),
            # a constant operand, on either side
            (3 * X + 1, Y ** 2 + X, "y"),
            (Y ** 3 - X * Y + 2, MultiPoly.const(VARS_XY, Fraction(-2, 3)), "y"),
            (T ** 4 - 3 * T + 1, MultiPoly.const(VARS_T, 5), "t"),
        ]
        for _ in range(25):
            pairs.append((rand_poly(rng, VARS_XY, 3), rand_poly(rng, VARS_XY, 3), "y"))
        for _ in range(15):
            pairs.append((rand_poly(rng, VARS_T, 5), rand_poly(rng, VARS_T, 4), "t"))
        for p, q, var in pairs:
            if p.is_zero() or q.is_zero() or max(p.deg_in(var), q.deg_in(var)) < 1:
                continue
            sym = _SY if var == "y" else _ST
            ours = to_sympy(resultant(p, q, var))
            theirs = sylvester(sympy.Poly(to_sympy(p), sym),
                               sympy.Poly(to_sympy(q), sym), sym).det()
            assert sympy.simplify(ours - theirs) == 0, (p.render(), q.render())

    def test_contents_scale_the_sylvester_determinant(self):
        # Res(c*P, d*Q) = c^deg Q * d^deg P * Res(P, Q), in either variable,
        # with negative and non-integer contents on both sides
        from sympy.polys.subresultants_qq_zz import sylvester
        rng = random.Random(9)
        contents = [Fraction(-1), Fraction(-3, 2), Fraction(2, 7), Fraction(-5, 3), Fraction(4)]
        for trial in range(20):
            p = rand_poly(rng, VARS_XY, 3) * rng.choice(contents)
            q = rand_poly(rng, VARS_XY, 3) * rng.choice(contents)
            var, sym = ("y", _SY) if trial % 2 else ("x", _SX)
            if p.deg_in(var) < 1 or q.deg_in(var) < 1:
                continue
            ours = to_sympy(resultant(p, q, var))
            theirs = sylvester(sympy.Poly(to_sympy(p), sym),
                               sympy.Poly(to_sympy(q), sym), sym).det(method="berkowitz")
            assert sympy.expand(ours - theirs) == 0, (p.render(), q.render(), var)
        # coefficients constant in the other variable, and one variable
        p = Fraction(-3, 2) * (Y ** 2 - 2)
        q = Fraction(2, 5) * (3 * Y + 1)
        assert resultant(p, q, "y").const_value() == Fraction(-3, 2) * Fraction(2, 5) ** 2 * -17
        two = MultiPoly.const(VARS_T, 2)
        assert resultant(Fraction(-1, 3) * (T * T - two), Fraction(-7) * (T + 1), "t") \
            .const_value() == Fraction(-1, 3) * 49 * -1

    def test_inexact_division_raises_a_typed_error(self, monkeypatch):
        # a wrong remainder makes the division by g * h^delta inexact at the
        # second step, where g = h = x; that is a kernel fault, raised by type
        monkeypatch.setattr(tamearc.poly, "_prem", lambda f, g, var: X * Y + 1)
        with pytest.raises(InexactDivision):
            resultant(Y ** 3 + 1, X * Y ** 2 + 1, "y")

    def test_vanishing_leading_coefficients_match_sylvester(self):
        # leading coefficients vanish at x = 0, 1, 2, so those points are skipped
        from sympy.polys.subresultants_qq_zz import sylvester
        lc = X * (X - 1) * (X - 2)
        rng = random.Random(8)
        pairs = [
            # a common factor of positive y-degree: the remainder sequence
            # reaches zero partway, after a nonzero remainder
            ((X * Y - 1) * (Y ** 2 + X), (X * Y - 1) * (lc * Y + 3)),
            ((X * Y - 1) * (lc * Y ** 2 + 1), (X * Y - 1) * (X * Y ** 2 - 2 * Y + X)),
        ]
        for _ in range(6):
            pairs.append((lc * Y ** 2 + rand_poly(rng, VARS_XY, 1),
                          (X - 1) * lc * Y ** 3 + rand_poly(rng, VARS_XY, 2)))
        for p, q in pairs:
            ours = to_sympy(resultant(p, q, "y"))
            theirs = sylvester(sympy.Poly(to_sympy(p), _SY),
                               sympy.Poly(to_sympy(q), _SY), _SY).det(method="berkowitz")
            assert sympy.expand(ours - theirs) == 0, (p.render(), q.render())


def determinant_subresultants(p, q, sym):
    """{j: S_j} of p, q in sym by determinants, for j < deg q (j <= deg q if deg p > deg q).

    S_j is the determinant polynomial of the rows x^(n-j-1)*p, ..., p,
    x^(m-j-1)*q, ..., q of the Sylvester matrix, m = deg p >= n = deg q.
    """
    from sympy.polys.subresultants_qq_zz import sylvester
    P, Q = sympy.Poly(to_sympy(p), sym), sympy.Poly(to_sympy(q), sym)
    m, n = P.degree(), Q.degree()
    # n rows of p, then m rows of q, each highest power first
    M = sylvester(P, Q, sym, method=1)
    out = {}
    for j in range(n + 1 if m > n else n):
        sub = M.extract(list(range(j, n)) + list(range(n + j, n + m)), list(range(j, m + n)))
        left = sub[:, :m + n - 2 * j - 1]
        # the column of sym^i sits i places from the right
        out[j] = sympy.expand(sum(left.row_join(sub[:, m + n - j - 1 - i]).det(method="berkowitz")
                                  * sym ** i for i in range(j + 1)))
    return out


def chain_pairs():
    """Pairs for the chain tests: (p, q, var) with deg_var p >= deg_var q >= 1."""
    pairs = [
        # equal degrees
        (2 * T ** 3 - T + 5, T ** 3 + 2 * T + 1, "t"),
        (X * Y ** 2 + 1, Y ** 2 - X, "y"),
        # defective chains: t^5 + 2 = t + 2 mod t^3 + t, a drop of two degrees,
        # and a first step of delta = 3
        (T ** 5 + 2, T ** 3 + T, "t"),
        (T ** 5 + T + 1, 3 * T ** 2 + 1, "t"),
        (Y ** 5 + X, Y ** 3 + Y, "y"),
        (2 * Y ** 5 - 3 * X * Y ** 3 - 2 * Y ** 4, -2 * Y ** 4 + 3 * X * Y ** 2 - 3, "y"),
        # common factors
        ((T ** 2 - 2) * (T + 1), (T ** 2 - 2) * (2 * T - 3), "t"),
        ((X * Y - 1) * (Y ** 2 + X), (X * Y - 1) * (X * Y + 3), "y"),
        ((X + Y) ** 2 * (X - 2 * Y), (X + Y) * (Y ** 2 + 1), "y"),
        # eliminating x
        (X ** 3 + Y * X + 1, Y * X ** 2 - 1, "x"),
        (Fraction(-3, 2) * (Y ** 3 + X), Fraction(2, 5) * (Y + 1), "y"),
    ]
    rng = random.Random(15)
    for vars, var, deg in ((VARS_XY, "y", 3), (VARS_T, "t", 5)):
        for _ in range(12):
            c = rand_poly(rng, vars, 1) if rng.random() < 0.4 else MultiPoly.const(vars, 1)
            p, q = rand_poly(rng, vars, deg) * c, rand_poly(rng, vars, deg - 1) * c
            if p.deg_in(var) < q.deg_in(var):
                p, q = q, p
            if not q.is_zero() and q.deg_in(var) >= 1:
                pairs.append((p, q, var))
    return pairs


class TestSubresultants:
    def test_matches_the_determinant_definition(self):
        syms = {"t": _ST, "x": _SX, "y": _SY}
        defective = 0
        for p, q, var in chain_pairs():
            sym = syms[var]
            a, b = p.primitive(), q.primitive()
            dets = determinant_subresultants(a, b, sym)
            *body, (S0, s0) = subresultants(p, q, var)
            # S_0 is the resultant of the primitive parts, sign included
            assert S0 == s0 and sympy.expand(to_sympy(S0) - dets[0]) == 0, (p.render(), q.render())
            if p.deg_in(var) == q.deg_in(var):
                assert body[0][0] == b and body[0][1] == MultiPoly.const(p.vars, 1)
                body = body[1:]
            lcs = {j: sympy.Poly(S, sym).coeff_monomial(sym ** j) for j, S in dets.items()}
            listed = [S.deg_in(var) for S, _ in body]
            assert listed == sorted((j for j in dets if j and lcs[j] != 0), reverse=True)
            degrees = [max(p.deg_in(var), q.deg_in(var))] + listed
            defective += any(d0 - d1 >= 2 for d0, d1 in zip(degrees, degrees[1:]))
            for S, s in body:
                j = S.deg_in(var)
                assert s == S.lc_in(var)
                ours = to_sympy(s)
                assert sympy.expand(ours - lcs[j]) == 0 or sympy.expand(ours + lcs[j]) == 0
                assert sympy.expand(to_sympy(S) * lcs[j] - dets[j] * ours) == 0
        assert defective >= 4

    def test_specializes_to_the_gcd_at_integer_points(self):
        # at x0 where both leading coefficients in y survive, S_j(x0, y) for
        # the least j with s_j(x0) != 0 is the gcd of p(x0, y) and q(x0, y)
        pairs = [
            # y^3 + (x - 1)*y + 5 = (x - 2)*y + 5 mod y^2 + 1: s_1 vanishes at 2
            (Y ** 3 + (X - 1) * Y + 5, Y ** 2 + 1),
            # the remainder x*y^2 + (x + 1)*y + 2*x mod y^3 - y: s_2 vanishes
            # at 0, above the gcd y of degree 1 there
            (Y ** 4 + (X - 1) * Y ** 2 + Y + X * (Y + 2), Y ** 3 - Y),
            # equal to (y^2 + 1)*(y - 3) at x = 1: s_1 and s_0 vanish there
            ((Y ** 2 + 1 + (X - 1) * Y) * (Y - 3) + (X - 1) * (2 * Y + 1), Y ** 2 + 1),
        ]
        rng = random.Random(16)
        for _ in range(30):
            c = rand_poly(rng, VARS_XY, 1) if rng.random() < 0.4 else MultiPoly.const(VARS_XY, 1)
            p, q = rand_poly(rng, VARS_XY, 3) * c, rand_poly(rng, VARS_XY, 2) * c
            if p.deg_in("y") < q.deg_in("y"):
                p, q = q, p
            if not q.is_zero() and q.deg_in("y") >= 1:
                pairs.append((p, q))
        above = 0
        for p, q in pairs:
            chain = subresultants(p, q, "y")
            for x0 in range(-3, 4):
                at = {"x": MultiPoly.const(VARS_XY, x0), "y": Y}
                if subst(p.lc_in("y"), at).is_zero() or subst(q.lc_in("y"), at).is_zero():
                    continue
                live = [not subst(s, at).is_zero() for _, s in chain]
                k = len(live) - 1 - live[::-1].index(True)
                above += not all(live[:k])
                ours = to_sympy(subst(chain[k][0], at))
                theirs = sympy.gcd(to_sympy(subst(p, at)), to_sympy(subst(q, at)))
                assert sympy.degree(ours, _SY) == sympy.degree(theirs, _SY), (p.render(), q.render(), x0)
                assert sympy.rem(ours, theirs, _SY) == 0, (p.render(), q.render(), x0)
        # the constructed pairs have a vanishing s_j above the least survivor
        assert above >= 2


class TestRatFunc:
    def test_reduction(self):
        f = RatFunc(X * X - Y * Y, X + Y)
        assert f == RatFunc(X - Y)

    def test_den_normalization(self):
        f = RatFunc(X, MultiPoly.const(VARS_XY, Fraction(-1, 2)) * Y)
        assert f.den.lc() > 0
        assert f.den.cont in (1, Fraction(1))

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            RatFunc(X, MultiPoly.zero(VARS_XY))

    def test_field_ops(self):
        f = RatFunc(X) / RatFunc(Y)
        g = RatFunc(Y) / RatFunc(X)
        assert (f * g) == RatFunc.from_const(VARS_XY, 1)
        assert (f ** -2) == (g ** 2)
        assert f + (-f) == RatFunc.from_const(VARS_XY, 0)

    def test_derivative_quotient_rule(self):
        f = RatFunc(X) / RatFunc(Y)
        assert f.derivative("y") == -RatFunc(X) / RatFunc(Y * Y)

    def test_derivative_stays_reduced_when_a_factor_lacks_the_variable(self):
        # d/dx of (x*y + 1)/y is y/y: a factor without x cancels, which only
        # the full gcd of RatFunc(num, den) sees, so derivative keeps it
        d = RatFunc(X * Y + 1, Y).derivative("x")
        assert d == RatFunc.from_const(VARS_XY, 1)
        assert d.den == MultiPoly.const(VARS_XY, 1)

    def test_neg_and_powers_match_the_gcd_path(self):
        # -r and r**n skip the gcd of RatFunc(num, den); they must give its result
        def fields(f):
            return [(p.vars, p.cont, p.ints) for p in (f.num, f.den)]

        rng = random.Random(12)
        checked = 0
        for vars, deg in ((VARS_T, 3), (VARS_XY, 2)) * 30:
            a, b = rand_poly(rng, vars, deg), rand_poly(rng, vars, deg)
            if b.is_zero():
                continue
            r = RatFunc(a, b)
            assert fields(-r) == fields(RatFunc(-r.num, r.den))
            for n in (0, 1, 2, 3):
                assert fields(r ** n) == fields(RatFunc(r.num ** n, r.den ** n))
                if n and not r.is_zero():
                    assert fields(r ** -n) == fields(RatFunc(r.den ** n, r.num ** n))
            checked += not r.is_zero()
        assert checked > 40

    def test_field_ops_match_the_gcd_path(self):
        # + - * / reduce by gcds of the operands (Henrici's rule); every result
        # must equal the full gcd of the unreduced one, field by field
        def fields(f):
            return [(p.vars, p.cont, p.ints) for p in (f.num, f.den)]

        # factors from one small pool per variable set, so operands share them
        pools = [[parse_poly(text, vars) for text in texts] for vars, texts in (
            (VARS_T, ["t", "t - 1", "t + 2", "2*t + 1", "t^2 + 1", "t^2 - 3*t + 1"]),
            (VARS_XY, ["x", "y", "x - y", "x + y + 1", "2*x - 3", "x*y + 1", "y - x^2",
                       "x^2 + y^2 - 2"]),
        )]
        rng = random.Random(16)

        def product(factors, scale, count):
            p = MultiPoly.const(factors[0].vars, scale)
            for _ in range(count):
                p = p * rng.choice(factors)
            return p

        def operand(factors):
            num = product(factors, Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4)),
                          rng.randint(0, 2))
            den = product(factors, Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                          rng.choice((0, 1, 1, 2, 2, 3)))
            return RatFunc(num, den)

        checked = zeros = consts = den_one = 0
        while checked < 10000:
            factors = rng.choice(pools)
            r = operand(factors)
            s = -r if rng.random() < 0.1 else operand(factors)
            a, b, c, d = r.num, r.den, s.num, s.den
            den_one += b.is_const() + d.is_const()
            cases = [(r + s, a * d + c * b, b * d), (r - s, a * d - c * b, b * d),
                     (r * s, a * c, b * d), (s / r, c * b, d * a)]
            for got, num, den in cases:
                assert fields(got) == fields(RatFunc(num, den)), (r.render(), s.render())
                zeros += got.is_zero()
                consts += got.is_const()
                checked += 1
        assert zeros and consts > zeros and den_one

    @given(poly_strategy(VARS_T), poly_strategy(VARS_T))
    @settings(max_examples=50, deadline=None)
    def test_mul_div_inverse(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        f = RatFunc(p, q)
        assert f * (f ** -1) == RatFunc.from_const(VARS_T, 1)


def render_pool():
    """A seeded pool of 2,400 polynomials for the render oracle.

    Both variable sets; coefficients drawn as +-1, integers and fractions
    with denominators up to 6, so contents carry denominators and some
    coefficients reduce to integers; each polynomial is scaled by a content
    that may be negative or fractional.  Degree 0 draws give constants, and
    a draw of no terms the zero polynomial.
    """
    rng = random.Random(17)
    scales = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(12, 7)]
    pool = []
    while len(pool) < 2400:
        vars = rng.choice((VARS_T, VARS_XY))
        deg = rng.randint(0, 4)
        terms = {}
        for _ in range(rng.randint(0, 5)):
            if vars == VARS_T:
                e = (rng.randint(0, deg),)
            else:
                a = rng.randint(0, deg)
                e = (a, rng.randint(0, deg - a))
            kind = rng.randrange(3)
            if kind == 0:
                c = rng.choice((1, -1))
            elif kind == 1:
                c = rng.randint(-12, 12)
            else:
                c = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            terms[e] = c
        pool.append(MultiPoly(vars, terms) * rng.choice(scales))
    return pool


class TestRender:
    def test_pool_covers_the_cases(self):
        pool = render_pool()
        nonzero = [p for p in pool if not p.is_zero()]
        assert {p.vars for p in pool} == {VARS_T, VARS_XY}
        assert any(p.is_zero() for p in pool)
        assert any(p.is_const() for p in nonzero)
        assert any(p.cont.denominator != 1 and any(
            c.denominator == 1 for c in p.terms.values()) for p in nonzero)
        assert any(p.lc() < 0 for p in nonzero)
        assert any(abs(c) == 1 for p in nonzero for c in p.terms.values())

    def test_sort_key_matches_the_fraction_key(self):
        # the key reads the integer parts, with int products for an integral
        # content; it must equal, and so order primes as, the Fraction key
        pool = render_pool()
        nonzero = [p for p in pool if not p.is_zero()]
        assert any(p.cont.denominator == 1 and p.cont < 0 for p in nonzero)
        assert any(p.cont.denominator == 1 and p.cont > 1 for p in nonzero)
        assert any(p.cont.denominator != 1 and p.cont < 0 for p in nonzero)
        assert any(p.cont.denominator != 1 and p.cont > 0 for p in nonzero)
        for p in pool:
            assert p.sort_key() == fraction_sort_key(p), p.render()
        for vars in (VARS_T, VARS_XY):
            mixed = [p for p in pool if p.vars == vars]
            got = sorted(mixed, key=lambda p: p.sort_key())
            want = sorted(mixed, key=fraction_sort_key)
            assert [id(p) for p in got] == [id(p) for p in want]

    def test_multipoly_render_matches_the_fraction_oracle(self):
        for p in render_pool():
            assert p.render() == fraction_render(p)

    def test_ratfunc_render_matches_the_fraction_oracle(self):
        pool = render_pool()
        rng = random.Random(19)
        for num in pool[:1200]:
            den = rng.choice(pool)
            if den.is_zero():
                den = MultiPoly.const(num.vars, 1)
            elif den.vars != num.vars:
                den = MultiPoly.const(num.vars, den.lc())
            r = RatFunc(num, den)
            assert r.render() == fraction_render_ratfunc(r)


class TestDualRatFunc:
    def test_eps_square_dropped(self):
        u = DualRatFunc(RatFunc(X), RatFunc.from_const(VARS_XY, 1))
        v = DualRatFunc(RatFunc(Y), RatFunc.from_const(VARS_XY, 1))
        w = u * v
        assert w.body == RatFunc(X * Y)
        assert w.eps == RatFunc(X + Y)

    def test_invert_pinned(self):
        one = RatFunc.from_const(VARS_XY, 1)
        u = DualRatFunc(one, RatFunc(X))
        w = u.invert()
        assert w.body == one and w.eps == -RatFunc(X)

    def test_invert_zero_body(self):
        with pytest.raises(NotAUnit):
            DualRatFunc(RatFunc.from_const(VARS_XY, 0), RatFunc(X)).invert()

    def test_invert_roundtrip_randomized(self):
        # spec property: u * u.invert() = 1 for random units
        rng = random.Random(9)
        one = RatFunc.from_const(VARS_XY, 1)
        zero = RatFunc.from_const(VARS_XY, 0)
        checked = 0
        while checked < 200:
            b = rand_poly(rng, VARS_XY, 2)
            e = rand_poly(rng, VARS_XY, 2)
            if b.is_zero():
                continue
            u = DualRatFunc(RatFunc(b), RatFunc(e))
            w = u * u.invert()
            assert w.body == one and w.eps == zero
            checked += 1

    def test_specialize(self):
        u = DualRatFunc(RatFunc(X), RatFunc(Y))
        assert u.specialize() == RatFunc(X)

    def test_powers_match_repeated_products(self):
        # __pow__ uses (a + eps*b)^n = a^n + eps*n*a^(n-1)*b; the pool has
        # zero bodies, which have no negative powers, and zero eps parts
        rng = random.Random(25)
        one = DualRatFunc(RatFunc.from_const(VARS_XY, 1))
        zero = RatFunc.from_const(VARS_XY, 0)
        duals = [DualRatFunc(zero, RatFunc(X)), DualRatFunc(RatFunc(Y)), DualRatFunc(zero)]
        while len(duals) < 20:
            body, eps = rand_poly(rng, VARS_XY, 2), rand_poly(rng, VARS_XY, 2)
            den = rand_poly(rng, VARS_XY, 1)
            if not den.is_zero():
                duals.append(DualRatFunc(RatFunc(body, den), RatFunc(eps, den * den)))
        for u in duals:
            for n in range(-3, 7):
                if n < 0 and u.body.is_zero():
                    with pytest.raises(NotAUnit):
                        u ** n
                    continue
                expected = one
                for _ in range(abs(n)):
                    expected = expected * u if n > 0 else expected / u
                assert u ** n == expected, (u.render(), n)
                assert (u ** n).render() == expected.render()


def dense_pool(rng, q, count):
    """Seeded dense lists mod q: zero, constants, then degrees up to 12."""
    pool = [[], [1], [rng.randrange(1, q)]]
    while len(pool) < count:
        pool.append(_zred([rng.randrange(q) for _ in range(rng.randint(1, 13))], q))
    return pool


def sympy_fq(f, q):
    return sympy.Poly(list(reversed(f)) or [0], _ST, modulus=q)


def from_sympy_fq(p, q):
    return _zred([int(c) for c in reversed(p.all_coeffs())], q)


class TestDenseKernel:
    """The dense kernel's F_q[t] routines, for primes q and one prime power."""

    PRIMES = (3, 101, 10007)
    PRIME_POWER = 3 ** 7

    def test_divmod_rebuilds_the_dividend(self):
        for q in (*self.PRIMES, self.PRIME_POWER):
            rng = random.Random(q)
            pool = dense_pool(rng, q, 25)
            for f in pool:
                for g in pool:
                    # a quotient needs the divisor's lc to be a unit mod q
                    if not g or gcd(g[-1], q) != 1:
                        continue
                    quot, rem = _zdivmod(f, g, q)
                    assert len(rem) < len(g)
                    assert _zsub(f, _zmul(quot, g, q), q) == rem

    def test_gcd_is_monic_and_matches_sympy(self):
        for q in self.PRIMES:
            rng = random.Random(q)
            pool = dense_pool(rng, q, 20)
            common = _zred([rng.randrange(q) for _ in range(4)] + [1], q)
            pool += [_zmul(f, common, q) for f in pool[3:8]]
            for f in pool:
                for g in pool:
                    h = _zgcd(f, g, q)
                    assert h == [] or h[-1] == 1
                    assert h == from_sympy_fq(sympy_fq(f, q).gcd(sympy_fq(g, q)), q), (f, g, q)

    def test_inverse_mod_a_coprime_polynomial(self):
        for q in self.PRIMES:
            rng = random.Random(q)
            pool = dense_pool(rng, q, 20)
            checked = 0
            for a in pool:
                for b in pool:
                    if not b or _zgcd(a, b, q) != [1]:
                        continue
                    s = _zinv(a, b, q)
                    assert _zdivmod(_zmul(s, a, q), b, q)[1] == _zdivmod([1], b, q)[1]
                    checked += 1
            assert checked > 100

    def test_powmod_matches_repeated_multiplication(self):
        for q in (*self.PRIMES, self.PRIME_POWER):
            rng = random.Random(q)
            pool = dense_pool(rng, q, 12)
            mods = [f[:-1] + [1] for f in pool if len(f) > 1]
            for base in pool:
                for mod in mods:
                    power = [1]
                    for e in range(9):
                        assert _zpowmod(base, e, mod, q) == _zdivmod(power, mod, q)[1]
                        power = _zmul(power, base, q)

    def test_balanced_digits_round_trip(self):
        # odd and even bases; an even base keeps the digit base/2 positive
        rng = random.Random(7)
        randoms = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(50)]
        for base in (3, 4, 7, 10, 29, 30, 1000):
            half = base // 2
            for n in [0, 1, -1, half, -half, half + 1, base, -base, *randoms]:
                digits = _sym_digits(n, base)
                assert sum(d * base ** i for i, d in enumerate(digits)) == n
                assert all(-base < 2 * d <= base for d in digits)
                assert digits == [] or digits[-1] != 0
            assert _center(half, base) == half and _center(-half, base) == (
                half if base % 2 == 0 else -half)

    def test_balanced_digits_reject_a_base_below_three(self):
        # base 2 has no digit -1, so -1 would stay -1 forever; the check
        # comes before the loop, for zero too
        for n, base in [(-1, 2), (0, 2), (5, 2), (1, 1), (0, 0), (3, -5)]:
            with pytest.raises(ValueError, match="at least 3"):
                _sym_digits(n, base)

    def test_primitive_part(self):
        assert _iprimitive([4, -6, -2]) == [-2, 3, 1]
        assert _iprimitive([-5]) == [1]
        assert _iprimitive([0, 3, 9]) == [0, 1, 3]
