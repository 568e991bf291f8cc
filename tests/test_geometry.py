"""Divisors, valuations, restriction, and intersection cycles."""

import hashlib
import random
from fractions import Fraction

import pytest
import sympy

from tamearc import geometry
from tamearc.errors import DivisionByZero, InputError, NotAUnitAlongY, ProjectionDisagreement
from tamearc.expr import parse_poly
from tamearc.factor import FactorHints
from tamearc.geometry import (
    A2,
    P1,
    ClosedPoint,
    PrimeDivisor,
    ResidueFunc,
    canonical_point,
    div_codim1,
    div_on_curve,
    div_on_curves,
    divide_by_primes,
    intersection_cycle,
    prime_divisors,
    valuation,
)
from tamearc.poly import MultiPoly, RatFunc, VARS_T, VARS_XY, poly_gcd, subresultants

import frozen
import oracles

from test_poly import T, X, Y, _SX, _SY, rand_poly, to_sympy

x = RatFunc.variable("x")
y = RatFunc.variable("y")
t = RatFunc.variable("t")

V_X = PrimeDivisor(A2, X)
V_Y = PrimeDivisor(A2, Y)
INF = PrimeDivisor.infinity()


def rand_ratfunc(rng, vars, deg=3):
    while True:
        num = rand_poly(rng, vars, deg)
        den = rand_poly(rng, vars, deg)
        if not num.is_zero() and not den.is_zero():
            return RatFunc(num, den)


class TestValuation:
    def test_pinned(self):
        f = (x ** 2 * y) / (x - RatFunc.from_const(VARS_XY, 1))
        assert valuation(f, V_X) == 2
        assert valuation(f, V_Y) == 1
        assert valuation((t ** 2 - RatFunc.from_const(VARS_T, 1)) / t, INF) == -1

    def test_zero_function(self):
        with pytest.raises(DivisionByZero):
            valuation(RatFunc.from_const(VARS_XY, 0), V_X)

    def test_additivity_200_pairs(self):
        rng = random.Random(31)
        primes = [V_X, V_Y, PrimeDivisor(A2, X + Y), INF,
                  PrimeDivisor(P1, T), PrimeDivisor(P1, T - 1)]
        for trial in range(200):
            prime = primes[trial % len(primes)]
            vars = VARS_T if prime.variety.kind == "P1" else VARS_XY
            f = rand_ratfunc(rng, vars, 2)
            g = rand_ratfunc(rng, vars, 2)
            assert valuation(f * g, prime) == valuation(f, prime) + valuation(g, prime)


class TestDivCodim1:
    def test_p1_pinned(self):
        f = (t ** 2 - RatFunc.from_const(VARS_T, 1)) / t
        cycle = div_codim1(f, P1)
        terms = {p.render(): n for p, n in cycle.terms}
        assert terms == {"1": 1, "-1": 1, "0": -1, "INF": -1}
        assert cycle.total_degree() == 0

    def test_a2_pinned(self):
        cycle = div_codim1(x / y, A2)
        terms = {p.render(): n for p, n in cycle.terms}
        assert terms == {"V(x)": 1, "V(y)": -1}

    def test_constants_empty(self):
        assert div_codim1(RatFunc.from_const(VARS_T, 5), P1).is_zero()
        assert div_codim1(RatFunc.from_const(VARS_XY, -2), A2).is_zero()

    def test_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            div_codim1(RatFunc.from_const(VARS_XY, 0), A2)

    def test_multiplicative_randomized(self):
        rng = random.Random(32)
        for _ in range(40):
            f = rand_ratfunc(rng, VARS_T, 3)
            g = rand_ratfunc(rng, VARS_T, 3)
            lhs = div_codim1(f * g, P1)
            rhs = div_codim1(f, P1) + div_codim1(g, P1)
            assert lhs.terms == rhs.terms

    def test_p1_degree_always_zero(self):
        rng = random.Random(33)
        for _ in range(40):
            f = rand_ratfunc(rng, VARS_T, 4)
            assert div_codim1(f, P1).total_degree() == 0


class TestPrimeDivisors:
    def test_p1_prime_keeps_its_hint_tag(self):
        p = T ** 9 + T + 1
        [(prime, mult)] = prime_divisors(p, P1, [p])
        assert (prime.poly, mult, prime.certificate) == (p, 1, "user-asserted")


    def test_division_by_known_primes_matches_factoring(self):
        rng = random.Random(91)
        curves = [X - MultiPoly.const(VARS_XY, c) for c in (-2, 0, 3)]
        curves += [Y - X ** 2 - MultiPoly.const(VARS_XY, c) for c in (-1, 4)]
        curves += [X * Y - MultiPoly.const(VARS_XY, 1), Y ** 2 - X ** 3]
        for _ in range(30):
            chosen = rng.sample(curves, rng.randint(1, 4))
            p = MultiPoly.const(VARS_XY, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for c in chosen:
                p = p * c ** rng.randint(1, 3)
            want = sorted(prime_divisors(p, A2), key=lambda e: e[0].sort_key())
            known = [prime for prime, _ in want if rng.random() < 0.6]
            known.append(PrimeDivisor(A2, X + Y))  # divides nothing
            got = sorted(divide_by_primes(p, A2, known), key=lambda e: e[0].sort_key())
            assert got == want
            assert {prime.certificate for prime, _ in got} == {"proved"}

    def test_hint_factors_come_before_known_primes(self):
        # a hint named for the polynomial keeps its tag even when a known
        # (proved) prime would divide the same factor
        p = (T ** 9 + T + 1) * (T - 1) ** 2
        line = PrimeDivisor(P1, T - 1)
        hints = FactorHints()
        hints.add(p, [T ** 9 + T + 1, T - 1])
        got = divide_by_primes(p, P1, [line], hints)
        assert [(q.render(), m, q.certificate) for q, m in got] == [
            ("V(t^9 + t + 1)", 1, "user-asserted"), ("1", 2, "user-asserted")]
        got = divide_by_primes(p, P1, [PrimeDivisor(P1, T ** 9 + T + 1, "user-asserted")])
        assert sorted((q.render(), m, q.certificate) for q, m in got) == [
            ("1", 2, "proved"), ("V(t^9 + t + 1)", 1, "user-asserted")]


class TestRestrict:
    def test_class_identity(self):
        one = RatFunc.from_const(VARS_XY, 1)
        rf = ResidueFunc(V_X, (x + y) / (x - y))
        assert rf.same_class(ResidueFunc(V_X, -one))

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnitAlongY):
            ResidueFunc(V_X, x)
        with pytest.raises(NotAUnitAlongY):
            ResidueFunc(V_X, x ** -1)

    def test_residue_func_group(self):
        a = ResidueFunc(V_X, y)
        assert (a * a.inverse()).is_one()
        assert (a ** 3).rep == y ** 3

    def test_p1_residue_is_canonical(self):
        # on P1 the representative is the remainder mod the point's monic u
        point = PrimeDivisor(P1, T ** 2 - 2)
        one = RatFunc.from_const(VARS_T, 1)
        assert ResidueFunc(point, (t ** 3 + one) / (t + one)).rep.render() == "-t + 3"
        assert ResidueFunc(point, (t + 3 * one) ** -1).rep.render() == "-1/7*t + 3/7"
        assert ResidueFunc(point, t ** 2).rep == RatFunc.from_const(VARS_T, 2)
        assert ResidueFunc(INF, (2 * t + one) / (3 * t)).rep.const_value() == Fraction(2, 3)
        with pytest.raises(NotAUnitAlongY):
            ResidueFunc(point, t ** 2 - 2 * one)
        with pytest.raises(NotAUnitAlongY):
            ResidueFunc(INF, t)


class TestIntersection:
    def test_frozen_multiplicities(self):
        for (ps, hs, pt), mult in frozen.INTERSECTION_MULTIPLICITY.items():
            p = parse_poly(ps, VARS_XY)
            h = parse_poly(hs, VARS_XY)
            points = intersection_cycle(p, h)
            point = ClosedPoint.rational(Fraction(pt[0]), Fraction(pt[1]))
            assert points.get(point, 0) == mult, (ps, hs, pt)

    def test_live_oracle_agreement(self):
        # keep the frozen table honest: re-derive one value with the slow oracle
        mult = oracles.local_intersection_multiplicity(
            {(0, 1): Fraction(1), (2, 0): Fraction(-1)},
            {(1, 0): Fraction(1), (0, 1): Fraction(-1)}, (0, 0))
        assert mult == frozen.INTERSECTION_MULTIPLICITY[("y - x^2", "x - y", (0, 0))]

    def test_transverse_circle_line(self):
        circle = X ** 2 + Y ** 2 - MultiPoly.const(VARS_XY, 2)
        points = intersection_cycle(circle, X - Y)
        assert {pt.render(): n for pt, n in points.items()} == {"(1, 1)": 1, "(-1, -1)": 1}

    def test_tangency_multiplicity_two(self):
        circle = X ** 2 + Y ** 2 - MultiPoly.const(VARS_XY, 2)
        line = X + Y - MultiPoly.const(VARS_XY, 2)
        points = intersection_cycle(circle, line)
        assert {pt.render(): n for pt, n in points.items()} == {"(1, 1)": 2}

    def test_seed_independence(self):
        circle = X ** 2 + Y ** 2 - MultiPoly.const(VARS_XY, 2)
        base = intersection_cycle(circle, X - Y, seed=0)
        for seed in (1, 7, 1234):
            assert intersection_cycle(circle, X - Y, seed=seed) == base

    @pytest.mark.parametrize("ps, hs", [("x*(y - 1)", "x*(y + x)"),
                                         ("(x + y)*(y - x^2)", "x + y")])
    def test_curves_sharing_a_component_raise(self, ps, hs):
        # a shared component makes the resultant zero, not a nonzero constant
        p, h = parse_poly(ps, VARS_XY), parse_poly(hs, VARS_XY)
        with pytest.raises(InputError, match="share a component") as err:
            intersection_cycle(p, h)
        assert f"V({p.render()}) and V({h.render()})" in str(err.value)

    def test_point_off_the_curves_raises(self, monkeypatch):
        # a presentation moved off the curves fails the substitution check
        inner = geometry.canonical_point

        def moved(u, a_val, b_val):
            pt = inner(u, a_val, b_val)
            return ClosedPoint(A2, u0=pt.u0, v0=pt.v0 + 1)

        monkeypatch.setattr(geometry, "canonical_point", moved)
        circle = X ** 2 + Y ** 2 - MultiPoly.const(VARS_XY, 2)
        with pytest.raises(ProjectionDisagreement, match="is not a point of degree 1"):
            intersection_cycle(circle, X - Y)

    def test_point_of_the_wrong_degree_raises(self, monkeypatch):
        # V(y) and V(x^3 - 2x) meet in (0, 0) and in a point of degree 2;
        # (0, 0) lies on both curves, but not over the factor of degree 2
        monkeypatch.setattr(geometry, "canonical_point",
                            lambda u, a_val, b_val: ClosedPoint.rational(0, 0))
        with pytest.raises(ProjectionDisagreement, match="not a point of degree 2"):
            intersection_cycle(Y, X ** 3 - 2 * X)

    def test_graph_along_x_point_of_the_wrong_degree_raises(self, monkeypatch):
        # V(x) is the graph x = 0: the mirror of the pair above, intersected
        # with x and y exchanged and the coordinates exchanged back
        monkeypatch.setattr(geometry, "canonical_point",
                            lambda u, a_val, b_val: ClosedPoint.rational(0, 0))
        with pytest.raises(ProjectionDisagreement, match="not a point of degree 2"):
            intersection_cycle(X, Y ** 3 - 2 * Y)

    def test_projected_point_off_the_curves_raises(self, monkeypatch):
        # neither curve is a graph, so the projection presents the points
        inner = geometry.canonical_point

        def moved(u, a_val, b_val):
            pt = inner(u, a_val, b_val)
            return ClosedPoint(A2, u0=pt.u0, v0=pt.v0 + 1)

        monkeypatch.setattr(geometry, "canonical_point", moved)
        one = MultiPoly.const(VARS_XY, 1)
        p, h = X ** 2 + Y ** 2 - 2 * one, X ** 2 - Y ** 2
        with pytest.raises(ProjectionDisagreement, match="is not a point of degree 1"):
            intersection_cycle(p, h)

    def test_projected_point_of_the_wrong_degree_raises(self, monkeypatch):
        # V(y^2 - x^2) and V(y^2 - x^3 - x^2 + 2x), neither a graph, meet in
        # (0, 0) and in two points of degree 2 over x^2 - 2; (0, 0) lies on
        # both curves, but not over a factor of degree 2
        one = MultiPoly.const(VARS_XY, 1)
        p, h = Y ** 2 - X ** 2, Y ** 2 - X ** 3 - X ** 2 + 2 * X
        monkeypatch.setattr(geometry, "canonical_point",
                            lambda u, a_val, b_val: ClosedPoint.rational(0, 0))
        with pytest.raises(ProjectionDisagreement, match="not a point of degree 2"):
            intersection_cycle(p, h)

    def test_point_of_degree_two_in_y(self):
        # the x-coordinate sqrt 2 of (sqrt 2, sqrt 3) spans half of its
        # residue field, so v0 = y^2 - 3 and the check reduces by it
        one = MultiPoly.const(VARS_XY, 1)
        points = intersection_cycle(X ** 2 - 2 * one, Y ** 2 - 3 * one)
        [(point, mult)] = points.items()
        assert mult == 1 and point.residue_degree == 4
        assert point.v0.deg_in("y") == 2 and point.v0 == Y ** 2 - 3 * one
        assert geometry._vanishes_at(X ** 2 * Y ** 2 - 6 * one, point.u0, point.v0)
        assert not geometry._vanishes_at(X * Y - 6 * one, point.u0, point.v0)

    def test_substitution_check_at_a_rational_point(self):
        # at a point of degree 1 the check evaluates f(a, b), with no Horner
        # step, and a needs no denominator cleared
        one = MultiPoly.const(VARS_XY, 1)
        point = ClosedPoint.rational(Fraction(1, 2), Fraction(-3))
        on = 2 * X * Y + 3 * one
        assert geometry._vanishes_at(on, point.u0, point.v0)
        assert geometry._vanishes_at(on * (Y ** 3 - X), point.u0, point.v0)
        assert not geometry._vanishes_at(on + X, point.u0, point.v0)
        assert geometry._vanishes_at(MultiPoly.zero(VARS_XY), point.u0, point.v0)

    def test_irrational_point_generators(self):
        points = intersection_cycle(X, Y ** 2 - MultiPoly.const(VARS_XY, 2))
        assert len(points) == 1
        point, mult = next(iter(points.items()))
        assert mult == 1 and point.residue_degree == 2
        assert point.u0 == X
        assert point.v0 == Y ** 2 - MultiPoly.const(VARS_XY, 2)


class TestFiber:
    # in shape position the fiber gcd over the residue field F of a point is
    # g_n * (y - c)^n; these pairs meet in points of degree 2
    @staticmethod
    def rendered(p, h):
        return {pt.render(): n for pt, n in intersection_cycle(parse_poly(p, VARS_XY),
                                                               parse_poly(h, VARS_XY)).items()}

    def test_tangent_lines_over_a_quadratic_field(self):
        assert self.rendered("x^2 - 2", "(y - x)^2 + x^2 - 2") == {"(x^2 - 2, -x + y)": 2}
        assert self.rendered("x^2 - 2", "(y - x)^3 + x^2 - 2") == {"(x^2 - 2, -x + y)": 3}

    def test_fiber_gcd_of_degree_two_over_a_quadratic_field(self):
        # both curves are singular at the conjugate points (+-sqrt 2, +-sqrt 2),
        # so in shape position the fiber gcd there is g_2 * (y - c)^2, c != 0
        p = "(y - x)^2 + (x^2 - 2)^2"
        h = "(y - x)^2 - (x^2 - 2)^2*(x + 3)"
        assert self.rendered(p, h) == {"(x^2 - 2, -x + y)": 4, "(x + 4, y^2 + 8*y + 212)": 1}

    def test_first_shear_not_in_shape_position(self):
        # at lam = 0 the fiber over x = 1 holds the two points (1, 1) and (1, -1)
        assert self.rendered("y^2 - 1", "x^2 + y^2 - 2") == {
            "(1, -1)": 1, "(-1, -1)": 1, "(1, 1)": 1, "(-1, 1)": 1}

    def test_fiber_gcd_is_read_from_the_chain(self):
        # Res_y(y^2 - x, x*y + y - 10) = -(x - 4)*(x^2 + 6*x + 25): over each
        # factor the curves meet where S_1 = (x + 1)*y - 10 vanishes, and over
        # x = -3, off the resultant, the gcd is the constant S_0
        chain = subresultants(Y ** 2 - X, X * Y + Y - 10, "y")
        assert geometry._fiber_gcd(chain, X - 4).render() == "5*y - 10"
        assert geometry._fiber_gcd(chain, X ** 2 + 6 * X + 25).render() == "x*y + y - 10"
        assert geometry._fiber_gcd(chain, X + 3).render() == "112"

    def test_fiber_gcd_without_a_surviving_coefficient_raises(self):
        # the leading coefficient x of x*y + 2 vanishes mod x, and with it
        # every s_j: a typed error, never a wrong gcd
        chain = subresultants(X * Y ** 2 + 1, X * Y + 2, "y")
        with pytest.raises(ProjectionDisagreement):
            geometry._fiber_gcd(chain, X)


class TestSolveLinear:
    def test_pivots_and_relations_match_sympy_rref(self):
        # columns with planted dependencies, zero columns and rational
        # entries, each passed as the element of F with those coordinates,
        # whose content is negative when its last nonzero coordinate is; the
        # pivots are sympy's and each relation rebuilds its column
        rng = random.Random(17)
        ranks, signs = set(), set()
        for _ in range(60):
            rows, n = rng.randint(1, 6), rng.randint(1, 8)
            columns = []
            for _ in range(n):
                if columns and rng.random() < 0.4:
                    picks = rng.sample(columns, min(len(columns), 2))
                    column = [sum(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * c[i]
                                  for c in picks) for i in range(rows)]
                else:
                    column = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(rows)]
                columns.append(column)
            elements = [MultiPoly.from_dense(VARS_XY, "x", column) for column in columns]
            signs.update(e.cont < 0 for e in elements)
            pivots, relations = geometry._solve_linear(elements, rows)
            matrix = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                                    for c in row] for row in zip(*columns)])
            assert tuple(pivots) == matrix.rref()[1]
            assert sorted(relations) == [j for j in range(n) if j not in pivots]
            for j, coeffs in relations.items():
                before = [p for p in pivots if p < j]
                assert len(coeffs) == len(before)
                assert [sum((c * columns[p][i] for c, p in zip(coeffs, before)), Fraction(0))
                        for i in range(rows)] == columns[j]
            ranks.add(len(pivots) == min(rows, n))
        assert ranks == {True, False} and signs == {True, False}


class TestCanonicalPoint:
    # (u, a_val, b_val) presents a point by x = a_val, y = b_val in
    # F = Q[x]/(u); the expected (u0, v0) is the point's unique presentation
    CASES = [
        # a constant a_val, so u0 = x - a_val and F = Q(b_val)
        ("x^2 - 2", "0", "x", "(x, y^2 - 2)"),
        # x = sqrt 2, y = sqrt 3 in F = Q(sqrt 2 + sqrt 3): k0 = 2 < k = 4
        ("x^4 - 10*x^2 + 1", "1/2*x^3 - 9/2*x", "-1/2*x^3 + 11/2*x",
         "(x^2 - 2, y^2 - 3)"),
        # x = 2^(1/3), y = sqrt 3 in F = Q(2^(1/3) + sqrt 3): k0 = 3 < k = 6
        ("x^6 - 9*x^4 - 4*x^3 + 27*x^2 - 36*x - 23",
         "-2/51*x^5 - 1/102*x^4 + 20/51*x^3 + 13/51*x^2 - 38/51*x + 91/102",
         "2/51*x^5 + 1/102*x^4 - 20/51*x^3 - 13/51*x^2 + 89/51*x - 91/102",
         "(x^3 - 2, y^2 - 3)"),
        # F is presented by the y-coordinate, so b_val = x; on x^3 + x^2 = 1,
        # y^2 = 1 - x^2 the x-coordinate is y^2 / (1 - y^2) = y^4 - y^2 + 1
        ("x^6 - 2*x^4 + 3*x^2 - 1", "x^4 - x^2 + 1", "x",
         "(x^3 + x^2 - 1, x^2 + y^2 - 1)"),
        # x = sqrt 2 + sqrt 3, y = sqrt 2 in F = Q(sqrt 2 + 2 sqrt 3): k0 = k
        ("x^4 - 28*x^2 + 100", "1/40*x^3 + 1/20*x", "1/20*x^3 - 9/10*x",
         "(x^4 - 10*x^2 + 1, -1/2*x^3 + 9/2*x + y)"),
        # a_val = x: the point is (u, y - b_val), u made monic
        ("x^3 - 2", "x", "x^2", "(x^3 - 2, -x^2 + y)"),
        ("2*x^2 - 4", "x", "0", "(x^2 - 2, y)"),
        # a point of degree 1
        ("x - 3", "3", "5", "(3, 5)"),
    ]

    @staticmethod
    def parsed(*texts):
        return [parse_poly(text, VARS_XY) for text in texts]

    @pytest.mark.parametrize("us, As, bs, expected", CASES, ids=[c[3] for c in CASES])
    def test_presentation(self, us, As, bs, expected):
        u, a_val, b_val = self.parsed(us, As, bs)
        point = canonical_point(u, a_val, b_val)
        assert point.render() == expected
        k = u.deg_in("x")
        k0 = point.u0.deg_in("x")
        assert point.residue_degree == k
        assert point.v0.deg_in("y") == k // k0 and point.v0.lc_in("y").const_value() == 1
        assert point.v0.deg_in("x") < k0
        # u0 is the radical of the characteristic polynomial Res_t(u(t), x - a_val(t))
        t = sympy.Symbol("t")
        ut, at, bt = (to_sympy(p).subs(_SX, t) for p in (u, a_val, b_val))
        charpoly = sympy.resultant(ut, _SX - at, t)
        radical = sympy.Poly(sympy.sqf_part(charpoly), _SX).monic()
        assert radical == sympy.Poly(to_sympy(point.u0), _SX, domain="QQ")
        # (u0, v0) vanish at (a_val, b_val) mod u
        for gen in (point.u0, point.v0):
            value = sympy.expand(to_sympy(gen).subs({_SX: at, _SY: bt}, simultaneous=True))
            assert sympy.rem(value, ut, t) == 0, gen.render()

    @pytest.mark.parametrize("us, As, bs", [
        ("x^2 - 2", "0", "0"),
        ("x^2 - 2", "3", "5"),
        # x = y = sqrt 2 in Q(sqrt 2 + sqrt 3)
        ("x^4 - 10*x^2 + 1", "1/2*x^3 - 9/2*x", "1/2*x^3 - 9/2*x"),
        # x = sqrt 2, y = 2 + sqrt 2 in Q(sqrt 2 + sqrt 3)
        ("x^4 - 10*x^2 + 1", "1/2*x^3 - 9/2*x", "1/2*x^3 - 9/2*x + 2"),
    ])
    def test_data_that_do_not_generate_the_field_raise(self, us, As, bs):
        # Q(a_val, b_val) is a proper subfield of F: the products
        # b_val^j * a_val^i are dependent, never a point of lower degree
        with pytest.raises(ProjectionDisagreement, match="does not generate"):
            canonical_point(*self.parsed(us, As, bs))


def rand_curve(rng):
    """An irreducible line, conic or cubic with small integer coefficients."""
    a, b, c = (rng.randint(-3, 3) for _ in range(3))
    one = MultiPoly.const(VARS_XY, 1)
    kind = rng.randrange(4)
    if kind == 0:
        return (a or 1) * X + b * Y + c * one
    if kind == 1:
        return Y - X ** 2 - a * X - b * one
    if kind == 2:
        return X ** 2 + (a or 2) * Y ** 2 - (c or 3) * one
    return Y ** 2 - X ** 3 - a * X - b * one


def rand_monic_curve(rng, d):
    """A curve of degree d, monic in y, with coefficients in -3..3."""
    terms = {(0, d): 1}
    for i in range(d + 1):
        for j in range(min(d - i, d - 1) + 1):
            terms[(i, j)] = rng.randint(-3, 3)
    return MultiPoly(VARS_XY, terms)


def render_points(cycle):
    """An intersection cycle {ClosedPoint: n} as text, points in their sort order."""
    return " + ".join(f"{n}*[{pt.render()}]" for pt, n in
                      sorted(cycle.items(), key=lambda kv: kv[0].sort_key()))


def sweep_pairs():
    """The seeded pool of curve pairs of intersection_sweep.

    It holds 300 random lines, conics and cubics, pairs meeting in points
    whose x-coordinate generates a proper subfield of the residue field,
    and four pairs of quartics monic in y.
    """
    rng = random.Random(41)
    one = MultiPoly.const(VARS_XY, 1)
    pairs = [(rand_curve(rng), rand_curve(rng)) for _ in range(300)]
    pairs += [(X ** 2 - 2 * one, (Y - X) ** 2 - 3 * one),
              (X ** 3 - 2 * one, (Y - X) ** 2 - 3 * one),
              (Y ** 2 - 2 * one, (X - Y) ** 2 - 3 * one),
              (X ** 2 - 2 * one, Y ** 2 - 3 * one),
              (X ** 2 - 5 * one, (Y - X * X) ** 2 - 7 * one)]
    pairs += [(rand_monic_curve(r, 4), rand_monic_curve(r, 4))
              for r in map(random.Random, range(4))]
    return pairs


def intersection_sweep():
    """One rendered line per pair of sweep_pairs(), and the residue degrees met.

    Pair i is intersected with seed i % 3.  A pair that raises renders its
    error.
    """
    lines, degrees = [], set()
    for i, (p, h) in enumerate(sweep_pairs()):
        try:
            cycle = intersection_cycle(p, h, seed=i % 3)
        except (InputError, ProjectionDisagreement) as err:
            text = f"{type(err).__name__}: {err}"
        else:
            degrees.update(pt.residue_degree for pt in cycle)
            text = render_points(cycle)
        lines.append(f"{p.render()} . {h.render()} = {text}\n")
    return lines, degrees


class TestIntersectionSweep:
    def test_cycles_hash_as_before(self):
        # the digest was frozen from the k-fold canonical_point search, so
        # the characteristic-polynomial route renders every cycle the same
        lines, degrees = intersection_sweep()
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
        assert digest == frozen.INTERSECTION_SWEEP_DIGEST
        assert len(lines) == 309 and {1, 2, 3, 4, 6, 15, 16} <= degrees

    def test_both_projections_give_the_one_projection_cycle(self):
        # the comparison intersection_cycle ran at run time before its
        # substitution check, replayed on every pair, errors included
        def outcome(run, p, h, seed):
            try:
                return run(p, h, seed)
            except (InputError, ProjectionDisagreement) as err:
                return type(err)

        for i, (p, h) in enumerate(sweep_pairs()):
            assert (outcome(oracles.two_projection_cycle, p, h, i % 3)
                    == outcome(intersection_cycle, p, h, i % 3)), (p.render(), h.render())

    def test_both_paths_are_swept(self, monkeypatch):
        # a pair holding a graph is intersected by substitution, any other by
        # one projection, so the digest and the oracle cover both paths
        taken = []
        for name in ("_graph_points", "_intersection_points"):
            def counted(*args, inner=getattr(geometry, name), name=name, **kwargs):
                taken.append(name)
                return inner(*args, **kwargs)
            monkeypatch.setattr(geometry, name, counted)
        for i, (p, h) in enumerate(sweep_pairs()):
            try:
                intersection_cycle(p, h, seed=i % 3)
            except (InputError, ProjectionDisagreement):
                pass
        assert len(taken) == 309
        assert taken.count("_graph_points") == 237
        assert taken.count("_intersection_points") == 72


class TestIntersectionSymmetry:
    def test_order_of_the_curves_does_not_matter(self):
        # a Gersten check intersects each unordered pair once, so the cycle
        # must not depend on which curve comes first
        one = MultiPoly.const(VARS_XY, 1)
        pairs = [(X ** 2 + Y ** 2 - 3 * one, Y - X),       # one point of degree 2
                 (Y - X ** 2 + 2 * one, Y),                 # one point of degree 2
                 (Y - X ** 3 + 2 * one, Y),                 # one point of degree 3
                 (Y ** 2 - X ** 3 - X - one, X - Y),
                 (X ** 2 - 2 * one, (Y - X) ** 2 + X ** 2 - 2 * one),
                 (X ** 2 - 2 * one, (Y - X) ** 3 + X ** 2 - 2 * one),
                 (Y ** 2 - one, X ** 2 + Y ** 2 - 2 * one)]
        rng = random.Random(93)
        while len(pairs) < 43:
            p, h = rand_curve(rng), rand_curve(rng)
            if poly_gcd(p, h).degree() == 0:
                pairs.append((p, h))
        degrees = set()
        for i, (p, h) in enumerate(pairs):
            seed = i % 3
            forward = intersection_cycle(p, h, seed)
            assert intersection_cycle(h, p, seed) == forward, (p.render(), h.render())
            degrees.update(pt.residue_degree for pt in forward)
        assert {1, 2, 3} <= degrees


class TestDivOnCurve:
    def test_p1_rational_function(self):
        cycle = div_on_curve((t ** 2 - RatFunc.from_const(VARS_T, 1)) / t)
        terms = {pt.render(): n for pt, n in cycle.terms}
        assert terms == {"1": 1, "-1": 1, "0": -1, "INF": -1}

    def test_p1_residue_func_rejected(self, monkeypatch):
        # a ResidueFunc on a P1 point has no curve in A2 to intersect with
        rf = ResidueFunc(PrimeDivisor(P1, T ** 2 + 1), t)
        with pytest.raises(ValueError):
            div_on_curve(rf)

        # in a mixed list, every variety is checked before any division
        def divided(*args, **kwargs):
            raise AssertionError("a function was divided before the P1 one was seen")

        monkeypatch.setattr(geometry, "divide_by_primes", divided)
        monkeypatch.setattr(geometry, "prime_divisors", divided)
        on_a2 = ResidueFunc(V_X, y + RatFunc.from_const(VARS_XY, 1))
        with pytest.raises(ValueError):
            div_on_curves(iter([on_a2, rf]))

    def test_p1_has_no_closed_point(self):
        with pytest.raises(ValueError):
            ClosedPoint(P1, u0=X, v0=Y)

    def test_vertical_line(self):
        rf = ResidueFunc(V_X, y * (y - RatFunc.from_const(VARS_XY, 1)))
        cycle = div_on_curve(rf)
        terms = {pt.render(): n for pt, n in cycle.terms}
        assert terms == {"(0, 0)": 1, "(0, 1)": 1}

    def test_pole_sign(self):
        rf = ResidueFunc(V_X, y ** -1)
        cycle = div_on_curve(rf)
        assert {pt.render(): n for pt, n in cycle.terms} == {"(0, 0)": -1}

    def test_tangency_on_parabola(self):
        curve = PrimeDivisor(A2, Y - X ** 2)
        cycle = div_on_curve(ResidueFunc(curve, y))
        assert {pt.render(): n for pt, n in cycle.terms} == {"(0, 0)": 2}

    def test_degree_two_point(self):
        rf = ResidueFunc(V_X, y ** 2 - RatFunc.from_const(VARS_XY, 2))
        cycle = div_on_curve(rf)
        assert len(cycle.terms) == 1
        point, mult = cycle.terms[0]
        assert mult == 1 and point.residue_degree == 2

    def test_multiplicative_on_curve(self):
        rng = random.Random(34)
        curve = PrimeDivisor(A2, Y - X ** 2)
        done = 0
        while done < 15:
            num = rand_poly(rng, VARS_XY, 2)
            den = rand_poly(rng, VARS_XY, 2)
            try:
                f = ResidueFunc(curve, RatFunc(num, den))
                g = ResidueFunc(curve, RatFunc(den + num, den))
            except (NotAUnitAlongY, DivisionByZero):
                continue
            lhs = div_on_curve(f * g)
            rhs = div_on_curve(f) + div_on_curve(g)
            assert lhs.terms == rhs.terms
            done += 1
