"""Milnor symbols, the tame symbol, arcs, and the eps boundary."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from tamearc import ksymbols
from tamearc.errors import (
    EpsDatumIrregular,
    InputError,
    NotAUnitAlongY,
    ScopeError,
)
from tamearc.expr import parse_expr
from tamearc.geometry import A2, P1, PrimeDivisor, ResidueFunc
from tamearc.gersten import weil_check_p1
from tamearc.ksymbols import (
    DualMilnorSymbol,
    GGArc,
    K1Cycle,
    MilnorSymbol,
    arc_as_double_ses,
    arc_specialize,
    d_eps,
    div_k1,
    p1_component_norm,
    specialize_arcs,
    tame,
)
from tamearc.poly import DualRatFunc, RatFunc, VARS_T, VARS_XY

import frozen

from test_poly import T, X, Y
from test_geometry import V_X, V_Y, rand_ratfunc, t, x, y

ONE_T = RatFunc.from_const(VARS_T, 1)
ZERO_T = RatFunc.from_const(VARS_T, 0)
ONE_XY = RatFunc.from_const(VARS_XY, 1)
ZERO_XY = RatFunc.from_const(VARS_XY, 0)


def rand_linear_rational(rng, max_factors=3):
    """Nonzero element of Q(t) with rational zeros and poles."""
    f = RatFunc.from_const(VARS_T, Fraction(rng.choice([1, 2, 3, -1, -2])))
    for _ in range(rng.randint(1, max_factors)):
        a = RatFunc.from_const(VARS_T, rng.randint(-4, 4))
        f = f * ((t - a) ** rng.choice([1, -1]))
    return f


class TestTameP1:
    def test_worked_instance_frozen(self):
        cycle = tame(MilnorSymbol.of(t, t - RatFunc.from_const(VARS_T, 2)))
        got = {}
        for point, val in cycle.terms:
            key = "INF" if point.at_infinity else int(-point.poly.dense_in("t")[0].const_value())
            got[key] = val.rep.const_value()
        assert got == frozen.TAME_T_TMINUS2

    def test_steinberg_trivial(self):
        cycle = tame(MilnorSymbol.of(t, ONE_T - t))
        assert cycle.is_trivial()
        for key, expected in frozen.TAME_STEINBERG_T.items():
            assert expected == 1  # the frozen oracle agrees the components are 1

    def test_constants_trivial(self):
        two = RatFunc.from_const(VARS_T, 2)
        three = RatFunc.from_const(VARS_T, 3)
        assert tame(MilnorSymbol.of(two, three)).is_trivial()

    def test_steinberg_randomized(self):
        rng = random.Random(41)
        done = 0
        while done < 50:
            f = rand_linear_rational(rng)
            if f.is_zero() or (ONE_T - f).is_zero():
                continue
            assert tame(MilnorSymbol.of(f, ONE_T - f)).is_trivial()
            done += 1

    def test_antisymmetry_randomized(self):
        # tame({f,g}) * tame({g,f}) = 1
        rng = random.Random(42)
        for _ in range(30):
            f = rand_linear_rational(rng)
            g = rand_linear_rational(rng)
            c1 = tame(MilnorSymbol.of(f, g))
            c2 = tame(MilnorSymbol.of(g, f))
            assert (c1 * c2).is_trivial()

    def test_bimultiplicative_randomized(self):
        rng = random.Random(43)
        for _ in range(30):
            f1 = rand_linear_rational(rng)
            f2 = rand_linear_rational(rng)
            g = rand_linear_rational(rng)
            lhs = tame(MilnorSymbol.of(f1 * f2, g))
            rhs = tame(MilnorSymbol.of(f1, g)) * tame(MilnorSymbol.of(f2, g))
            assert lhs.same_cycle(rhs) or (lhs * rhs.power(-1)).is_trivial()

    def test_coefficient_is_power(self):
        s2 = MilnorSymbol.of(t, t - RatFunc.from_const(VARS_T, 2), coeff=2)
        s1 = MilnorSymbol.of(t, t - RatFunc.from_const(VARS_T, 2))
        assert tame(s2).same_cycle(tame(s1).power(2))

    def test_norm_product_is_one(self):
        cycle = tame(MilnorSymbol.of(t, t - RatFunc.from_const(VARS_T, 2)))
        product = Fraction(1)
        for point, val in cycle.terms:
            product *= p1_component_norm(point, val)
        assert product == 1


def rand_mixed_p1(rng):
    """Nonzero element of Q(t) whose zeros and poles are rational points and
    points of degree 2 and 3 (the irreducible t^2 + a and t^3 - b).

    Numerator and denominator have degree at most 4, so a product of two
    has degree at most 8.
    """
    def c(v):
        return RatFunc.from_const(VARS_T, v)

    f = c(rng.choice([1, 2, 3, -1, -2]))
    room = {1: 4, -1: 4}
    for _ in range(rng.randint(1, 4)):
        factor = rng.choice([t - c(rng.randint(-4, 4)),
                             t ** 2 + c(rng.choice([1, 2, 3, 5])),
                             t ** 3 - c(rng.choice([2, 3, 5, 6]))])
        side = rng.choice([1, -1])
        if factor.num.degree() <= room[side]:
            room[side] -= factor.num.degree()
            f = f * factor ** side
    return f


class TestTameP1MixedDegrees:
    """Seeded pool on P1 that reaches points of degree 2 and 3."""

    def test_pool_reaches_higher_degree_points(self):
        rng = random.Random(46)
        seen = set()
        for _ in range(20):
            cycle = tame(MilnorSymbol.of(rand_mixed_p1(rng), rand_mixed_p1(rng)))
            seen.update(key.render()[:5] for key, _ in cycle.terms)
        assert {"V(t^2", "V(t^3"} <= seen

    def test_bimultiplicative(self):
        rng = random.Random(47)
        for _ in range(15):
            f1, f2, g = (rand_mixed_p1(rng) for _ in range(3))
            lhs = tame(MilnorSymbol.of(f1 * f2, g))
            rhs = tame(MilnorSymbol.of(f1, g)) * tame(MilnorSymbol.of(f2, g))
            assert lhs.same_cycle(rhs)
            lhs = tame(MilnorSymbol.of(g, f1 * f2))
            rhs = tame(MilnorSymbol.of(g, f1)) * tame(MilnorSymbol.of(g, f2))
            assert lhs.same_cycle(rhs)

    def test_antisymmetric_and_power_minus_one_inverts(self):
        rng = random.Random(48)
        for _ in range(20):
            f, g = rand_mixed_p1(rng), rand_mixed_p1(rng)
            c1 = tame(MilnorSymbol.of(f, g))
            c2 = tame(MilnorSymbol.of(g, f))
            assert (c1 * c2).is_trivial()
            assert (c1 * c1.power(-1)).is_trivial()
            assert c1.power(-1).same_cycle(c2)

    def test_norm_product_is_one(self):
        rng = random.Random(49)
        for _ in range(20):
            f, g = rand_mixed_p1(rng), rand_mixed_p1(rng)
            assert weil_check_p1(f, g).verdict


class TestTameA2:
    def test_pinned_xy(self):
        cycle = tame(MilnorSymbol.of(x, y))
        got = {prime.render(): rf for prime, rf in cycle.terms}
        assert set(got) == {"V(x)", "V(y)"}
        assert got["V(x)"].same_class(ResidueFunc(V_X, y ** -1))
        assert got["V(y)"].same_class(ResidueFunc(V_Y, x))

    def test_div_k1_of_tame_is_zero(self):
        cycle = tame(MilnorSymbol.of(x, y))
        assert div_k1(cycle).is_zero()

    def test_div_k1_single_component(self):
        c = K1Cycle.build(A2, [(V_X, ResidueFunc(V_X, y))])
        assert {pt.render(): n for pt, n in div_k1(c).terms} == {"(0, 0)": 1}

    def test_div_k1_rejects_p1(self):
        cycle = tame(MilnorSymbol.of(t, t - RatFunc.from_const(VARS_T, 2)))
        with pytest.raises(ScopeError):
            div_k1(cycle)

    def test_zero_entry_rejected(self):
        with pytest.raises(InputError):
            MilnorSymbol.of(x, ZERO_XY)


class TestK1Cycle:
    def test_identity_components_dropped(self):
        c = K1Cycle.build(A2, [(V_X, ResidueFunc(V_X, y)),
                               (V_X, ResidueFunc(V_X, y ** -1))])
        assert c.is_trivial()

    def test_merge_multiplies(self):
        c = K1Cycle.build(A2, [(V_X, ResidueFunc(V_X, y)),
                               (V_X, ResidueFunc(V_X, y + ONE_XY))])
        assert len(c.terms) == 1
        assert c.terms[0][1].same_class(ResidueFunc(V_X, y * (y + ONE_XY)))

    def test_p1_values_mod_u(self):
        point = PrimeDivisor(P1, T * T - 2)
        c = K1Cycle.build(P1, [(point, ResidueFunc(point, t)),
                               (point, ResidueFunc(point, t))])
        # theta * theta = 2 in Q[t]/(t^2 - 2)
        assert c.terms[0][1].rep == RatFunc.from_const(VARS_T, 2)

    def test_immutable(self):
        c = K1Cycle.trivial(A2)
        with pytest.raises(AttributeError):
            c.terms = ()


class TestDEps:
    def test_pinned_x_eps_y(self):
        s = DualMilnorSymbol.of(DualRatFunc(x, ONE_XY), DualRatFunc(y, ZERO_XY))
        arcs = d_eps(s)
        assert [a.render() for a in arcs] == [
            "arc(V(x), datum 1, unit y, sign +1)",
            "arc(V(y), datum 0, unit x + eps, sign -1)",
        ]

    def test_degenerate_shared_component(self):
        s = DualMilnorSymbol.of(DualRatFunc(x, ONE_XY), DualRatFunc(x, ZERO_XY))
        assert d_eps(s) == []

    def test_pinned_both_deformed(self):
        s = DualMilnorSymbol.of(DualRatFunc(x, ONE_XY), DualRatFunc(y, ONE_XY))
        arcs = d_eps(s)
        assert [a.render() for a in arcs] == [
            "arc(V(x), datum 1, unit y + eps, sign +1)",
            "arc(V(y), datum 1, unit x + eps, sign -1)",
        ]

    def test_per_component_datum(self):
        F = x * (x - ONE_XY)
        s = DualMilnorSymbol.of(DualRatFunc(F, ONE_XY), DualRatFunc(y, ZERO_XY))
        data = {a.curve.poly.render(): a.datum.render() for a in d_eps(s)}
        assert data == {"x": "1/(x - 1)", "x - 1": "1/x", "y": "0"}

    def test_datum_regularity_guard(self):
        s = DualMilnorSymbol.of(DualRatFunc(x * x, ONE_XY), DualRatFunc(y, ZERO_XY))
        with pytest.raises(EpsDatumIrregular):
            d_eps(s)

    def test_repeated_component_copies(self):
        s = DualMilnorSymbol.of(DualRatFunc(x * x, x), DualRatFunc(y, ZERO_XY))
        arcs = d_eps(s)
        on_x = [a for a in arcs if a.curve == V_X]
        assert len(on_x) == 2
        assert all(a.datum == RatFunc.from_const(VARS_XY, Fraction(1, 2))
                   for a in on_x)

    def test_denominator_component_sign(self):
        s = DualMilnorSymbol.of(DualRatFunc(x / y, ONE_XY), DualRatFunc(
            x - y - ONE_XY, ZERO_XY))
        arcs = d_eps(s)
        signs = {a.curve.poly.render(): a.sign for a in arcs
                 if a.unit.body == x - y - ONE_XY}
        assert signs == {"x": 1, "y": -1}

    def test_p1_requires_finite_chart(self):
        s = DualMilnorSymbol.of(
            DualRatFunc(t, ONE_T),
            DualRatFunc(t - RatFunc.from_const(VARS_T, 1), ZERO_T))
        with pytest.raises(ScopeError):
            d_eps(s)

    def test_p1_finite_chart_works(self):
        f = t / (t - RatFunc.from_const(VARS_T, 1))
        g = (t - RatFunc.from_const(VARS_T, 2)) / (t - RatFunc.from_const(VARS_T, 3))
        s = DualMilnorSymbol.of(DualRatFunc(f, ONE_T), DualRatFunc(g, ZERO_T))
        arcs = d_eps(s)
        assert len(arcs) == 4
        cycle = specialize_arcs(arcs, P1)
        assert cycle.same_cycle(tame(s.specialize()))


    def test_p1_datum_on_the_monic_equation(self):
        s = DualMilnorSymbol.of(parse_expr("(2*t - 1)/(t + 5) + eps"),
                                parse_expr("(t + 3)/(t - 7) + eps*t"))
        assert d_eps(s)[0].render() == (
            "arc(1/2, datum 1/2*t + 5/2, unit (t + 3)/(t - 7) + eps*t, sign +1)")

    def test_repeated_terms_factor_each_body_once(self, monkeypatch):
        # {u,v} - {u,v} + 2{u,v}: two nonconstant body parts, each factored
        # once, and the arcs of each (body, other unit, sign) built once
        calls = []
        inner = ksymbols.prime_divisors

        def counted(poly, X, hints=None):
            calls.append(poly)
            return inner(poly, X, hints)

        monkeypatch.setattr(ksymbols, "prime_divisors", counted)
        u = parse_expr("x*(y - 1) + eps*y")
        v = parse_expr("(x + y - 3)*(y - x^2) + eps*x")
        arcs = d_eps(DualMilnorSymbol(((u, v, 1), (u, v, -1), (u, v, 2))))
        assert len(calls) == 2
        plus, minus = (d_eps(DualMilnorSymbol.of(u, v, c)) for c in (1, -1))
        assert arcs == plus + minus + plus * 2
        assert len(arcs) == 16 and len({id(a) for a in arcs}) == 8
        # {v,u} reads the same two families of arcs as -{u,v}
        calls.clear()
        both = d_eps(DualMilnorSymbol(((u, v, -1), (v, u, 1))))
        assert len(calls) == 2
        assert both == minus + d_eps(DualMilnorSymbol.of(v, u))
        assert len({id(a) for a in both}) == 4

    def test_unit_eps_pole_is_reported_as_before(self):
        # the one check that d_eps's arcs still run, with GGArc's message
        s = DualMilnorSymbol.of(parse_expr("x + eps*y"), parse_expr("y - 1 + eps/x"))
        with pytest.raises(EpsDatumIrregular) as info:
            d_eps(s)
        assert str(info.value) == "unit eps part 1/x has a pole along V(x)"

    def test_arcs_pass_every_check_of_the_constructor(self):
        # d_eps builds its arcs without GGArc's checks on the unit and the
        # datum; the same arcs built with every check are equal
        rng = random.Random(45)
        done = 0
        while done < 40:
            vars_ = VARS_T if done % 4 == 0 else VARS_XY
            f = rand_ratfunc(rng, vars_, 2)
            g = rand_ratfunc(rng, vars_, 2)
            f1 = rand_ratfunc(rng, vars_, 1)
            g1 = rand_ratfunc(rng, vars_, 1)
            if f.is_zero() or g.is_zero():
                continue
            s = DualMilnorSymbol.of(DualRatFunc(f, f1), DualRatFunc(g, g1))
            try:
                arcs = d_eps(s)
            except (EpsDatumIrregular, ScopeError):
                continue
            for a in arcs:
                assert GGArc(curve=a.curve, datum=a.datum, unit=a.unit, sign=a.sign) == a
            done += 1


class TestArcSpecialize:
    def test_inverse_for_positive_sign(self):
        a = GGArc(curve=V_X, datum=ONE_XY, unit=DualRatFunc(y, ZERO_XY), sign=1)
        cycle = arc_specialize(a)
        assert cycle.terms[0][1].same_class(ResidueFunc(V_X, y ** -1))

    def test_direct_for_negative_sign(self):
        a = GGArc(curve=V_Y, datum=ZERO_XY, unit=DualRatFunc(x, ZERO_XY), sign=-1)
        cycle = arc_specialize(a)
        assert cycle.terms[0][1].same_class(ResidueFunc(V_Y, x))

    def test_naturality_randomized(self):
        # sum of arc specializations equals tame of the specialized symbol
        rng = random.Random(44)
        done = 0
        while done < 25:
            exps = [rng.choice([1, -1]) for _ in range(2)]
            F = ((x - RatFunc.from_const(VARS_XY, rng.randint(-3, 3))) ** exps[0]
                 * (y - x ** 2) ** exps[1])
            G = y - RatFunc.from_const(VARS_XY, rng.randint(4, 9))
            F1 = x * y if rng.random() < 0.5 else ONE_XY
            G1 = x if rng.random() < 0.5 else ZERO_XY
            s = DualMilnorSymbol.of(DualRatFunc(F, F1), DualRatFunc(G, G1))
            arcs = d_eps(s)
            assert specialize_arcs(arcs, A2).same_cycle(tame(s.specialize()))
            done += 1


def _fold(arcs, variety):
    """specialize_arcs as a product of the arc_specialize cycles, one at a time."""
    return reduce(K1Cycle.__mul__, map(arc_specialize, arcs), K1Cycle.trivial(variety))


def _arc_family(rng, variety):
    """2-12 arcs on a few curves, with repeated units and both signs."""
    if variety == P1:
        curves = [PrimeDivisor(P1, p) for p in (T, T - 1, T ** 2 + 1, 2 * T + 3)]
        units = [t - RatFunc.from_const(VARS_T, c) for c in (2, -3, 5)] + [t ** 2 + ONE_T]
        zero = ZERO_T
    else:
        curves = [V_X, V_Y, PrimeDivisor(A2, X - 1), PrimeDivisor(A2, Y - X ** 2)]
        units = [y + ONE_XY, x - ONE_XY, (x - y) / (y - RatFunc.from_const(VARS_XY, 3)),
                 x + y - RatFunc.from_const(VARS_XY, 5), RatFunc.from_const(VARS_XY, -2)]
        zero = ZERO_XY
    arcs = []
    while len(arcs) < rng.randint(2, 12):
        curve = rng.choice(curves)
        unit = rng.choice(units)
        try:
            arc = GGArc(curve=curve, datum=zero, unit=DualRatFunc(unit, zero),
                        sign=rng.choice([1, -1]))
        except NotAUnitAlongY:
            continue
        arcs.extend([arc] * rng.choice([1, 1, 2, 3]))
    return arcs


class TestSpecializeArcs:
    def _assert_same_as_fold(self, arcs, variety):
        got, want = specialize_arcs(arcs, variety), _fold(arcs, variety)
        assert got.variety == want.variety
        assert [key for key, _ in got.terms] == [key for key, _ in want.terms]
        assert [val.rep for _, val in got.terms] == [val.rep for _, val in want.terms]
        assert got.render() == want.render()

    def test_a_product_that_becomes_one_is_dropped(self):
        # on V(x), x - 1 is -1: two arcs of sign +1 multiply to 1 and drop
        # out, and the third starts a new product
        unit = DualRatFunc(x - ONE_XY, ZERO_XY)
        arcs = [GGArc(curve=V_X, datum=ONE_XY, unit=unit, sign=1)] * 3
        for n, rendered in ((2, "1"), (3, "(1/(x - 1) at V(x))")):
            self._assert_same_as_fold(arcs[:n], A2)
            assert specialize_arcs(arcs[:n], A2).render() == rendered

    def test_an_image_that_is_one_is_skipped(self):
        arc = GGArc(curve=V_X, datum=ONE_XY, unit=DualRatFunc(x + ONE_XY, ZERO_XY), sign=-1)
        assert specialize_arcs([arc, arc], A2).is_trivial()
        self._assert_same_as_fold([arc, arc], A2)

    def test_one_pass_equals_the_fold(self):
        rng = random.Random(46)
        for trial in range(120):
            variety = P1 if trial % 3 == 0 else A2
            self._assert_same_as_fold(_arc_family(rng, variety), variety)

    def test_d_eps_families_equal_the_fold(self):
        rng = random.Random(47)
        for _ in range(25):
            F = ((x - RatFunc.from_const(VARS_XY, rng.randint(-3, 3))) ** rng.choice([1, 2, -1])
                 * (y - x ** 2) ** rng.choice([1, -1]))
            G = y - RatFunc.from_const(VARS_XY, rng.randint(4, 9))
            s = DualMilnorSymbol(((DualRatFunc(F, ZERO_XY), DualRatFunc(G, x), 1),
                                  (DualRatFunc(G, ONE_XY), DualRatFunc(F, ZERO_XY),
                                   rng.choice([1, -2]))))
            self._assert_same_as_fold(d_eps(s), A2)


class TestGGArcValidation:
    def test_unit_condition(self):
        with pytest.raises(NotAUnitAlongY):
            GGArc(curve=V_X, datum=ONE_XY, unit=DualRatFunc(x, ZERO_XY), sign=1)

    def test_sign_values(self):
        with pytest.raises(InputError):
            GGArc(curve=V_X, datum=ONE_XY, unit=DualRatFunc(y, ZERO_XY), sign=2)

    def test_datum_pole_rejected(self):
        with pytest.raises(EpsDatumIrregular):
            GGArc(curve=V_X, datum=x ** -1, unit=DualRatFunc(y, ZERO_XY), sign=1)

    def test_unit_eps_pole_rejected(self):
        with pytest.raises(EpsDatumIrregular):
            GGArc(curve=V_X, datum=ONE_XY,
                  unit=DualRatFunc(y, x ** -1), sign=1)

    def test_arc_at_infinity_rejected(self):
        with pytest.raises(ScopeError):
            GGArc(curve=PrimeDivisor.infinity(), datum=RatFunc.from_const(VARS_T, 1),
                  unit=DualRatFunc(RatFunc.from_const(VARS_T, 1),
                                   RatFunc.from_const(VARS_T, 0)), sign=1)


class TestDoubleSES:
    def test_round_trip(self):
        a = GGArc(curve=V_X, datum=ONE_XY, unit=DualRatFunc(y, ZERO_XY), sign=1)
        ses = arc_as_double_ses(a)
        assert ses.localized_at == X
        assert ses.relation.body == x and ses.relation.eps == ONE_XY
        assert ses.automorphism == a.unit
        assert ses.as_arc() == a

    def test_round_trip_negative_sign(self):
        a = GGArc(curve=V_Y, datum=x, unit=DualRatFunc(x + ONE_XY, x), sign=-1)
        assert arc_as_double_ses(a).as_arc() == a
