"""Differential forms, local cohomology classes, and the tangent maps."""

import collections
import hashlib
import random
import sys
import time
from fractions import Fraction

import pytest

from tamearc import geometry, ksymbols, tangent
from tamearc.errors import InputError
from tamearc.factor import FactorHints
from tamearc.geometry import A2, PrimeDivisor, ResidueFunc, valuation
from tamearc.ksymbols import DualMilnorSymbol, GGArc, d_eps
from tamearc.poly import DualRatFunc, MultiPoly, RatFunc, VARS_T, VARS_XY
from tamearc.tangent import (
    DiffForm,
    LocalCohClass,
    boundary_forms,
    d_form,
    diagram_check,
    dlog_dform,
    tangent2,
    tangent3,
    tangent_cocycle,
)

import frozen
import oracles
from test_geometry import V_X, V_Y, rand_ratfunc, t, x, y
from test_gersten import coprime_pool_pair
from test_ksymbols import ONE_XY, ZERO_XY
from test_poly import rand_poly


def form(a, b):
    return DiffForm(VARS_XY, (a, b))


MINUS_DY_OVER_XY = form(ZERO_XY, -((x * y) ** -1))


class TestDiffForm:
    def test_dlog_pins(self):
        assert dlog_dform(x) == form(x ** -1, ZERO_XY)
        assert dlog_dform(x * y) == form(x ** -1, y ** -1)
        assert dlog_dform(RatFunc.from_const(VARS_XY, 7)).is_zero()

    def test_dlog_multiplicative(self):
        rng = random.Random(61)
        for _ in range(20):
            f = rand_ratfunc(rng, VARS_XY, 2)
            g = rand_ratfunc(rng, VARS_XY, 2)
            assert dlog_dform(f * g) == dlog_dform(f) + dlog_dform(g)

    def test_d_of_constant_is_zero(self):
        assert d_form(RatFunc.from_const(VARS_XY, Fraction(3, 7))).is_zero()


def _rand_eps(rng, vars):
    """Zero, a polynomial, or a fraction, one time in three each."""
    kind = rng.choice(["zero", "poly", "fraction"])
    if kind == "zero":
        return RatFunc.from_const(vars, 0)
    if kind == "poly":
        return RatFunc(rand_poly(rng, vars, 2, terms=3))
    return rand_ratfunc(rng, vars, 1)


class TestTangent2:
    def test_pinned_x_eps_y(self):
        s = DualMilnorSymbol.of(DualRatFunc(x, ONE_XY), DualRatFunc(y, ZERO_XY))
        assert tangent2(s) == MINUS_DY_OVER_XY

    def test_zero_eps_parts(self):
        s = DualMilnorSymbol.of(DualRatFunc(x, ZERO_XY), DualRatFunc(y, ZERO_XY))
        assert tangent2(s).is_zero()

    def test_steinberg_vanishing_randomized(self):
        rng = random.Random(62)
        done = 0
        while done < 50:
            f = rand_ratfunc(rng, VARS_XY, 2)
            f1 = rand_ratfunc(rng, VARS_XY, 1)
            if f.is_zero() or (ONE_XY - f).is_zero():
                continue
            u = DualRatFunc(f, f1)
            one_minus_u = DualRatFunc(ONE_XY - f, -f1)
            assert tangent2(DualMilnorSymbol.of(u, one_minus_u)).is_zero()
            done += 1

    def test_additive(self):
        rng = random.Random(63)
        for _ in range(20):
            terms = []
            for _ in range(2):
                u = DualRatFunc(rand_ratfunc(rng, VARS_XY, 1),
                                rand_poly(rng, VARS_XY, 1))
                v = DualRatFunc(rand_ratfunc(rng, VARS_XY, 1),
                                rand_poly(rng, VARS_XY, 1))
                terms.append((u, v, 1))
            s1 = DualMilnorSymbol((terms[0],))
            s2 = DualMilnorSymbol((terms[1],))
            s12 = DualMilnorSymbol(tuple(terms))
            assert tangent2(s12) == tangent2(s1) + tangent2(s2)

    def test_multiplicative_undeformed_slot_100(self):
        rng = random.Random(64)
        done = 0
        while done < 100:
            u = DualRatFunc(rand_ratfunc(rng, VARS_XY, 1),
                            rand_poly(rng, VARS_XY, 1))
            gp = rand_poly(rng, VARS_XY, 2)
            hp = rand_poly(rng, VARS_XY, 2)
            if gp.is_zero() or hp.is_zero():
                continue
            g, h = RatFunc(gp), RatFunc(hp)
            zg = DualRatFunc(g, ZERO_XY)
            zh = DualRatFunc(h, ZERO_XY)
            zgh = DualRatFunc(g * h, ZERO_XY)
            lhs = tangent2(DualMilnorSymbol.of(u, zgh))
            rhs = (tangent2(DualMilnorSymbol.of(u, zg))
                   + tangent2(DualMilnorSymbol.of(u, zh)))
            assert lhs == rhs
            done += 1

    def test_matches_the_composite_formula(self):
        # one fraction per coefficient, reduced once, is the normal form that
        # the reduced products, differences and inverse build, on the plane
        # and the line, with one to three terms, coefficients +-1 and +-2,
        # and eps parts that are zero, polynomials or fractions
        rng = random.Random(31)
        for i in range(60):
            vars = VARS_T if i % 3 == 0 else VARS_XY
            s = DualMilnorSymbol(tuple(
                (DualRatFunc(rand_ratfunc(rng, vars, 2), _rand_eps(rng, vars)),
                 DualRatFunc(rand_ratfunc(rng, vars, 2), _rand_eps(rng, vars)),
                 rng.choice([1, -1, 2, -2]))
                for _ in range(rng.randint(1, 3))))
            ours, theirs = tangent2(s), oracles.composite_tangent2(s)
            for a, b in zip(ours.coeffs, theirs.coeffs):
                assert (a.num, a.den) == (b.num, b.den), (i, s.render())
            assert ours.render() == theirs.render()


class TestLocalCohClass:
    def test_reduction_strips_regular(self):
        cls = LocalCohClass.of(V_X, form(ZERO_XY, x * (x ** -1)))
        assert cls.is_zero()

    def test_repeated_factor_normal_form(self):
        beta = form(ZERO_XY, x ** -2)
        cls = LocalCohClass.of(V_X, beta)
        assert cls.order == 2
        assert cls.form == form(ZERO_XY, ONE_XY)

    def test_mixed_orders_take_max(self):
        beta = form(x ** -1, x ** -2)
        cls = LocalCohClass.of(V_X, beta)
        assert cls.order == 2
        assert cls.form == form(x, ONE_XY)

    def test_zero_class_pins(self):
        assert LocalCohClass.of(V_X, form(ZERO_XY, x * (x ** -1))).is_zero()
        assert not LocalCohClass.of(V_X, dlog_dform(x)).is_zero()
        assert LocalCohClass.of(V_X, form(ZERO_XY, (x - ONE_XY) ** -1)).is_zero()

    def test_subtraction_sound_complete(self):
        a = LocalCohClass.of(V_X, form(ZERO_XY, x ** -1))
        b = LocalCohClass.of(V_X, form(ZERO_XY, x ** -1 + y))
        assert (a - b).is_zero()
        c = LocalCohClass.of(V_X, form(ZERO_XY, (x ** -1) * y))
        assert not (a - c).is_zero()

    def test_order_is_the_exact_pole_order(self):
        # some coefficient of beta * p^order has valuation 0, so the class
        # needs no second pass to strip a factor of p
        rng = random.Random(64)
        line = x - RatFunc.from_const(VARS_XY, 2)
        curve = PrimeDivisor(A2, line.num)
        for _ in range(40):
            beta = form(rand_ratfunc(rng, VARS_XY, 2) * line ** -rng.randint(0, 3),
                        rand_ratfunc(rng, VARS_XY, 2) * line ** -rng.randint(0, 3))
            cls = LocalCohClass.of(curve, beta)
            poles = max(-valuation(c, curve) for c in beta.coeffs if not c.is_zero())
            if poles <= 0:
                assert cls.is_zero()
                continue
            assert cls.order == poles
            vals = [valuation(c, curve) for c in cls.form.coeffs if not c.is_zero()]
            assert min(vals) == 0

    def test_as_form_round_trip(self):
        beta = form(y * x ** -2, ZERO_XY)
        cls = LocalCohClass.of(V_X, beta)
        assert LocalCohClass.of(V_X, cls.as_form() - beta).is_zero()


class TestBoundaryForms:
    def test_single_polar_divisor(self):
        out = boundary_forms(dlog_dform(x))
        assert len(out) == 1
        prime, cls = out[0]
        assert prime == V_X and cls.order == 1

    def test_regular_form_empty(self):
        assert boundary_forms(form(ZERO_XY, x)) == []

    def test_two_polar_components(self):
        out = boundary_forms(MINUS_DY_OVER_XY)
        assert [p.render() for p, _ in out] == ["V(y)", "V(x)"]
        for _, cls in out:
            assert not cls.is_zero()

    def test_soundness_randomized(self):
        rng = random.Random(65)
        for _ in range(20):
            beta = form(rand_ratfunc(rng, VARS_XY, 2), rand_ratfunc(rng, VARS_XY, 2))
            for prime, cls in boundary_forms(beta):
                assert not cls.is_zero()


class TestTangent3:
    def test_pinned_first_arc(self):
        a = GGArc(curve=V_X, datum=ONE_XY, unit=DualRatFunc(y, ZERO_XY), sign=1)
        prime, cls = tangent3(a)
        assert prime == V_X
        diff = cls - LocalCohClass.of(V_X, MINUS_DY_OVER_XY)
        assert diff.is_zero()

    def test_zero_eps_data(self):
        a = GGArc(curve=V_X, datum=ZERO_XY, unit=DualRatFunc(y, ZERO_XY), sign=1)
        _, cls = tangent3(a)
        assert cls.is_zero()

    def test_pinned_second_arc_with_sign(self):
        a = GGArc(curve=V_Y, datum=ZERO_XY, unit=DualRatFunc(x, ONE_XY), sign=-1)
        prime, cls = tangent3(a)
        assert prime == V_Y
        diff = cls - LocalCohClass.of(V_Y, MINUS_DY_OVER_XY)
        assert diff.is_zero()


def _recording(fn, calls):
    """fn, appending to calls the module of the first caller outside geometry."""
    def wrapper(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "tamearc.geometry":
            frame = frame.f_back
        calls.append(frame.f_globals["__name__"])
        return fn(*args, **kwargs)
    return wrapper


def _counting(fn, calls):
    """fn, appending its arguments to calls."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


def rand_admissible_dual(rng):
    """Dual symbol with squarefree coprime bodies from the rational pool."""
    f, g = coprime_pool_pair(rng)
    f1 = rand_poly(rng, VARS_XY, 2)
    g1 = rand_poly(rng, VARS_XY, 2)
    return DualMilnorSymbol.of(DualRatFunc(f, f1), DualRatFunc(g, g1))


def rand_p1_line_ratio(rng):
    """(f, roots of f's lines): 1-2 distinct factors a*t + b over as many, a unit at INF."""
    n = rng.randint(1, 2)
    while True:
        lines = [(rng.choice([1, 2, 3, -2, 5]), rng.randint(-6, 6)) for _ in range(2 * n)]
        roots = {Fraction(-b, a) for a, b in lines}
        if len(roots) == 2 * n:
            break
    f = RatFunc.from_const(VARS_T, 1)
    for i, (a, b) in enumerate(lines):
        line = t * RatFunc.from_const(VARS_T, a) + RatFunc.from_const(VARS_T, b)
        f = f * line if i < n else f / line
    return f, roots


def rand_p1_eps(rng):
    return RatFunc.from_const(VARS_T, rng.choice([1, 2, -1, -3])) * t ** rng.randint(0, 2)


def _sweep_curves(rng, vars):
    """Four distinct curves: lines a*t + b on P1; lines and parabolas on A2."""
    if vars == VARS_T:
        roots = rng.sample(range(-4, 5), 4)
        return [RatFunc.from_const(VARS_T, rng.choice([1, 2, -1, 3])) * t
                - RatFunc.from_const(VARS_T, r) for r in roots]
    shapes = ([("x", c) for c in range(-3, 4)] + [("y", c) for c in range(-3, 4)]
              + [("x+y", c) for c in range(-2, 3)]
              + [("parabola", b, c) for b in range(-2, 3) for c in range(-2, 3)])
    curves = []
    for shape in rng.sample(shapes, 4):
        c = RatFunc.from_const(VARS_XY, shape[-1])
        if shape[0] == "parabola":
            curves.append(y - x ** 2 - RatFunc.from_const(VARS_XY, shape[1]) * x - c)
        else:
            curves.append({"x": x, "y": y, "x+y": x + y}[shape[0]] - c)
    return curves


def _sweep_body(rng, vars, own):
    """A constant times powers in {2, 1, -1} of the two curves own.

    On A2 one or both curves appear.  On P1 the two appear to opposite
    powers, so the body is a unit at INF, except one time in five.
    """
    body = RatFunc.from_const(vars, rng.choice([1, 2, -3]))
    if vars == VARS_T:
        body = body * (own[0] / own[1]) ** rng.choice([2, 1, 1, -1])
        return body * own[0] if rng.random() < 0.2 else body
    for curve in rng.sample(own, rng.randint(1, 2)):
        body = body * curve ** rng.choice([2, 1, 1, 1, -1])
    return body


def _sweep_eps(rng, vars, curves, own):
    """Zero, a polynomial, one vanishing on a curve of own, or one over a curve."""
    kind = rng.choice(["zero", "poly", "poly", "vanishing", "vanishing", "rational"])
    if kind == "zero":
        return RatFunc.from_const(vars, 0)
    eps = RatFunc(rand_poly(rng, vars, 2, terms=3))
    if kind == "vanishing":
        return eps * rng.choice(own)
    return eps / rng.choice(curves) if kind == "rational" else eps


def diagram_sweep():
    """(symbol, rendered line, certificate or None) per dual symbol of a seeded pool.

    400 symbols on P1 and A2 with one or two terms, coefficients in
    {1, -1, 2, -3}, squared components, rational eps parts, and bodies that
    share a component (their term has no arcs).  A symbol that raises
    renders its error.
    """
    rng = random.Random(2)
    out = []
    for i in range(400):
        vars = VARS_T if i % 3 == 0 else VARS_XY
        curves = _sweep_curves(rng, vars)
        terms = []
        for _ in range(rng.randint(1, 2)):
            rng.shuffle(curves)
            f = _sweep_body(rng, vars, curves[:2])
            g = _sweep_body(rng, vars, curves[2:])
            if rng.random() < 0.15:
                g = g * curves[0]
            terms.append((DualRatFunc(f, _sweep_eps(rng, vars, curves, curves[:2])),
                          DualRatFunc(g, _sweep_eps(rng, vars, curves, curves[2:])),
                          rng.choice([1, -1, 2, -3])))
        s = DualMilnorSymbol(tuple(terms))
        try:
            cert = diagram_check(s)
        except InputError as err:
            cert, text = None, f"{type(err).__name__}: {err}"
        else:
            text = cert.render()
        out.append((s, f"{s.render()} => {text}\n", cert))
    return out


class TestDiagramCheck:
    def test_pinned_regressions(self):
        s = DualMilnorSymbol.of(DualRatFunc(x, ONE_XY), DualRatFunc(y, ZERO_XY))
        assert diagram_check(s).verdict
        s = DualMilnorSymbol.of(DualRatFunc(x, ONE_XY), DualRatFunc(y, ONE_XY))
        assert diagram_check(s).verdict

    def test_zero_eps_parts(self):
        s = DualMilnorSymbol.of(DualRatFunc(x, ZERO_XY), DualRatFunc(y, ZERO_XY))
        cert = diagram_check(s)
        assert cert.verdict
        assert dict(cert.witness)["tangent2 form"] == "0"

    def test_randomized_30(self):
        rng = random.Random(66)
        for trial in range(30):
            s = rand_admissible_dual(rng)
            cert = diagram_check(s)
            assert cert.verdict, (s.render(), trial)

    def test_polar_prime_keeps_the_tag_of_its_arc(self):
        # x - y divides the tangent2 denominator, which has no hint; it is
        # found by division by the arc's prime, whose irreducibility the
        # hint for x^2 - y^2 asserts, so nothing proves it here
        f = x ** 2 - y ** 2
        hints = FactorHints()
        hints.add(f.num, [(x - y).num])
        s = DualMilnorSymbol.of(DualRatFunc(f, ONE_XY),
                                DualRatFunc(y - RatFunc.from_const(VARS_XY, 3), ZERO_XY))
        cert = diagram_check(s, hints)
        assert cert.verdict
        assert dict(cert.provenance)["factor tags"] == "proved, user-asserted"

    def test_p1_pool_with_non_monic_lines(self):
        # a component such as V(2*t - 1) gets its datum and its dp from the
        # same equation t - 1/2, so the square commutes as for monic lines
        for seed in (11, 12):
            rng = random.Random(seed)
            done = 0
            while done < 40:
                f, f_roots = rand_p1_line_ratio(rng)
                g, g_roots = rand_p1_line_ratio(rng)
                if f_roots & g_roots:
                    continue
                s = DualMilnorSymbol.of(DualRatFunc(f, rand_p1_eps(rng)),
                                        DualRatFunc(g, rand_p1_eps(rng)))
                assert diagram_check(s).verdict, (seed, done, s.render())
                done += 1

    def test_polar_primes_need_no_factoring(self, monkeypatch):
        # every prime of a tangent2 denominator lies under an arc, so
        # dividing by the arcs' primes leaves nothing for prime_divisors
        calls = []
        for module in (geometry, ksymbols, tangent):
            if hasattr(module, "prime_divisors"):
                monkeypatch.setattr(module, "prime_divisors",
                                    _recording(module.prime_divisors, calls))
        rng = random.Random(66)
        for _ in range(15):
            assert diagram_check(rand_admissible_dual(rng)).verdict
        assert calls and "tamearc.tangent" not in calls

    def test_bodies_are_factored_once(self, monkeypatch):
        # d_eps factors each nonconstant body numerator and denominator, and
        # the tame symbol of the eps = 0 face reaches the same primes by
        # division; a constant is never factored
        calls = []
        inner = geometry.factor_plane_curve

        def counted(p, hints=None):
            calls.append(p.primitive())
            return inner(p, hints)

        monkeypatch.setattr(geometry, "factor_plane_curve", counted)
        rng = random.Random(105)
        for _ in range(6):
            s = rand_admissible_dual(rng)
            calls.clear()
            assert diagram_check(s).verdict
            (u, v, _), = s.terms
            bodies = {p.primitive() for w in (u, v) for p in (w.body.num, w.body.den)
                      if not p.is_const()}
            assert not [p for p in calls if p.is_const()], s.render()
            assert sorted(calls, key=str) == sorted(bodies, key=str), s.render()

    def test_repeated_arcs_certify(self, monkeypatch):
        # a component of multiplicity 3 gives three equal arcs on V(x - 1),
        # grouped into one signed count: one fraction per distinct arc
        built = []
        monkeypatch.setattr(tangent, "_arc_fraction",
                            _counting(tangent._arc_fraction, built))
        line = x - ONE_XY
        f = DualRatFunc(line ** 3 * y, line ** 2)
        g = DualRatFunc(y - RatFunc.from_const(VARS_XY, 2), x)
        s = DualMilnorSymbol.of(f, g)
        arcs = d_eps(s)
        assert len(arcs) == 5 and len(set(arcs)) == 3
        assert diagram_check(s).verdict
        assert len(built) == 3

    def test_arcs_that_cancel_in_pairs(self, monkeypatch):
        # {u,v} - {u,v} + 2{u,v}: the first two terms' arcs cancel, and each
        # of the four distinct arcs is built once, with count 2
        built = []
        monkeypatch.setattr(tangent, "_arc_fraction",
                            _counting(tangent._arc_fraction, built))
        u = DualRatFunc(x * (y - ONE_XY), y)
        v = DualRatFunc((x + y - RatFunc.from_const(VARS_XY, 3)) * (y - x ** 2), x)
        s = DualMilnorSymbol(((u, v, 1), (u, v, -1), (u, v, 2)))
        cert = diagram_check(s)
        assert cert.verdict, cert.render()
        assert "provenance arc count: 16" in cert.render_lines()
        assert len(built) == 4

    def test_simple_pole_beside_two_distinct_arcs(self):
        # V(x) carries two distinct arcs, so p divides their summed
        # denominator twice, and the bodies of the third term share x, which
        # leaves a simple pole along V(x) that no arc matches
        u = DualRatFunc(x, ONE_XY)
        s = DualMilnorSymbol(((u, DualRatFunc(y, ZERO_XY), 1),
                              (u, DualRatFunc(y - RatFunc.from_const(VARS_XY, 2), ZERO_XY), 1),
                              (DualRatFunc(x, x), DualRatFunc(x * (y - ONE_XY), ZERO_XY), 1)))
        cert = diagram_check(s)
        assert not cert.verdict
        witness = dict(cert.witness)["class differences"]
        assert witness.endswith("V(x): [-dx + ((-x)/(y - 1))*dy] / (x)")
        assert witness == oracles.class_differences(s)

    def test_passing_symbols_take_the_cheap_path(self, monkeypatch):
        # a commuting square is decided by exact division alone: no arc form
        # is reduced and no class is built
        calls = []
        monkeypatch.setattr(tangent, "arc_form", _counting(tangent.arc_form, calls))
        monkeypatch.setattr(LocalCohClass, "of",
                            classmethod(_counting(LocalCohClass.of.__func__, calls)))
        rng = random.Random(66)
        for _ in range(30):
            assert diagram_check(rand_admissible_dual(rng)).verdict
        assert calls == []

    def test_oracle_agreement_both_paths(self):
        # boundary_forms(tangent2(s)) must match summed tangent3 classes per prime
        rng = random.Random(67)
        for _ in range(10):
            s = rand_admissible_dual(rng)
            left = dict(boundary_forms(tangent2(s)))
            right = {}
            for a in d_eps(s):
                curve, cls = tangent3(a)
                right[curve] = right[curve] + cls if curve in right else cls
            for prime in set(left) | set(right):
                lcls = left.get(prime)
                rcls = right.get(prime)
                if lcls is None:
                    assert rcls.is_zero()
                elif rcls is None:
                    assert lcls.is_zero()
                else:
                    assert (lcls - rcls).is_zero()


def _residue_counter(monkeypatch):
    """A list that grows by one per ResidueFunc construction."""
    built = []
    monkeypatch.setattr(ResidueFunc, "__init__", _counting(ResidueFunc.__init__, built))
    return built


def _certificate_hash(cert):
    return hashlib.sha256(cert.render().encode()).hexdigest()[:12]


class TestFaceByExponents:
    def test_high_multiplicity_symbol_within_budget(self, monkeypatch):
        # the (8, 4, 4) symbol's face takes over 20 s to expand; its
        # exponents decide it, with the certificate the expansion renders
        C = x ** 2 + y ** 2 - ONE_XY
        xm2, yp3 = x - RatFunc.from_const(VARS_XY, 2), y + RatFunc.from_const(VARS_XY, 3)
        xm1, yp2 = x - ONE_XY, y + RatFunc.from_const(VARS_XY, 2)
        s = DualMilnorSymbol.of(
            DualRatFunc(C ** 8 * xm2 ** 4 * yp3 ** 4, x * C ** 7 * xm2 ** 3 * yp3 ** 3),
            DualRatFunc(xm1 ** 10 * yp2 ** 5, y * xm1 ** 9 * yp2 ** 4))
        built = _residue_counter(monkeypatch)
        start = time.monotonic()
        cert = diagram_check(s)
        took = time.monotonic() - start
        assert cert.verdict
        assert _certificate_hash(cert) == "ef00d243c452"
        assert built == []
        assert took < 2.0, took

    def test_shared_component_renders_the_expansion(self, monkeypatch):
        # the bodies share V(x), so d_eps skips the term and builds no arcs;
        # the face is expanded, and its witness names both products
        s = DualMilnorSymbol.of(DualRatFunc(x * y, ONE_XY), DualRatFunc(x, ONE_XY))
        built = _residue_counter(monkeypatch)
        assert diagram_check(s).render() == (
            "claim: DiagramCommutes\n"
            "verdict: fail\n"
            "input symbol: {x*y + eps, x + eps}\n"
            "witness tangent2 form: ((y - 1)/(x^2*y))*dx + (1/(x*y))*dy\n"
            "witness class differences: V(y): [((y - 1)/(x^2))*dx + (1/x)*dy] / (y); "
            "V(x): [((y - 1)/y)*dx + (x/y)*dy] / (x)^2\n"
            "witness eps=0 face: arcs give 1, tame gives (1/x at V(y)) * (-y at V(x))\n"
            "provenance factor tags: proved\n"
            "provenance arc count: 0")
        assert built
        assert not tangent._face_agrees_by_exponents(s, d_eps(s), A2, None, ())

    def test_exponents_that_cancel(self, monkeypatch):
        # 2{u, g} - 2{u', g'} with g and g' of one body: on V(x) the tame
        # exponents of that body, -2 and +2, cancel, and so do its arcs; the
        # pinned hash is that of the certificate the expansion renders
        g = x + y - RatFunc.from_const(VARS_XY, 3)
        s = DualMilnorSymbol((
            (DualRatFunc(x * (y - ONE_XY), y), DualRatFunc(g, ONE_XY), 2),
            (DualRatFunc(x * (y + RatFunc.from_const(VARS_XY, 2)), ONE_XY),
             DualRatFunc(g, x), -2)))
        arcs = d_eps(s)
        assert {a.sign for a in arcs if a.curve == V_X and a.unit.body == g} == {1, -1}
        assert tangent._face_agrees_by_exponents(s, arcs, A2, None, ())
        built = _residue_counter(monkeypatch)
        cert = diagram_check(s)
        assert cert.verdict and built == []
        assert _certificate_hash(cert) == "25a353ba8d68"

    def test_p1_and_hinted_symbols(self, monkeypatch):
        # points of P1 and a prime known only from a hint key the exponents
        # as they key the arcs; the pinned hashes are those of the
        # certificates the expansion renders
        one = RatFunc.from_const(VARS_T, 1)
        p1 = DualMilnorSymbol.of(
            DualRatFunc((t - one) / (t + one), one),
            DualRatFunc((RatFunc.from_const(VARS_T, 2) * t - one)
                        / (t + RatFunc.from_const(VARS_T, 3)), t))
        f = x ** 2 - y ** 2
        hints = FactorHints()
        hints.add(f.num, [(x - y).num])
        hinted = DualMilnorSymbol.of(DualRatFunc(f, ONE_XY),
                                     DualRatFunc(y - RatFunc.from_const(VARS_XY, 3), x))
        built = _residue_counter(monkeypatch)
        p1_cert, hinted_cert = diagram_check(p1), diagram_check(hinted, hints)
        assert built == []
        assert p1_cert.verdict and hinted_cert.verdict
        assert dict(hinted_cert.provenance)["factor tags"] == "proved, user-asserted"
        assert _certificate_hash(p1_cert) == "6b4ca06e7092"
        assert _certificate_hash(hinted_cert) == "6ae6441739b0"


def multiplicity_sweep():
    """One line per dual symbol of a seeded pool of high multiplicities: symbol => arcs.

    40 symbols on A2 with one or two terms.  Each body is a constant times
    two curves of _sweep_curves to exponents in -9..9 other than 0, and the
    two bodies of a term share no curve.  Each eps part is zero, or a
    polynomial times every curve of its body that has a positive exponent
    e, to the power e - 1 and one time in three e; so it is regular along
    every component and every datum is regular.
    """
    rng = random.Random(27)
    out = []
    for _ in range(40):
        curves = _sweep_curves(rng, VARS_XY)
        terms = []
        for _ in range(rng.randint(1, 2)):
            rng.shuffle(curves)
            units = []
            for own in (curves[:2], curves[2:]):
                body = RatFunc.from_const(VARS_XY, rng.choice([1, 2, -3]))
                eps = RatFunc(rand_poly(rng, VARS_XY, 2, terms=3))
                for curve in own:
                    e = rng.choice([-1, 1]) * rng.randint(1, 9)
                    body = body * curve ** e
                    if e > 0:
                        eps = eps * curve ** (e - (rng.random() < 2 / 3))
                if rng.random() < 1 / 6:
                    eps = RatFunc.from_const(VARS_XY, 0)
                units.append(DualRatFunc(body, eps))
            terms.append((*units, rng.choice([1, -1, 2, -3])))
        s = DualMilnorSymbol(tuple(terms))
        out.append(f"{s.render()} => {'; '.join(a.render() for a in d_eps(s))}\n")
    return out


class TestMultiplicitySweep:
    def test_arcs_hash_as_before(self):
        # data built at exponents up to 9, frozen before d_eps built each
        # datum as one fraction
        digest = hashlib.sha256("".join(multiplicity_sweep()).encode()).hexdigest()[:16]
        assert digest == frozen.MULTIPLICITY_SWEEP_DIGEST


class TestDiagramSweep:
    def test_witnesses_match_the_reduced_form_oracle(self):
        # the exact-division test renders every certificate and error as the
        # class test by reduced forms did (frozen digest), and its class
        # differences are the ones that test computes afresh (oracle)
        sweep = diagram_sweep()
        digest = hashlib.sha256("".join(line for _, line, _ in sweep).encode()).hexdigest()[:16]
        verdicts = collections.Counter(
            line.split(" => ")[1].split(":")[0] if cert is None
            else "pass" if cert.verdict else "fail"
            for _, line, cert in sweep)
        assert digest == frozen.DIAGRAM_SWEEP_DIGEST
        assert verdicts == frozen.DIAGRAM_SWEEP_VERDICTS
        for s, _, cert in sweep:
            if cert is not None:
                assert (dict(cert.witness)["class differences"]
                        == oracles.class_differences(s)), s.render()


class TestTangentCocycle:
    def test_d_eps_family_fails_over_nonzero(self):
        s = DualMilnorSymbol.of(DualRatFunc(x, ONE_XY), DualRatFunc(y, ZERO_XY))
        cert = tangent_cocycle(d_eps(s))
        assert not cert.verdict

    def test_trivial_specialization_passes(self):
        a = GGArc(curve=V_X, datum=ONE_XY,
                  unit=DualRatFunc(ONE_XY, y), sign=1)
        cert = tangent_cocycle([a])
        assert cert.verdict
        assert dict(cert.witness)["eps=0 cycle"] == "1"

    def test_empty_passes(self):
        cert = tangent_cocycle([])
        assert cert.verdict
        assert dict(cert.witness)["tangent classes"] == "0"

    def test_cancelling_pair_passes_with_datum(self):
        a1 = GGArc(curve=V_X, datum=ONE_XY, unit=DualRatFunc(y, ZERO_XY), sign=1)
        a2 = GGArc(curve=V_X, datum=ZERO_XY, unit=DualRatFunc(y, ZERO_XY), sign=-1)
        cert = tangent_cocycle([a1, a2])
        assert cert.verdict
        assert dict(cert.witness)["tangent classes"] != "0"

    def test_classes_are_the_sums_of_tangent3_classes(self):
        # one reduction per curve of the summed arc forms, against the
        # tangent3 classes added arc by arc; families repeat arcs and flip
        # signs.  Both are the same class.  They are the same text unless an
        # arc's class or a running sum was zero over a nonzero form: a zero
        # class keeps no form, so the sum arc by arc dropped that regular part
        rng = random.Random(29)
        curves = [V_X, V_Y, PrimeDivisor(A2, (x + y - ONE_XY).num),
                  PrimeDivisor(A2, (y - x ** 2).num)]
        dropped = cancelled = repeated = 0
        for _ in range(60):
            base = []
            while len(base) < 3:
                curve = rng.choice(curves)
                body = rand_poly(rng, VARS_XY, 2) + rng.randint(1, 5)
                if curve.poly.divides(body):
                    continue
                unit = DualRatFunc(RatFunc(body), RatFunc(rand_poly(rng, VARS_XY, 2)))
                base.append((curve, RatFunc(rand_poly(rng, VARS_XY, 2)), unit))
            arcs = [GGArc(*rng.choice(base), sign=rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 7))]
            sums, forms, drops = {}, {}, set()
            for a in arcs:
                curve, cls = tangent3(a)
                form = tangent.arc_form(a)
                sums[curve] = sums[curve] + cls if curve in sums else cls
                forms[curve] = forms[curve] + form if curve in forms else form
                if any(c.is_zero() and not f.is_zero()
                       for c, f in ((cls, form), (sums[curve], forms[curve]))):
                    drops.add(curve)
            want = []
            for curve in sorted(sums, key=lambda p: p.sort_key()):
                cls = LocalCohClass.of(curve, forms[curve])
                assert (cls - sums[curve]).is_zero()
                assert curve in drops or cls == sums[curve]
                if not cls.is_zero():
                    want.append(f"{curve.render()}: {cls.render()}")
            assert (dict(tangent_cocycle(arcs).witness)["tangent classes"]
                    == ("; ".join(want) or "0"))
            dropped += bool(drops)
            cancelled += any(cls.is_zero() for cls in sums.values())
            repeated += len(set(arcs)) < len(arcs)
        assert dropped > 3 and cancelled > 5 and repeated > 20, (dropped, cancelled, repeated)

    def test_classes_do_not_depend_on_the_order_of_the_arcs(self):
        # b1 + b2 is regular along V(x) but not zero; the class of the summed
        # forms keeps that regular part whatever the order of the arcs
        unit = DualRatFunc(y, ZERO_XY)
        b1 = GGArc(curve=V_X, datum=ONE_XY, unit=unit, sign=1)
        b2 = GGArc(curve=V_X, datum=ONE_XY + x, unit=unit, sign=-1)
        assert tangent3(b1)[1] + tangent3(b2)[1] == LocalCohClass(V_X, 0, DiffForm.zero(VARS_XY))
        for arcs in ([b1, b2, b1], [b1, b1, b2], [b2, b1, b1]):
            assert (dict(tangent_cocycle(arcs).witness)["tangent classes"]
                    == "V(x): [((x - 1)/y)*dy] / (x)")
