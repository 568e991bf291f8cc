"""Factorization layer: certificates, hints, and agreement with sympy."""

import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.specialpolys import swinnerton_dyer_poly

import tamearc.factor
from tamearc.errors import FactorIncomplete, InputError
from tamearc.factor import (
    ASSERTED,
    PROVED,
    FactorHints,
    factor_plane_curve,
    factor_univariate,
)
from tamearc.poly import MultiPoly, VARS_T, VARS_XY, poly_gcd

import frozen
from oracles import subst
from test_poly import T, X, Y, rand_poly, to_sympy, _ST, _SX, _SY


def sympy_factor_count(p):
    expr = to_sympy(p)
    gens = (_ST,) if p.vars == VARS_T else (_SX, _SY)
    _, factors = sympy.factor_list(expr, *gens)
    return sorted((sympy.Poly(f, *gens).total_degree(), m) for f, m in factors)


def our_factor_count(fac):
    return sorted((t.poly.degree(), t.multiplicity) for t in fac.factors)


class TestUnivariate:
    def test_difference_of_squares(self):
        fac = factor_univariate(T * T - 1)
        assert fac.verify(T * T - 1)
        assert our_factor_count(fac) == [(1, 1), (1, 1)]
        assert fac.weakest_tag() == PROVED

    def test_irreducible_quadratic(self):
        fac = factor_univariate(T * T + 1)
        assert len(fac.factors) == 1
        assert fac.factors[0].certificate == PROVED

    def test_constant(self):
        fac = factor_univariate(MultiPoly.const(VARS_T, 6))
        assert fac.factors == () and fac.unit == 6

    def test_rational_roots_and_multiplicity(self):
        p = (T - 2) ** 3 * (2 * T + 1)
        fac = factor_univariate(p)
        assert fac.verify(p)
        assert our_factor_count(fac) == [(1, 1), (1, 3)]

    def test_zassenhaus_quartic_pair(self):
        p = (T ** 2 - 2) * (T ** 2 - 3)
        fac = factor_univariate(p)
        assert fac.verify(p)
        assert our_factor_count(fac) == [(2, 1), (2, 1)]
        assert fac.weakest_tag() == PROVED

    def test_irreducible_quartic(self):
        p = T ** 4 + T + 1
        fac = factor_univariate(p)
        assert len(fac.factors) == 1 and fac.factors[0].certificate == PROVED

    def test_degree_bound(self):
        # degree alone never refuses a polynomial: recombination is what costs
        p = T ** 9 + T + 1
        fac = factor_univariate(p)
        assert [(t.poly, t.multiplicity, t.certificate) for t in fac.factors] == [
            (p, 1, PROVED)]
        p = T ** 65 + T + 1
        fac = factor_univariate(p)
        assert fac.verify(p)
        assert our_factor_count(fac) == sympy_factor_count(p) == [(2, 1), (63, 1)]

    def test_hint_bypasses_bound(self):
        p = (T ** 5 - T - 1) * (T ** 4 + T + 1)
        hints = FactorHints()
        hints.add(p, [T ** 5 - T - 1, T ** 4 + T + 1])
        fac = factor_univariate(p, hints=hints)
        assert fac.verify(p)
        assert fac.weakest_tag() == ASSERTED

    def test_bad_hint_rejected(self):
        hints = FactorHints()
        hints.add(T * T - 1, [T + 2])
        with pytest.raises(InputError):
            factor_univariate(T * T - 1, hints=hints)

    def test_matches_sympy_randomized(self):
        rng = random.Random(21)
        products = []
        while len(products) < 30:
            parts = [rand_poly(rng, VARS_T, 2, terms=3) for _ in range(3)]
            if any(q.is_zero() or q.degree() == 0 for q in parts):
                continue
            p = parts[0] * parts[1] * parts[2]
            if p.degree() <= 8:
                products.append(p)
        # rational roots with numerators of 10 to 15 digits, times a quadratic
        while len(products) < 40:
            p = rand_poly(rng, VARS_T, 2, terms=3)
            if p.degree() < 1:
                continue
            for _ in range(2):
                digits = rng.randint(10, 15)
                num = rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                p = p * (T - Fraction(num, rng.randint(1, 999)))
            products.append(p)
        for p in products:
            fac = factor_univariate(p)
            assert fac.verify(p)
            assert our_factor_count(fac) == sympy_factor_count(p), p.render()

    def test_quadratics_by_discriminant_match_sympy(self):
        # a squarefree quadratic splits exactly when its discriminant is a
        # square; the factors are the integer-primitive lines with lc > 0
        p = 6 * T ** 2 - T - 1
        fac = factor_univariate(p)
        assert fac.unit == 1
        assert [(t.poly, t.multiplicity, t.certificate) for t in fac.factors] == [
            (2 * T - 1, 1, PROVED), (3 * T + 1, 1, PROVED)]
        rng = random.Random(31)
        quadratics = [4 * T ** 2 - 9, 2 * T ** 2 - 3, -6 * T ** 2 + T + 1]
        while len(quadratics) < 60:
            a = rng.choice([2, 3, 4, 6, 9, 12, -2, -5])
            if rng.random() < 0.5:
                # a square discriminant: a product of two lines, scaled
                lines = [rng.randint(1, 7) * T + rng.randint(-9, 9) for _ in range(2)]
                p = lines[0] * lines[1] * Fraction(a, rng.randint(1, 5))
            else:
                p = a * T ** 2 + rng.randint(-12, 12) * T + rng.randint(-12, 12)
            if p.degree() == 2 and poly_gcd(p, p.derivative("t")).degree() == 0:
                quadratics.append(p)
        square = 0
        for p in quadratics:
            fac = factor_univariate(p)
            coeff, factors = sympy.factor_list(to_sympy(p), _ST)
            assert fac.unit == Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
            ours = sorted(str(sympy.expand(to_sympy(t.poly))) for t in fac.factors)
            theirs = sorted(str(sympy.expand(f)) for f, _ in factors)
            assert ours == theirs, p.render()
            assert all(t.multiplicity == 1 and t.certificate == PROVED for t in fac.factors)
            square += len(fac.factors) == 2
        assert 10 < square < 50

    @pytest.mark.parametrize("v", [T, X])
    def test_multiplicities_one_two_four_match_sympy(self, v):
        # no part of multiplicity 3, so the squarefree split has an empty step
        rng = random.Random(24)
        done = 0
        while done < 12:
            parts = [rand_poly(rng, VARS_T, 2, terms=3) for _ in range(3)]
            if any(q.degree() < 1 for q in parts):
                continue
            a, b, c = (subst(q, {"t": v}) for q in parts)
            p = a * b ** 2 * c ** 4
            fac = factor_univariate(p)
            assert fac.verify(p)
            assert our_factor_count(fac) == sympy_factor_count(p), p.render()
            done += 1


def swinnerton_dyer(n):
    """S_n in t: irreducible of degree 2^n, with factors of degree <= 2 mod every prime."""
    coeffs = sympy.Poly(swinnerton_dyer_poly(n, _ST), _ST).all_coeffs()
    return MultiPoly.from_dense(VARS_T, "t", [int(c) for c in reversed(coeffs)])


def lines_plus_x(n):
    """prod_{i<n} (y - i) + x: irreducible, and n lines at the specialization x = 0."""
    lines = MultiPoly.const(VARS_XY, 1)
    for i in range(n):
        lines = lines * (Y - MultiPoly.const(VARS_XY, i))
    return lines + X


class TestRecombinationBudget:
    """Each subset search is exhaustive within the budget and raises past it."""

    def test_univariate_search_raises_past_the_budget(self, monkeypatch):
        # S_4 splits into 8 quadratics mod 11; its one search tries the 162
        # subsets of at most 4 of them
        s4 = swinnerton_dyer(4)
        monkeypatch.setattr(tamearc.factor, "RECOMBINATION_BUDGET", 162)
        fac = factor_univariate(s4)
        assert [(t.poly, t.certificate) for t in fac.factors] == [(s4, PROVED)]
        monkeypatch.setattr(tamearc.factor, "RECOMBINATION_BUDGET", 161)
        with pytest.raises(FactorIncomplete, match="of 8 lifted factors") as exc:
            factor_univariate(s4)
        names = [entry.name for entry in exc.traceback]
        assert names.index("_zassenhaus") < names.index("_recombine")
        assert "supply a factor hint" in str(exc.value)

    def test_plane_search_raises_past_the_budget(self, monkeypatch):
        # seven one-subset searches split the specialization into 8 lines,
        # then the series recombination tries all 162 subsets of at most 4
        p = lines_plus_x(8)
        monkeypatch.setattr(tamearc.factor, "RECOMBINATION_BUDGET", 162)
        fac = factor_plane_curve(p)
        assert [(t.poly, t.certificate) for t in fac.factors] == [(p, PROVED)]
        monkeypatch.setattr(tamearc.factor, "RECOMBINATION_BUDGET", 161)
        with pytest.raises(FactorIncomplete, match="of 8 lifted factors") as exc:
            factor_plane_curve(p)
        names = [entry.name for entry in exc.traceback]
        assert names.index("_split_primitive_y") < names.index("_recombine")
        assert "_zassenhaus" not in names

    def test_thirteen_lifted_factors_stay_exhaustive(self):
        # 4,095 subsets of at most 6 of 13 factors fit in the default budget
        p = lines_plus_x(13)
        fac = factor_plane_curve(p)
        assert [(t.poly, t.certificate) for t in fac.factors] == [(p, PROVED)]
        assert "admits no polynomial recombination" in fac.factors[0].evidence

    def test_s5_exits_with_factor_incomplete(self):
        # S_5 has at least 16 factors mod every prime, and 16 need 39,202 subsets
        with pytest.raises(FactorIncomplete, match="of 16 lifted factors"):
            factor_univariate(swinnerton_dyer(5))


class TestPlaneCurve:
    def test_x_only_goes_straight_to_factor_univariate(self, monkeypatch):
        # a polynomial of y-degree 0 is its own y-content; no gcd is taken
        monkeypatch.setattr(tamearc.factor, "content_in", None)
        three = MultiPoly.const(VARS_XY, 3)
        p = Fraction(-2, 5) * (X - three) ** 2 * (X * X + three)
        fac = factor_plane_curve(p)
        assert fac.verify(p) and fac.unit == Fraction(-2, 5)
        assert {(t.poly, t.multiplicity) for t in fac.factors} == {
            (X - three, 2), (X * X + three, 1)}
        assert factor_plane_curve(MultiPoly.const(VARS_XY, 7)).factors == ()

    def test_each_polynomial_is_split_once(self, monkeypatch):
        # a Yun part without x and a squarefree specialization are factored
        # as they stand, so one Yun split in y serves the whole curve
        calls = []
        inner = tamearc.factor._yun
        monkeypatch.setattr(tamearc.factor, "_yun",
                            lambda f, var: calls.append(var) or inner(f, var))
        two = MultiPoly.const(VARS_XY, 2)
        line = Y - 2 * X - MultiPoly.const(VARS_XY, 1)
        cases = [
            ((Y * Y - two) * (X * Y + 1) ** 2, [
                (Y * Y - two, 1, "degree 2, discriminant not a square"),
                (X * Y + 1, 2, "degree 1 in y and primitive")]),
            # (y - x)*(y - 2x - 1) at x = 0 is y*(y - 1), which splits
            ((Y - X) * line, [
                (X - Y, 1, "degree 1 in y and primitive"),
                (-line, 1, "series lift at x = 0")]),
        ]
        for p, expected in cases:
            calls.clear()
            fac = factor_plane_curve(p)
            assert calls == ["y"]
            assert fac.verify(p) and fac.unit == 1
            assert [(t.poly, t.multiplicity, t.certificate, t.evidence)
                    for t in fac.factors] == [(f, m, PROVED, note) for f, m, note in expected]

    def test_pinned_cuspidal(self):
        p = Y * Y - X ** 3
        fac = factor_plane_curve(p)
        assert len(fac.factors) == 1 and fac.factors[0].multiplicity == 1
        assert fac.factors[0].certificate == PROVED

    def test_split_product(self):
        p = (Y - X ** 2) * (Y ** 2 - X ** 3 - 1)
        fac = factor_plane_curve(p)
        assert fac.verify(p)
        assert our_factor_count(fac) == [(2, 1), (3, 1)]

    def test_multiplicity(self):
        p = (X + Y) ** 2 * (Y - 1)
        fac = factor_plane_curve(p)
        assert fac.verify(p)
        assert our_factor_count(fac) == [(1, 1), (1, 2)]
        assert fac.weakest_tag() == PROVED

    def test_y_content_split(self):
        p = Y * (X ** 2 - Y)
        fac = factor_plane_curve(p)
        assert fac.verify(p)
        assert our_factor_count(fac) == [(1, 1), (2, 1)]

    def test_univariate_in_x_dispatch(self):
        p = X ** 2 - MultiPoly.const(VARS_XY, 1)
        fac = factor_plane_curve(p)
        assert our_factor_count(fac) == [(1, 1), (1, 1)]
        assert fac.weakest_tag() == PROVED

    def test_found_splits_are_proved(self):
        p = Y ** 4 - X ** 2
        fac = factor_plane_curve(p)
        assert fac.verify(p)
        tags = {t.poly.render(): t.certificate for t in fac.factors}
        assert len(tags) == 2
        assert all(tag == PROVED for tag in tags.values())

    def test_hint_splits_hard_curve(self):
        p = (Y ** 2 - X ** 3) * (Y ** 2 + X ** 3)
        hints = FactorHints()
        hints.add(p, [Y ** 2 - X ** 3, Y ** 2 + X ** 3])
        fac = factor_plane_curve(p, hints=hints)
        assert fac.verify(p)
        assert len(fac.factors) == 2
        assert fac.weakest_tag() == ASSERTED

    def test_plain_hint_list_names_factors_of_the_target(self):
        # the list applies to p itself, not to every piece of the squarefree split
        p = X * (Y + X) ** 2 * Y
        fac = factor_plane_curve(p, hints=[X])
        assert fac.verify(p)
        assert {(t.poly, t.multiplicity, t.certificate) for t in fac.factors} == {
            (Y, 1, PROVED), (X, 1, ASSERTED), (X + Y, 2, PROVED)}

    def test_multiplicities_one_two_four_match_sympy(self):
        # no part of multiplicity 3, so Yun's split in y has an empty step
        rng = random.Random(25)
        done = 0
        while done < 12:
            parts = [rand_poly(rng, VARS_XY, 2, terms=3) for _ in range(3)]
            if any(q.deg_in("x") < 1 or q.deg_in("y") < 1 for q in parts):
                continue
            a, b, c = parts
            p = a * b ** 2 * c ** 4
            fac = factor_plane_curve(p)
            assert fac.verify(p)
            assert fac.weakest_tag() == PROVED
            assert our_factor_count(fac) == sympy_factor_count(p), p.render()
            done += 1

    def test_hint_applies_to_the_polynomial_it_names(self):
        cusp, other = (Y ** 2 - X ** 3).primitive(), Y ** 2 + X ** 3
        p = cusp ** 2 * other
        hints = FactorHints()
        hints.add(p, [cusp])
        fac = factor_plane_curve(p, hints=hints)
        assert fac.verify(p)
        assert {(t.poly, t.multiplicity, t.certificate) for t in fac.factors} == {
            (cusp, 2, ASSERTED), (other, 1, PROVED)}
        # a hint keyed to the squarefree part is not a hint for p
        hints = FactorHints()
        hints.add(cusp * other, [cusp, other])
        fac = factor_plane_curve(p, hints=hints)
        unhinted = factor_plane_curve(p)
        assert fac.unit == unhinted.unit
        assert [(t.poly, t.multiplicity, t.certificate) for t in fac.factors] == [
            (t.poly, t.multiplicity, t.certificate) for t in unhinted.factors]
        assert fac.weakest_tag() == PROVED

    def test_matches_sympy_randomized(self):
        rng = random.Random(22)
        done = 0
        while done < 20:
            a = rand_poly(rng, VARS_XY, 2, terms=3)
            b = rand_poly(rng, VARS_XY, 2, terms=3)
            if a.is_zero() or b.is_zero() or a.degree() == 0 or b.degree() == 0:
                continue
            p = a * b
            fac = factor_plane_curve(p)
            assert fac.verify(p)
            assert fac.weakest_tag() == PROVED
            assert our_factor_count(fac) == sympy_factor_count(p), p.render()
            done += 1

    def test_recombination_of_a_pair_of_lifted_factors(self):
        # at x = 0 both quadrics split into two lines, so each true factor
        # is the product of two lifted factors
        p = (Y ** 2 - X - 1) * (Y ** 2 - X - 4)
        fac = factor_plane_curve(p)
        assert fac.verify(p)
        assert [(t.poly, t.certificate) for t in fac.factors] == [
            (Y ** 2 - X - 4, PROVED), (Y ** 2 - X - 1, PROVED)]

    def test_irreducibility_arguments_are_proofs(self):
        # both arguments of _split_primitive_y occur, and each one's verdict
        # agrees with sympy's factor counts
        rng = random.Random(31)
        notes = {"stays irreducible": 0, "admits no polynomial recombination": 0}
        done = 0
        while done < 40:
            parts = [rand_poly(rng, VARS_XY, 3, terms=4) for _ in range(rng.randint(1, 3))]
            if any(q.deg_in("y") < 1 for q in parts):
                continue
            p = parts[0]
            for q in parts[1:]:
                p = p * q
            fac = factor_plane_curve(p)
            assert fac.verify(p)
            assert all(t.certificate == PROVED for t in fac.factors), p.render()
            assert our_factor_count(fac) == sympy_factor_count(p), p.render()
            for t in fac.factors:
                for note in notes:
                    notes[note] += note in t.evidence
            done += 1
        assert all(notes.values()), notes

    @pytest.mark.parametrize("n", [16, 24, 40])
    def test_power_of_a_line(self, n):
        fac = factor_plane_curve((X + Y) ** n)
        assert [(t.poly, t.multiplicity) for t in fac.factors] == [(X + Y, n)]

    def test_unit_tracking(self):
        p = MultiPoly.const(VARS_XY, Fraction(-3, 2)) * (X + Y)
        fac = factor_plane_curve(p)
        assert fac.verify(p)
        assert fac.unit == Fraction(-3, 2)


def rendered_factorization(p, fac):
    """p, the unit and, per factor, its poly, multiplicity, tag and evidence note."""
    rendered = "; ".join(f"{t.poly.render()} ^{t.multiplicity} {t.certificate} ({t.evidence})"
                         for t in fac.factors)
    return f"{p.render()} = {fac.unit} * {rendered}\n"


def factorization_sweep():
    """One rendered line per polynomial of a seeded pool that reaches both searches.

    The pool: random univariate products of degree at most 9, S_2 to S_4,
    t^4 + 1 and (t^2 - 2)(t^2 - 3); random plane products of cubics,
    lines_plus_x(n) for n = 3, 5, 8 and (y^2 - x - 1)(y^2 - x - 4).  Each
    line renders the unit and, per factor, its poly, multiplicity, tag and
    evidence note.
    """
    rng = random.Random(23)
    pool = []
    while len(pool) < 40:
        parts = [rand_poly(rng, VARS_T, rng.randint(1, 4), terms=4)
                 for _ in range(rng.randint(2, 3))]
        if any(q.degree() < 1 for q in parts):
            continue
        p = parts[0]
        for q in parts[1:]:
            p = p * q
        if p.degree() <= 9:
            pool.append(p)
    pool += [swinnerton_dyer(n) for n in (2, 3, 4)]
    pool += [T ** 4 + 1, (T ** 2 - 2) * (T ** 2 - 3)]
    while len(pool) < 85:
        parts = [rand_poly(rng, VARS_XY, 3, terms=4) for _ in range(2)]
        if any(q.deg_in("y") < 1 for q in parts):
            continue
        pool.append(parts[0] * parts[1])
    pool += [lines_plus_x(n) for n in (3, 5, 8)]
    pool.append((Y ** 2 - X - 1) * (Y ** 2 - X - 4))
    return [rendered_factorization(p, (factor_univariate if p.vars == VARS_T
                                       else factor_plane_curve)(p)) for p in pool]


def test_factorizations_hash_as_before():
    # frozen while each factorizer still had its own Hensel tree and subset search
    lines = factorization_sweep()
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
    assert digest == frozen.FACTORIZATION_SWEEP_DIGEST
    assert len(lines) == 89



def linear_factor_sweep():
    """One rendered line per polynomial of a seeded pool of linear factors.

    factor_univariate gets lines in t, in x and in y with rational
    contents: alone, with themselves as hint, times another line given as
    hint, and times another line without a hint.  factor_plane_curve gets
    y - c, x - c and x + y - c with rational contents; x*y + 2 and
    (x - 1)*(x*y + 2), with and without the hint x - 1; and repeated
    linear factors, which still take the squarefree split: (x - 1)^3,
    (y - x^2)^2, (x + y)^4.  Each line renders the unit and, per factor,
    its poly, multiplicity, tag and evidence note, as in
    factorization_sweep.
    """
    rng = random.Random(41)

    def scalar():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 4))

    pool = []
    for var in (T, X, Y):
        for _ in range(6):
            line = var * scalar() + MultiPoly.const(var.vars, scalar())
            other = var - MultiPoly.const(var.vars, rng.randint(-5, 5))
            pool += [(factor_univariate, p, hints) for p, hints in (
                (line, None), (line, [line]), (line * other, [other]),
                (line * other * scalar(), None))]
    plane = []
    for c in rng.sample(range(-9, 10), 6):
        c = MultiPoly.const(VARS_XY, c)
        plane += [(Y - c, None), (X - c, None), ((X + Y - c) * scalar(), None),
                  ((Y - c) * scalar(), None)]
    hyperbola = X * Y + 2
    plane += [(hyperbola, None), ((X - 1) * hyperbola, None),
              ((X - 1) * hyperbola * scalar(), [X - 1]), ((Y - 3) * hyperbola, [Y - 3])]
    plane += [((X - 1) ** 3, None), ((Y - X ** 2) ** 2, None), ((X + Y) ** 4, None),
              ((X - 1) ** 3 * scalar(), None)]
    pool += [(factor_plane_curve, p, hints) for p, hints in plane]
    return [rendered_factorization(p, factor(p, hints)) for factor, p, hints in pool]


def test_linear_factorizations_hash_as_before():
    # frozen while a degree-1 remainder still took the squarefree split
    lines = linear_factor_sweep()
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
    assert digest == frozen.LINEAR_FACTOR_SWEEP_DIGEST
    assert len(lines) == 104


def large_factor_sweep():
    """One rendered line per polynomial of a seeded pool past factorization_sweep's degree 9.

    The pool: 15 products of total degree 20 to 64 of two to four dense
    integer polynomials of degree 2 to 20, each scaled by a rational, with
    the first one repeated zero to two more times; then t^65 + t + 1, which
    is (t^2 + t + 1) times an irreducible of degree 63, and S_4.  Lines
    render as in factorization_sweep.
    """
    rng = random.Random(25)
    pool = []
    while len(pool) < 15:
        parts = []
        for _ in range(rng.randint(2, 4)):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 20))] + [rng.randint(1, 5)]
            coeffs[0] = coeffs[0] or 1
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            parts.append(MultiPoly.from_dense(VARS_T, "t", coeffs) * scale)
        p = parts[0] ** rng.randint(0, 2)
        for q in parts:
            p = p * q
        if 20 <= p.degree() <= 64:
            pool.append(p)
    pool += [T ** 65 + T + 1, swinnerton_dyer(4)]
    return [rendered_factorization(p, factor_univariate(p)) for p in pool]


def test_large_factorizations_hash_as_before():
    # frozen while factor.py still held its own F_q[t] arithmetic
    lines = large_factor_sweep()
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
    assert digest == frozen.LARGE_FACTOR_SWEEP_DIGEST
    assert len(lines) == 17
