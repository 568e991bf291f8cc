"""Certificates and batch identity checkers."""

import random
from fractions import Fraction

import pytest

from tamearc import factor, geometry, poly
from tamearc.errors import InputError
from tamearc.gersten import (
    Certificate,
    HigherCycleRep,
    complex_check_q2,
    cycle_check,
    tame_boundary_certify,
    weil_check_p1,
)
from tamearc.geometry import A2, PrimeDivisor, ResidueFunc
from tamearc.ksymbols import DualMilnorSymbol, GGArc, MilnorSymbol, tame
from tamearc.poly import DualRatFunc, MultiPoly, RatFunc, VARS_T, VARS_XY
from tamearc.tangent import diagram_check

from test_geometry import V_X, V_Y, X, Y, t, x, y
from test_ksymbols import ONE_T, ONE_XY, rand_linear_rational
from test_poly import rand_poly


def coprime_pool_pair(rng, max_each=2):
    """Coprime (f, g) built from vertical lines and unit parabolas.

    Every pairwise intersection of distinct pool members is rational, which
    keeps the point cycles exactly computable in all tests.
    """
    pool = []
    for c in rng.sample(range(-6, 7), 4):
        pool.append(MultiPoly.variable("x") - MultiPoly.const(VARS_XY, c))
    shapes = [(b, c) for b in range(-3, 4) for c in range(-3, 4)]
    for b, c in rng.sample(shapes, 4):
        X_ = MultiPoly.variable("x")
        Y_ = MultiPoly.variable("y")
        pool.append(Y_ - X_ ** 2 - b * X_ - MultiPoly.const(VARS_XY, c))
    rng.shuffle(pool)
    seen = []
    def take(k):
        out = RatFunc.from_const(VARS_XY, 1)
        for _ in range(k):
            p = pool.pop()
            seen.append(p)
            out = out * (RatFunc(p) ** rng.choice([1, -1]))
        return out
    f = take(rng.randint(1, max_each))
    g = take(rng.randint(1, max_each))
    return f, g


class TestCertificateType:
    def test_claim_kinds_enforced(self):
        with pytest.raises(InputError):
            Certificate(claim="Nonsense", verdict=True, inputs=(),
                        witness=(), provenance=())

    def test_render_is_stable(self):
        cert = cycle_check(HigherCycleRep(((V_X, ResidueFunc(V_X, y)),)))
        assert cert.render() == cert.render()
        lines = cert.render_lines()
        assert lines[0].startswith("claim:") and lines[1].startswith("verdict:")

    def test_rerun_reproduces_verdict(self):
        c = HigherCycleRep(((V_X, ResidueFunc(V_X, y)), (V_Y, ResidueFunc(V_Y, x ** -1))))
        first = cycle_check(c, seed=3)
        second = cycle_check(c, seed=3)
        assert first == second


class TestCycleCheck:
    def test_pinned_pass(self):
        c = HigherCycleRep(((V_X, ResidueFunc(V_X, y)), (V_Y, ResidueFunc(V_Y, x ** -1))))
        cert = cycle_check(c)
        assert cert.verdict
        assert dict(cert.witness)["total divisor"] == "0"

    def test_pinned_fail(self):
        cert = cycle_check(HigherCycleRep(((V_X, ResidueFunc(V_X, y)),)))
        assert not cert.verdict
        assert dict(cert.witness)["total divisor"] == "[(0, 0)]"

    def test_empty_passes(self):
        assert cycle_check(HigherCycleRep(())).verdict

    def test_additive(self):
        c1 = HigherCycleRep(((V_X, ResidueFunc(V_X, y)), (V_Y, ResidueFunc(V_Y, x ** -1))))
        curve = PrimeDivisor(A2, MultiPoly.variable("y") - MultiPoly.variable("x") ** 2)
        c2 = HigherCycleRep(((curve, ResidueFunc(curve, (y - ONE_XY) / y)),
                             (V_X, ResidueFunc(V_X, y / (y - ONE_XY))),))
        # c2 components: on the parabola div((y-1)/y) = [(1,1)]+[(-1,1)]-2[(0,0)];
        # on V(x): div(y/(y-1)) = [(0,0)] - [(0,1)] -- not a cycle by itself
        both = HigherCycleRep(c1.components + c2.components)
        if cycle_check(c1).verdict and cycle_check(c2).verdict:
            assert cycle_check(both).verdict

    def test_mismatched_component_rejected(self):
        with pytest.raises(InputError):
            HigherCycleRep(((V_X, ResidueFunc(V_Y, x)),))


class TestTameBoundaryCertify:
    def test_definitional_round_trip(self):
        image = tame(MilnorSymbol.of(x, y), A2)
        c = HigherCycleRep(tuple(image.terms))
        assert tame_boundary_certify(c, MilnorSymbol.of(x, y)).verdict

    def test_componentwise_mismatch_fails(self):
        c = HigherCycleRep(((V_X, ResidueFunc(V_X, y)), (V_Y, ResidueFunc(V_Y, x ** -1))))
        cert = tame_boundary_certify(c, MilnorSymbol.of(x, y))
        assert not cert.verdict

    def test_axis_cycle_bounded_by_coordinate_symbol(self):
        # the {y, x} symbol exhibits {(V(x), y), (V(y), 1/x)} as a boundary
        c = HigherCycleRep(((V_X, ResidueFunc(V_X, y)), (V_Y, ResidueFunc(V_Y, x ** -1))))
        assert tame_boundary_certify(c, MilnorSymbol.of(y, x)).verdict

    def test_empty_zero(self):
        assert tame_boundary_certify(HigherCycleRep(()), MilnorSymbol(())).verdict

    def test_round_trip_randomized(self):
        rng = random.Random(51)
        done = 0
        while done < 10:
            f, g = coprime_pool_pair(rng)
            image = tame(MilnorSymbol.of(f, g), A2)
            c = HigherCycleRep(tuple(image.terms))
            assert tame_boundary_certify(c, MilnorSymbol.of(f, g)).verdict
            done += 1


class TestComplexSquareZero:
    def test_pinned(self):
        assert complex_check_q2(x, y).verdict
        assert complex_check_q2(x - y, x + y).verdict
        five = RatFunc.from_const(VARS_XY, 5)
        seven = RatFunc.from_const(VARS_XY, 7)
        assert complex_check_q2(five, seven).verdict

    def test_randomized_30(self):
        rng = random.Random(52)
        for trial in range(30):
            f, g = coprime_pool_pair(rng)
            cert = complex_check_q2(f, g, seed=trial)
            assert cert.verdict, (f.render(), g.render(), trial)

    def test_each_pair_of_curves_intersected_once_per_call(self, monkeypatch):
        # one intersection runs once per unordered pair, and nothing is kept
        # from one call to the next
        calls = []
        inner = geometry.intersection_cycle

        def counted(p, h, seed=0):
            calls.append(frozenset((p, h)))
            return inner(p, h, seed)

        monkeypatch.setattr(geometry, "intersection_cycle", counted)
        f, g = coprime_pool_pair(random.Random(102))
        first = complex_check_q2(f, g, seed=102)
        pairs = set(calls)
        assert first.verdict and len(pairs) >= 2
        assert len(calls) == len(pairs)
        calls.clear()
        assert complex_check_q2(f, g, seed=102) == first
        assert len(calls) == len(pairs) and set(calls) == pairs

    def test_graph_pairs_are_never_projected(self, monkeypatch):
        # the pool's lines and parabolas are graphs, intersected by
        # substitution; a pair with no graph takes one projection
        calls = []
        inner = geometry._intersection_points

        def counted(p, h, seed, swap):
            calls.append((p, h))
            return inner(p, h, seed, swap)

        monkeypatch.setattr(geometry, "_intersection_points", counted)
        f, g = coprime_pool_pair(random.Random(102))
        assert complex_check_q2(f, g, seed=102).verdict
        assert calls == []
        p, h = X ** 2 + Y ** 2 - MultiPoly.const(VARS_XY, 2), X ** 2 - Y ** 2
        assert len(geometry.intersection_cycle(p, h)) == 4
        assert calls == [(p, h)]

    def test_residues_reach_their_primes_by_division(self, monkeypatch):
        # each residue of tame({f, g}) is a product of the curves of f and
        # g, so div_k1 factors nothing: the check factors only the
        # numerators and denominators of f and g, each once
        calls = []
        inner = geometry.factor_plane_curve

        def counted(p, hints=None):
            calls.append(p.primitive())
            return inner(p, hints)

        monkeypatch.setattr(geometry, "factor_plane_curve", counted)
        rng = random.Random(102)
        for _ in range(8):
            f, g = coprime_pool_pair(rng)
            calls.clear()
            assert complex_check_q2(f, g).verdict
            own = {p.primitive() for p in (f.num, f.den, g.num, g.den)}
            assert calls and set(calls) <= own, (f.render(), g.render())
            assert len(calls) == len(set(calls))


class TestWeilReciprocity:
    def test_pinned(self):
        two = RatFunc.from_const(VARS_T, 2)
        assert weil_check_p1(t, t - two).verdict
        assert weil_check_p1(t, ONE_T - t).verdict
        assert weil_check_p1(t, t).verdict

    def test_component_values_worked_instance(self):
        cert = weil_check_p1(t, t - RatFunc.from_const(VARS_T, 2))
        norms = dict(cert.witness)["component norms"]
        assert norms == "0 -> -1/2; 2 -> 2; INF -> -1"

    def test_randomized_30(self):
        rng = random.Random(53)
        for _ in range(30):
            f = rand_linear_rational(rng)
            g = rand_linear_rational(rng)
            assert weil_check_p1(f, g).verdict, (f.render(), g.render())

    def test_quadratic_point_norms(self):
        # zeros at irrational points exercise the residue-field norms
        f = t ** 2 - RatFunc.from_const(VARS_T, 2)
        g = t ** 2 - RatFunc.from_const(VARS_T, 3)
        assert weil_check_p1(f, g).verdict


def test_complex_pool_work_counts(monkeypatch):
    # squarefree splits and divisions with remainder over the 100 plane pairs
    # of the complex acceptance pool; a degree-1 factor or point takes a
    # closed form, so neither runs for most of them.  Every division with
    # remainder is the plane split's: 9 in the lead inverse and 27 in the
    # lift's corrections, then 10 tried specializations x0, 9 truncated
    # targets and 9 truncated candidates, each a rem by x - x0 or x^k.  A
    # squarefree part is never split again, so the 9 specializations of the
    # plane split take no Yun split of their own
    counts = {"_yun": 0, "divmod_in": 0}
    for module, name in ((factor, "_yun"), (poly, "divmod_in")):
        def counted(*args, _inner=getattr(module, name), _name=name):
            counts[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counted)
    rng = random.Random(102)
    for _ in range(100):
        assert complex_check_q2(*coprime_pool_pair(rng)).verdict
    assert counts == {"_yun": 20, "divmod_in": 64}


def test_diagram_pool_work_counts(monkeypatch):
    # exact divisions, checked residue classes and checked arcs over the
    # first 16 dual symbols of the diagram acceptance pool (seed 105).  d_eps
    # builds its arcs unchecked, since its bodies share no component; a
    # passing eps = 0 face is decided by exponents, so it builds no residue
    # class; and a coefficient denominator that divides the arcs' summed
    # denominator is divided out of the class test.  A division by a
    # constant or of a constant by a non-constant reaches no packed
    # division, a GCDHEU candidate 1 is no trial division and no unpack,
    # and d_eps and tangent2 reduce each datum and coefficient by one gcd
    counts = {"_div_ints": 0, "_idiv_exact": 0, "_unpack": 0, "ResidueFunc": 0, "GGArc": 0}
    for owner, name, key in ((poly, "_div_ints", "_div_ints"),
                             (poly, "_idiv_exact", "_idiv_exact"),
                             (poly, "_unpack", "_unpack"),
                             (ResidueFunc, "__init__", "ResidueFunc"),
                             (GGArc, "__init__", "GGArc")):
        def counted(*args, _inner=getattr(owner, name), _key=key, **kwargs):
            counts[_key] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rng = random.Random(105)
    for _ in range(16):
        f, g = coprime_pool_pair(rng)
        s = DualMilnorSymbol.of(DualRatFunc(f, rand_poly(rng, VARS_XY, 2)),
                                DualRatFunc(g, rand_poly(rng, VARS_XY, 2)))
        assert diagram_check(s).verdict
    assert counts == {"_div_ints": 560, "_idiv_exact": 693, "_unpack": 413,
                      "ResidueFunc": 0, "GGArc": 0}
