"""Seeded inputs, instance runners and independent correctness checks.

Every in-process workload draws instances in two steps.  A plan consumes
the random stream exactly as the acceptance-suite generators do but builds
nothing, so thousands of plans are cheap; ``build`` turns one plan into the
objects the program receives.  The program never sees a seed.

``pool(seed)`` is the first POOL_SIZE plans of the seed: an acceptance pool
at the default seed, and what traced runs and the tests use.

``sample(seed, count)`` is what untraced runs time.  Instance costs are
heavy-tailed (a diagram certificate takes 20 ms to 2 s, a factorization
1 ms to 2 s) and set mostly by an instance's structure: how many curves of
which kind, which exponents, which eps-part monomials.  A sample drawn at
random would make the figures depend on the seed as much as on the program.
So the structures are fixed: plans drawn once at DESIGN_SEED, taken at
``count`` evenly spaced quantiles of a cost proxy and visited in
bit-reversed order, so every 16 consecutive instances span the whole range.
The seed then redraws every constant of every structure (``recolor``).
"""

import random
from fractions import Fraction

from tamearc import factor, gersten, tangent
from tamearc.ksymbols import DualMilnorSymbol
from tamearc.poly import VARS_XY, DualRatFunc, MultiPoly, RatFunc

POOL_SIZE = 100
PLANNED = 2048
DESIGN_SEED = 0

# Constants c of the lines x - c and shapes (b, c) of the parabolas
# y - x^2 - b*x - c that the acceptance pools draw from.
LINE_CONSTANTS = range(-6, 7)
PARABOLA_SHAPES = [(b, c) for b in range(-3, 4) for c in range(-3, 4)]


# ------------------------------------------------------------------ plans

def plan_rand_poly(rng, deg=2, terms=4):
    """Terms of a random bivariate polynomial of total degree <= deg."""
    d = {}
    for _ in range(rng.randint(1, terms)):
        a = rng.randint(0, deg)
        e = (a, rng.randint(0, deg - a))
        d[e] = d.get(e, Fraction(0)) + Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return {e: c for e, c in d.items() if c}


def plan_pool_pair(rng, max_each=2):
    """(f, g) as lists of (curve, exponent) from four lines and four parabolas.

    A curve is ("line", c) for x - c or ("parabola", b, c) for
    y - x^2 - b*x - c.  Distinct pool members meet in rational points only.
    """
    pool = [("line", c) for c in rng.sample(LINE_CONSTANTS, 4)]
    pool += [("parabola", b, c) for b, c in rng.sample(PARABOLA_SHAPES, 4)]
    rng.shuffle(pool)

    def take(k):
        out = []
        for _ in range(k):
            curve = pool.pop()
            out.append((curve, rng.choice([1, -1])))
        return out

    f = take(rng.randint(1, max_each))
    g = take(rng.randint(1, max_each))
    return f, g


def plan_power_shape(rng):
    """Kinds and multiplicities of 1-3 curves, multiplicities 1-6."""
    return [(rng.choice(("line", "diagonal", "parabola")), rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))]


def plan_power_curves(rng, shape):
    """Distinct curves of the given kinds, as (curve, multiplicity).

    Curves are ("line", c) for x - c, ("diagonal", c) for x + y - c and
    ("parabola", b, c) for y - x^2 - b*x - c; each has degree 1 in x or y
    with unit leading coefficient, so each is irreducible and the reference
    factorization is known without factoring.
    """
    out = []
    for kind, m in shape:
        while True:
            if kind == "parabola":
                curve = (kind, rng.randint(-3, 3), rng.randint(-3, 3))
            else:
                curve = (kind, rng.randint(-6, 6))
            if all(curve != c for c, _ in out):
                break
        out.append((curve, m))
    return out


def plan_power(rng):
    return plan_power_curves(rng, plan_power_shape(rng))


def plan_diagram(rng):
    return plan_pool_pair(rng), plan_rand_poly(rng), plan_rand_poly(rng)


# ---------------------------------------------------------------- recolor

_NONZERO = [n for n in range(-6, 7) if n]  # rand_poly numerators, zero excluded


def recolor_pair(plan, rng):
    """The same lines, parabolas and exponents, with fresh distinct curves."""
    f, g = plan
    lines = iter(rng.sample(LINE_CONSTANTS, 4))
    shapes = iter(rng.sample(PARABOLA_SHAPES, 4))
    fresh = {}
    for curve, _ in f + g:
        if curve not in fresh:
            fresh[curve] = (("line", next(lines)) if curve[0] == "line"
                            else ("parabola",) + next(shapes))
    return [(fresh[c], e) for c, e in f], [(fresh[c], e) for c, e in g]


def recolor_poly(terms, rng):
    """The same monomials with fresh nonzero coefficients."""
    return {e: Fraction(rng.choice(_NONZERO), rng.randint(1, 4)) for e in terms}


def recolor_diagram(plan, rng):
    pair, f1, g1 = plan
    return recolor_pair(pair, rng), recolor_poly(f1, rng), recolor_poly(g1, rng)


def recolor_power(plan, rng):
    return plan_power_curves(rng, [(curve[0], m) for curve, m in plan])


# ------------------------------------------------------------------ builds

def curve_poly(curve):
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    c = MultiPoly.const(VARS_XY, curve[-1])
    if curve[0] == "line":
        return x - c
    if curve[0] == "diagonal":
        return x + y - c
    return y - x ** 2 - curve[1] * x - c


def _curve_degree(curve):
    return 2 if curve[0] == "parabola" else 1


def build_ratfunc(factors):
    out = RatFunc.from_const(VARS_XY, 1)
    for curve, sign in factors:
        out = out * (RatFunc(curve_poly(curve)) ** sign)
    return out


def build_diagram(plan):
    (f, g), f1, g1 = plan
    return DualMilnorSymbol.of(
        DualRatFunc(build_ratfunc(f), MultiPoly(VARS_XY, f1)),
        DualRatFunc(build_ratfunc(g), MultiPoly(VARS_XY, g1)))


def build_complex(plan):
    f, g = plan
    return build_ratfunc(f), build_ratfunc(g)


def build_power(plan):
    known = [(curve_poly(curve), m) for curve, m in plan]
    product = MultiPoly.const(VARS_XY, 1)
    for poly, m in known:
        product = product * poly ** m
    return product, known


# ------------------------------------------------------ runners and checks

# Runners look the program's functions up in their modules at call time, so
# the span wrappers, which rebind them there, see the calls.

def run_diagram(sym):
    return tangent.diagram_check(sym)


def check_certificate(inst, cert):
    """The identities are theorems, so every verdict must be pass."""
    return cert.verdict, cert.render().encode()


def run_complex(pair):
    return gersten.complex_check_q2(*pair)


def run_powers(inst):
    return factor.factor_plane_curve(inst[0])


def _normal_form(p):
    """Coefficients divided by the coefficient of the largest exponent."""
    lead = p.terms[max(p.terms)]
    return sorted((e, c / lead) for e, c in p.terms.items())


def check_powers(inst, fac):
    """The factors and multiplicities are the generator's, and verify holds."""
    product, known = inst
    got = sorted((_normal_form(t.poly), t.multiplicity) for t in fac.factors)
    want = sorted((_normal_form(p), m) for p, m in known)
    text = "\n".join(f"{t.poly.render()}^{t.multiplicity} [{t.certificate}]"
                     for t in fac.factors)
    return got == want and fac.verify(product), text.encode()


class InProcess:
    """A workload whose instances run in the benchmark's own process."""

    def __init__(self, plan, recolor, key, build, run, check):
        self.plan, self.recolor, self.key = plan, recolor, key
        self.build, self.run, self.check = build, run, check

    def plans(self, seed, count):
        rng = random.Random(seed)
        return [self.plan(rng) for _ in range(count)]

    def pool(self, seed):
        return [self.build(p) for p in self.plans(seed, POOL_SIZE)]

    def sample(self, seed, count):
        design = stratified(self.plans(DESIGN_SEED, PLANNED), self.key, count)
        rng = random.Random(seed)
        return [self.build(self.recolor(p, rng)) for p in design]


def _pair_key(f, g):
    """Cost proxy of a pair: degrees of f and g and their product."""
    df = sum(_curve_degree(c) for c, _ in f)
    dg = sum(_curve_degree(c) for c, _ in g)
    return df + dg + df * dg


def _poly_degree(terms):
    return max(a + b for a, b in terms) if terms else 0


WORKLOADS = {
    "diagram": InProcess(
        plan_diagram, recolor_diagram,
        lambda p: (_pair_key(*p[0]), _poly_degree(p[1]) + _poly_degree(p[2])),
        build_diagram, run_diagram, check_certificate),
    "complex": InProcess(
        plan_pool_pair, recolor_pair, lambda p: _pair_key(*p),
        build_complex, run_complex, check_certificate),
    "powers": InProcess(
        plan_power, recolor_power,
        # total degree times degree in y
        lambda p: (sum(_curve_degree(c) * m for c, m in p)
                   * sum(m for c, m in p if c[0] != "line")),
        build_power, run_powers, check_powers),
}


def stratified(plans, key, count):
    """Plans at ``count`` evenly spaced quantiles of ``key``, bit-reversed.

    ``count`` is a power of two.  Step s visits quantile bitrev(s), so every
    aligned run of 2^k steps is an evenly spaced subset of the quantiles.
    """
    order = sorted(range(len(plans)), key=lambda i: (key(plans[i]), i))
    bits = count.bit_length() - 1
    picks = []
    for step in range(count):
        j = int(format(step, f"0{bits}b")[::-1], 2) if bits else 0
        picks.append(plans[order[(2 * j + 1) * len(order) // (2 * count)]])
    return picks
