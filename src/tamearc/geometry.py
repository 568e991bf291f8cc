"""Varieties P1 and A2, prime divisors, valuations, and 0-cycle arithmetic.

Intersection cycles on plane curves take one of two routes.  When one
curve is a graph y = phi(x) (or x = psi(y)), the cycle is read off the
factors of the univariate g(x, phi(x)), by the isomorphism
Q[x, y]/(y - phi, g) = Q[x]/(g(x, phi)).  Any other pair goes through a
sheared resultant: after a change of coordinates x -> x + lam*y that puts
both curves in shape position, the order of each irreducible factor of
Res_y equals the local intersection multiplicity at the single fiber
point, which is recovered exactly from the fiber gcd; both are read from
one subresultant chain of the sheared pair (`poly.subresultants`).  The
residue field F = Q[x]/(u) of a fiber and the polynomials over it are
MultiPoly reduced by `poly.rem`, and inverses in F come from
`poly.invmod`.  A point is then presented by its canonical generators
(u0, v0) (`canonical_point`): u0 is the minimal polynomial of the
x-coordinate, whose characteristic polynomial as an element of F of
degree k is u0^(k/k0), found as the first dependency among its powers in
one fraction-free echelon pass (`_solve_linear`) that also writes y in
their basis; an x-coordinate in a proper subfield takes one more k x k
solve (the tower law), whose rank certifies that the coordinates
generate F.  Only a point of degree 1 takes a closed form: on the graph
route it is (a, phi(a)) for a factor x - a, by evaluation with no
remainder, and its substitution check is one sum on the integer parts
(`_cleared_value`).  On either route each point is certified by exact
substitution into both curves and by its residue degree (`_certified`),
and a failure is an error, never a silent answer.  A Gersten check
(`div_on_curves`) reaches the primes of each residue by exact division by
the check's own curves (`divide_by_primes`), factoring only a remainder,
and intersects each unordered pair of curves once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from random import Random

from .errors import (
    DivisionByZero,
    InputError,
    NotAUnitAlongY,
    ProjectionDisagreement,
)
from .factor import (
    PROVED,
    _extract_hints,
    _hinted,
    factor_plane_curve,
    factor_univariate,
)
from .poly import (
    MultiPoly,
    RatFunc,
    VARS_T,
    VARS_XY,
    invmod,
    rem,
    subresultants,
)
from .value import Value

_ONE = Fraction(1)


class Variety(Value):
    __slots__ = ("kind",)

    def __init__(self, kind):
        if kind not in ("P1", "A2"):
            raise ValueError(f"unknown variety kind {kind!r}")
        object.__setattr__(self, "kind", kind)

    @property
    def vars(self):
        return VARS_T if self.kind == "P1" else VARS_XY

    def render(self):
        return self.kind


P1 = Variety("P1")
A2 = Variety("A2")


def variety_of(vars):
    """The variety whose coordinates are vars: P1 for t, A2 for x, y."""
    return P1 if vars == VARS_T else A2


class PrimeDivisor(Value):
    """Codimension-1 point: V(p) on P1 or A2, or the point at infinity of P1."""

    __slots__ = ("variety", "poly", "certificate", "_hash")

    def __init__(self, variety, poly, certificate=PROVED):
        if variety.kind == "P1":
            if poly is not None:
                if poly.vars != VARS_T or poly.degree() < 1:
                    raise ValueError("P1 prime needs a non-constant polynomial in t")
                poly = poly * (1 / poly.lc())
        else:
            if poly is None:
                raise ValueError("A2 has no point at infinity in this chart")
            if poly.vars != VARS_XY or poly.degree() < 1:
                raise ValueError("A2 prime needs a non-constant polynomial in x, y")
            poly = poly.primitive()
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def infinity(cls):
        return cls(P1, None)

    @property
    def at_infinity(self):
        return self.poly is None

    def degree(self):
        return 1 if self.at_infinity else self.poly.degree()

    def sort_key(self):
        if self.at_infinity:
            return (1, ())
        return (0, self.poly.sort_key())

    def __eq__(self, other):
        return (isinstance(other, PrimeDivisor)
                and self.variety == other.variety and self.poly == other.poly)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.variety.kind, self.poly)))
        return self._hash

    def __repr__(self):
        return f"PrimeDivisor({self.render()})"

    def render(self):
        if self.at_infinity:
            return "INF"
        if self.variety.kind == "P1" and self.poly.degree() == 1:
            return str(-self.poly.dense_in("t")[0].const_value())
        return f"V({self.poly.render()})"


class ClosedPoint(Value):
    """Codimension-2 point of A2: the maximal ideal (u0, v0).

    The closed points of P1 are its prime divisors, so P1 has no ClosedPoint.
    """

    __slots__ = ("variety", "u0", "v0", "residue_degree", "_hash")

    def __init__(self, variety, u0=None, v0=None):
        if variety.kind != "A2":
            raise ValueError("closed points of P1 are its prime divisors")
        if u0 is None or v0 is None:
            raise ValueError("A2 closed point needs generators (u0, v0)")
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "residue_degree", u0.deg_in("x") * v0.deg_in("y"))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def rational(cls, a, b):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        return cls(A2, u0=x - MultiPoly.const(VARS_XY, a),
                   v0=y - MultiPoly.const(VARS_XY, b))

    def degree(self):
        return self.residue_degree

    def rational_values(self):
        """The (a, b) coordinates of a degree-1 point on A2."""
        a = -self.u0.dense_in("x")[0].const_value()
        b = -self.v0.dense_in("y")[0].const_value()
        return a, b

    def sort_key(self):
        return (0, self.u0.sort_key(), self.v0.sort_key())

    def __eq__(self, other):
        return (isinstance(other, ClosedPoint)
                and self.u0 == other.u0 and self.v0 == other.v0)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.u0, self.v0)))
        return self._hash

    def __repr__(self):
        return f"ClosedPoint({self.render()})"

    def render(self):
        if self.residue_degree == 1:
            a, b = self.rational_values()
            return f"({a}, {b})"
        return f"({self.u0.render()}, {self.v0.render()})"


def signed_sum(terms):
    """Render (body, coefficient) pairs as 'a - 2*b + c'; '0' when empty."""
    parts = []
    for body, n in terms:
        if abs(n) != 1:
            body = f"{abs(n)}*{body}"
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if n > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


class Cycle(Value):
    """Finite Z-combination of points: prime divisors, or closed points of A2."""

    __slots__ = ("variety", "terms")

    def __init__(self, variety, terms):
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def build(cls, variety, pairs):
        acc = {}
        for item, n in pairs:
            acc[item] = acc.get(item, 0) + n
        return cls(variety, tuple(sorted(
            ((item, n) for item, n in acc.items() if n != 0),
            key=lambda kv: kv[0].sort_key())))

    @classmethod
    def zero(cls, variety):
        return cls(variety, ())

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return sum(n * item.degree() for item, n in self.terms)

    def __add__(self, other):
        if self.variety != other.variety:
            raise ValueError("cycles on different varieties")
        return Cycle.build(self.variety, list(self.terms) + list(other.terms))

    def render(self):
        return signed_sum((f"[{item.render()}]", n) for item, n in self.terms)


class ResidueFunc(Value):
    """A unit of the residue field of a prime divisor, up to the ideal of the prime.

    On P1 the representative is canonical: the residue mod the point's monic
    equation, or a constant at INF.  On A2 it is kept as given, and the
    constructor checks that p divides neither its numerator nor its
    denominator.  A product, inverse or power of units along V(p) is a unit
    there, p being prime (proved, or asserted by a hint), so on A2 those
    three build their result through _of_units, which skips the check.
    """

    __slots__ = ("curve", "rep")

    def __init__(self, curve, rep):
        if curve.variety.kind == "P1":
            rep = p1_residue(rep, curve)
        else:
            p = curve.poly
            if p.divides(rep.num) or p.divides(rep.den):
                raise NotAUnitAlongY(
                    f"{rep.render()} is not a unit along {curve.render()}")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "rep", rep)

    @classmethod
    def _of_units(cls, curve, rep):
        """The class of rep, a product or power of units along the curve."""
        if curve.variety.kind == "P1":
            return cls(curve, rep)
        out = object.__new__(cls)
        object.__setattr__(out, "curve", curve)
        object.__setattr__(out, "rep", rep)
        return out

    def _vanishes(self, h):
        return h.is_zero() or (not self.curve.at_infinity and self.curve.poly.divides(h))

    def same_class(self, other):
        if self.curve != other.curve:
            return False
        return self._vanishes(self.rep.num * other.rep.den - other.rep.num * self.rep.den)

    def is_one(self):
        return self._vanishes(self.rep.num - self.rep.den)

    def __mul__(self, other):
        if self.curve != other.curve:
            raise ValueError("residue functions on different curves")
        return ResidueFunc._of_units(self.curve, self.rep * other.rep)

    def inverse(self):
        return ResidueFunc._of_units(self.curve, self.rep ** -1)

    def __pow__(self, n):
        return ResidueFunc._of_units(self.curve, self.rep ** n)

    def render(self):
        return f"{self.rep.render()} on {self.curve.render()}"


def valuation(f, Y):
    """Order of vanishing of the rational function f along the prime Y."""
    if f.is_zero():
        raise DivisionByZero("the zero function has no valuation")
    if Y.at_infinity:
        return Y_inf_valuation(f)
    return f.num.divide_out(Y.poly)[1] - f.den.divide_out(Y.poly)[1]


def Y_inf_valuation(f):
    return f.den.degree() - f.num.degree()


def prime_divisors(poly, X, hints=None):
    """[(PrimeDivisor, multiplicity)] of the irreducible factors of poly on X.

    This is the one place where functions become primes, so every caller
    sees the same normalized equation of each component; divide_by_primes
    reaches the same primes by division and calls it for the rest.
    """
    if X.kind == "P1":
        fac = factor_univariate(poly, hints=hints)
    else:
        fac = factor_plane_curve(poly, hints=hints)
    return [(PrimeDivisor(X, term.poly, term.certificate), term.multiplicity)
            for term in fac.factors]


def divide_by_primes(poly, X, primes, hints=None):
    """prime_divisors of poly on X, found by exact division where possible.

    The hint factors named for poly are divided out first and keep their
    tag.  Each of the finite primes given, which are irreducible (proved, or
    user-asserted under a hint), is then divided out exactly, and only what
    is left is factored, without hints, as the factorizers would have
    factored it after the hint step.  A product of known primes is
    therefore never factored, and a constant is never factored at all.
    With no primes given the result is prime_divisors(poly, X, hints).

    A known prime keeps its own tag, so a hint for the polynomial that a
    prime was first found in serves every later polynomial that it divides.
    A given "prime" that is reducible (a caller's curve) is divided out as
    a whole; the callers only sum intersection multiplicities over the
    result, and those are additive, I(p, a*b) = I(p, a) + I(p, b).
    """
    work, entries = _extract_hints(poly, _hinted(hints, poly))
    out = [(PrimeDivisor(X, h, tag), m) for h, m, tag, _ in entries]
    for prime in primes:
        if work.is_const():
            break
        work, m = work.divide_out(prime.poly)
        if m:
            out.append((prime, m))
    if not work.is_const():
        out.extend(prime_divisors(work, X))
    return out


def div_codim1(f, X, hints=None, primes=()):
    """The divisor of zeros and poles of f on X, as a Cycle of prime divisors.

    The primes given, known irreducible, are reached by exact division
    (divide_by_primes); only what is left of f's numerator and
    denominator is factored.
    """
    if f.is_zero():
        raise DivisionByZero("the zero function has no divisor")
    pairs = [(prime, sign * m)
             for part, sign in ((f.num, 1), (f.den, -1))
             for prime, m in divide_by_primes(part, X, primes, hints)]
    nu = Y_inf_valuation(f) if X.kind == "P1" else 0
    if nu:
        pairs.append((PrimeDivisor.infinity(), nu))
    return Cycle.build(X, pairs)


def p1_residue(f, Y):
    """Value of f at the P1 point Y: its remainder mod Y's monic u, or at INF a constant."""
    if Y.at_infinity:
        if Y_inf_valuation(f) != 0:
            raise NotAUnitAlongY(f"{f.render()} is not a unit at INF")
        return RatFunc.from_const(VARS_T, f.num.lc() / f.den.lc())
    u = Y.poly
    num, den = rem(f.num, u, "t"), rem(f.den, u, "t")
    if num.is_zero() or den.is_zero():
        raise NotAUnitAlongY(f"{f.render()} is not a unit at {Y.render()}")
    return RatFunc(rem(num * invmod(den, u, "t"), u, "t"))


# the residue field F = Q[x]/(u) of a point of the x-axis, u monic
# irreducible in x; an element of F, or of F[y], is a MultiPoly in (x, y)
# reduced by rem(., u, "x")

def _fiber_gcd(chain, u):
    """A gcd in F[y], up to a unit of F, of a pair given by its chain in y.

    The pair's leading coefficients in y must not vanish mod u.  Reduction
    mod u then keeps the chain, so the gcd is S_j mod u for the least j with
    s_j != 0 mod u (Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry; Gonzalez-Vega and El Kahoui, J. Complexity 1996); a
    coefficient divisible by u reduces to 0, so deg_in("y") is the degree over F.
    """
    for S, s in reversed(chain):
        if not u.divides(s):
            return rem(S, u, "x")
    raise ProjectionDisagreement(f"every s_j of the fiber pair vanishes mod {u.render()}")


# canonical presentation of a closed point from residue-field data

def _solve_linear(columns, k):
    """The pivots and the dependencies of reduced elements of F, fraction-free.

    Each column is an element of F = Q[x]/(u), deg u = k, as a polynomial
    in x of degree below k, and its coordinates in 1, x, ..., x^(k-1) are
    its content times its integer part.  The integer part is already
    primitive, so it is the column's vector and the content its scale; a
    sign the content carries leaves every ratio of scales and entries
    unchanged.  The matrix is brought to reduced echelon form by
    Gauss-Jordan elimination over Z: a row r is replaced by p * r - f * top
    for the pivot row top, with p the pivot and f the entry of r in its
    column, both divided by their gcd, and the new row is divided by its
    content.  Rows stay primitive, the integer analogue of a primitive
    remainder sequence: every division is exact, no Fraction is built
    inside the loop, and the entries stay the size of the reduced echelon
    form's rows cleared of denominators.  (Bareiss's rule keeps the minors
    of the scaled matrix instead; on the power basis of a residue-field
    element with large coefficients those grow far beyond the answer.)
    Returns (pivots, relations): pivots lists, in order, the indices of the
    columns that are not combinations of the columns before them, so the
    rank is len(pivots); relations maps every other index j to the
    Fractions c with columns[j] = sum(c[i] * columns[pivots[i]]) over the
    pivots before j.  The vectors e_j - sum(c[i] * e_pivots[i]) are the
    reduced echelon basis of the kernel.
    """
    scales = [c.cont for c in columns]
    rows = [[c.ints.get((i, 0), 0) for c in columns] for i in range(k)]
    pivots, relations = [], {}
    for col in range(len(columns)):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            # rows[:r] are reduced: row i is zero on every pivot but its own
            relations[col] = [Fraction(row[col], row[p]) * scales[col] / scales[p]
                              for row, p in zip(rows, pivots)]
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                g = _int_gcd(top[col], f)
                p, f = top[col] // g, f // g
                row = [p * a - f * b for a, b in zip(row, top)]
                g = _int_gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
    return pivots, relations


def canonical_point(u, a_val, b_val):
    """Closed point of A2 with x = a_val, y = b_val in F = Q[x]/(u).

    u is irreducible in x of degree k, and a_val, b_val are elements of F,
    reduced.  Returns the unique presentation (u0 monic irreducible
    in x, v0 monic in y with coefficients reduced mod u0), provided
    Q(a_val, b_val) = F; ProjectionDisagreement otherwise.

    u0 is the minimal polynomial of a_val, of degree k0.  F is a field,
    so the characteristic polynomial of a_val, Res_x(u, y - a_val), is
    u0^(k/k0), and u0 itself is the first dependency among 1, a_val,
    a_val^2, ...: one echelon pass over the k + 1 powers and b_val
    (_solve_linear) finds it.  When k0 = k the powers below a_val^k are a
    basis of F, and the same pass writes b_val in it, so v0 = y - that
    polynomial.  When k0 < k, F has degree J = k/k0 over Q(a_val) by the
    tower law, and Q(a_val, b_val) = F exactly when the k products
    b_val^j * a_val^i, j < J, i < k0, are linearly independent; then they
    are a basis, and one k x k solve writes b_val^J in it, giving v0 of
    degree J in y.  That rank is checked: a rank below k means the data
    generate a proper subfield, and presenting them would give a point of
    the wrong degree.  The pass needs no special case: for a_val = x the
    powers are the basis and u0 is u made monic, and a constant a_val has
    k0 = 1.  A point of degree 1 is (x - a, y - b) at once.
    """
    k = u.deg_in("x")
    if k == 1:
        return ClosedPoint.rational(a_val.const_value(), b_val.const_value())
    y = MultiPoly.variable("y")
    one = MultiPoly.const(VARS_XY, 1)
    pows = [one]
    for _ in range(k):
        pows.append(rem(pows[-1] * a_val, u, "x"))
    _, relations = _solve_linear(pows + [b_val], k)
    k0 = min(relations)
    u0 = MultiPoly.from_dense(VARS_XY, "x", [-c for c in relations[k0]] + [_ONE])
    if k0 == k:
        return ClosedPoint(A2, u0=u0, v0=y - MultiPoly.from_dense(
            VARS_XY, "x", relations[k + 1]))
    # minimal polynomial of b_val over Q(a_val), coefficients in the x-basis
    J = k // k0
    b_pows = [one]
    for _ in range(J):
        b_pows.append(rem(b_pows[-1] * b_val, u, "x"))
    labels = [(i, j) for j in range(J) for i in range(k0)]
    columns = [rem(b_pows[j] * pows[i], u, "x") for i, j in labels]
    pivots, relations = _solve_linear(columns + [b_pows[J]], k)
    if len(pivots) < k:
        raise ProjectionDisagreement("fiber data does not generate the residue field")
    terms = {(0, J): _ONE}
    for (i, j), c in zip(labels, relations[len(labels)]):
        if c != 0:
            terms[(i, j)] = -c
    return ClosedPoint(A2, u0=u0, v0=MultiPoly(VARS_XY, terms))


_SHEAR_BASE = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 7, -7, 11, -11, 13, -13]


def _shear_candidates(seed):
    lams = list(_SHEAR_BASE)
    if seed:
        Random(seed).shuffle(lams)
    return lams


def _cleared_value(f, an, ad, bn=0, bd=1):
    """f(an/ad, bn/bd) * ad^dx * bd^dy / content(f), an integer; ad, bd nonzero.

    dx and dy are the degrees of f in x and in y, so every term
    v * an^i * ad^(dx - i) * bn^j * bd^(dy - j) of the sum is an integer.
    """
    if f.is_zero():
        return 0
    dx, dy = f.deg_in("x"), f.deg_in("y")
    xs = [an ** i * ad ** (dx - i) for i in range(dx + 1)]
    ys = [bn ** j * bd ** (dy - j) for j in range(dy + 1)]
    return sum(v * xs[i] * ys[j] for (i, j), v in f.ints.items())


def _vanishes_at(f, u0, v0):
    """Whether f reduces to 0 modulo (u0, v0); u0 is in x alone, v0 monic in y.

    At a point of degree 1, (x - a, y - b), that is f(a, b) = 0, tested on
    the integer parts (`_cleared_value`).  Otherwise Horner in y, reducing
    by v0 and by u0 at every step.
    """
    if u0.degree() == v0.degree() == 1 and v0.deg_in("x") == 0:
        u, v = u0.ints, v0.ints
        return _cleared_value(f, -u.get((0, 0), 0), u[(1, 0)],
                              -v.get((0, 0), 0), v[(0, 1)]) == 0
    y = MultiPoly.variable("y")
    n = v0.deg_in("y")
    acc = MultiPoly.zero(VARS_XY)
    for c in reversed(f.dense_in("y")):
        acc = acc * y + c
        if acc.deg_in("y") == n:
            acc = acc - acc.lc_in("y") * v0
        acc = rem(acc, u0, "x")
    return acc.is_zero()


def _certified(pt, u, given):
    """pt, once both curves given vanish at it and its residue degree is deg u.

    A point that fails either check raises ProjectionDisagreement.
    """
    if pt.residue_degree != u.deg_in("x") or not all(
            _vanishes_at(q, pt.u0, pt.v0) for q in given):
        raise ProjectionDisagreement("{} is not a point of degree {} on V({}) . V({})"
                                     .format(pt.render(), u.deg_in("x"),
                                             *(q.render() for q in given)))
    return pt


def _shared_component(given):
    """The InputError for a pair of curves with a common component."""
    return InputError("V({}) and V({}) share a component".format(
        *(q.render() for q in given)))


def _intersection_points(p, h, seed, swap):
    """Intersection cycle of V(p) and V(h) as {ClosedPoint: multiplicity}.

    InputError when the curves share a component: then the resultant is zero.
    swap projects along x instead of y, by exchanging x and y first.

    One projection gives the whole cycle (Fulton, Algebraic Curves,
    intersection numbers via resultants).  A shear x -> x + lam*y keeps
    intersection multiplicities, and one is used only when both curves
    keep their full degree in y: their leading coefficients in y are then
    constants, no point goes to infinity, and the exponent of x - a in
    R = Res_y is the sum of the multiplicities of the points over a.  If
    each fiber gcd over F = Q[x]/(u) is g_n * (y - c)^n, each root a of u
    has the one point (a, c(a)) over it, so u^e in R is one closed point
    of residue degree deg u and multiplicity e, and deg R is the degree of
    the cycle.  Each point is then certified (_certified).
    """
    given = p, h
    if swap:
        p = p.swap_xy()
        h = h.swap_xy()
    for lam in _shear_candidates(seed):
        p2 = p.shear(lam)
        h2 = h.shear(lam)
        if p2.deg_in("y") != p.degree() or h2.deg_in("y") != h.degree():
            continue
        # R = S_0, whose sign does not matter, and the fiber gcds from one chain
        chain = subresultants(*((p2, h2) if p.degree() >= h.degree() else (h2, p2)), "y")
        R = chain[-1][0]
        if R.is_zero():
            raise _shared_component(given)
        if R.is_const():
            return {}
        out = {}
        good = True
        for term in factor_univariate(R).factors:
            u = term.poly * (1 / term.poly.lc())
            # shape position: the fiber gcd is g_n * (y - c)^n over F, n >= 1,
            # which holds when gcd(G, dG/dy), from their chain, has degree
            # n - 1; g_n is a unit of F, so a G linear in y always passes
            G = _fiber_gcd(chain, u)
            n = G.deg_in("y")
            if n < 1 or (n > 1 and _fiber_gcd(subresultants(G, G.derivative("y"), "y"),
                                              u).deg_in("y") != n - 1):
                good = False
                break
            g = G.dense_in("y")
            # g_(n-1) = -n * c * g_n
            c_val = rem(g[n - 1] * invmod(g[n], u, "x"), u, "x") * Fraction(-1, n)
            a_val = rem(c_val * lam + MultiPoly.variable("x"), u, "x")
            b_val = c_val
            if swap:
                a_val, b_val = b_val, a_val
            pt = _certified(canonical_point(u, a_val, b_val), u, given)
            out[pt] = out.get(pt, 0) + term.multiplicity
        if good:
            return out
    raise ProjectionDisagreement(
        f"no shear put V({p.render()}) and V({h.render()}) in shape position")


def _is_graph(q, var):
    """Whether q = c*var - f(other variable) for a nonzero constant c."""
    return q.deg_in(var) == 1 and q.lc_in(var).is_const()


def _graph_points(q, g, given, swap):
    """Intersection cycle of a graph V(q) and V(g), {ClosedPoint: multiplicity}.

    q = c*y - f(x) with c a constant, or with swap, c*x - f(y); given is
    the pair as the caller named it, for the certificates and the errors.
    """
    if swap:
        q, g = q.swap_xy(), g.swap_xy()
    low, top = q.dense_in("y")
    phi = low * (-1 / top.const_value())
    r = MultiPoly.zero(VARS_XY)
    for c in reversed(g.dense_in("y")):
        r = r * phi + c
    if r.is_zero():
        raise _shared_component(given)
    if r.is_const():
        return {}
    x = MultiPoly.variable("x")
    out = {}
    for term in factor_univariate(r).factors:
        u = term.poly * (1 / term.poly.lc())
        if u.deg_in("x") == 1:
            # u = x - a, so the point is (a, phi(a))
            an, ad = -u.ints.get((0, 0), 0), u.ints[(1, 0)]
            b = phi.cont * Fraction(_cleared_value(phi, an, ad), ad ** max(phi.deg_in("x"), 0))
            a_val = MultiPoly.const(VARS_XY, Fraction(an, ad))
            b_val = MultiPoly.const(VARS_XY, b)
        else:
            a_val, b_val = rem(x, u, "x"), rem(phi, u, "x")
        if swap:
            a_val, b_val = b_val, a_val
        pt = _certified(canonical_point(u, a_val, b_val), u, given)
        out[pt] = out.get(pt, 0) + term.multiplicity
    return out


def intersection_cycle(p, h, seed=0):
    """Certified intersection cycle of the coprime curves V(p), V(h).

    When one of the curves is a graph q = c*y - f(x), c a nonzero
    constant, and g is the other, the cycle is read off one univariate
    polynomial.  With phi = f/c, y - phi(x) is in the ideal, so
    Q[x, y]/(q, g) is isomorphic to Q[x]/(r) for r = g(x, phi(x)) (Fulton,
    Algebraic Curves, intersection numbers).  Each factor u^e of r is then
    one closed point (u, y - phi mod u), and e is its intersection
    multiplicity: that is the length of the local ring of the intersection
    at the point, here Q[x]/(r) localized at u, which is Q[x]_(u)/(u^e), of
    length e.  r = 0 means the curves share a component, and a nonzero
    constant r that they do not meet.  A graph q = c*x - f(y) takes the
    same route with x and y exchanged, and the coordinates are exchanged
    back before the point is presented.  A pair with no graph is projected
    (_intersection_points), and only that path uses the seed, to order its
    shears.  On both paths every point is presented by canonical_point and
    certified by exact substitution and its residue degree (_certified).
    """
    for var in ("y", "x"):
        for q, g in ((p, h), (h, p)):
            if _is_graph(q, var):
                return _graph_points(q, g, (p, h), swap=var == "x")
    return _intersection_points(p, h, seed, swap=False)


def div_on_curve(g, seed=0, hints=None):
    """Zeros minus poles of g on its curve, as a certified Cycle of points.

    g is a RatFunc on P1, whose points are its prime divisors, or a
    ResidueFunc on a curve in A2.
    """
    if isinstance(g, RatFunc):
        if g.vars != VARS_T:
            raise ValueError("direct div_on_curve input must live on P1")
        return div_codim1(g, P1, hints)
    return div_on_curves([g], seed, hints)


def div_on_curves(funcs, seed=0, hints=None):
    """The sum of div_on_curve over ResidueFuncs on curves in A2.

    A residue (-1)^(mn) f^n / g^m of a tame symbol is a product of the
    curves of f and g, which are the curves of the functions given, so each
    numerator and denominator is divided by those curves first, and only a
    remainder is factored (divide_by_primes).  A remainder is left when a
    component was dropped as trivial, or when a caller's functions are not
    a tame image.  Intersection multiplicity is additive,
    I(p, a*b) = I(p, a) + I(p, b), so the cycle is the same as from the
    full factorization even when a caller's curve is reducible.  The
    intersection cycle of two curves does not depend on their order, so
    each unordered pair is intersected once, into a table that lives for
    this call only.
    """
    funcs = list(funcs)
    for g in funcs:
        if g.curve.variety.kind != "A2":
            raise ValueError("div_on_curve of a ResidueFunc needs a curve in A2")
    known = [g.curve for g in funcs]
    met = {}
    pairs = []
    for g in funcs:
        p = g.curve.poly
        for part, sign in ((g.rep.num, 1), (g.rep.den, -1)):
            for prime, m in divide_by_primes(part, A2, known, hints):
                key = frozenset((p, prime.poly))
                if key not in met:
                    met[key] = intersection_cycle(p, prime.poly, seed)
                for pt, mult in met[key].items():
                    pairs.append((pt, sign * m * mult))
    return Cycle.build(A2, pairs)
