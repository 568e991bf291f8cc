"""Milnor symbols, the tame symbol, deformation arcs, and their boundaries.

The tame symbol follows Tame({f,g}) = sum_y (-1)^(m n) (f^n / g^m)|_y with
m = nu_y(f), n = nu_y(g); the exponent combination makes every component a
unit along its prime, so restriction is always defined.  Arcs specialize at
eps = 0 to (g|_Y)^(-sign), which is exactly the tame component of the
specialized symbol; the boundary d_eps attaches to each irreducible component
p^m of a divisor the first-order datum (p*f1)/(m*f), the polar coefficient of
f1/f along that component.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    EpsDatumIrregular,
    InputError,
    NotAUnitAlongY,
    RestrictionUndefined,
    ScopeError,
)
from .geometry import (
    PrimeDivisor,
    ResidueFunc,
    Y_inf_valuation,
    div_codim1,
    div_on_curves,
    prime_divisors,
    signed_sum,
    valuation,
    variety_of,
)
from .poly import (
    DualRatFunc,
    RatFunc,
    VARS_T,
    poly_gcd,
    resultant,
)
from .value import Value


class MilnorSymbol(Value):
    """Z-linear combination of ordered pairs {f, g} of nonzero RatFunc."""

    __slots__ = ("terms",)  # (f, g, coeff) triples

    def __init__(self, terms):
        for f, g, coeff in terms:
            if f.is_zero() or g.is_zero():
                raise InputError("symbol entries must be nonzero")
            if f.vars != g.vars:
                raise InputError("symbol entries live on different varieties")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def of(cls, f, g, coeff=1):
        return cls(((f, g, coeff),))

    @property
    def vars(self):
        return self.terms[0][0].vars

    def render(self):
        return signed_sum((f"{{{f.render()}, {g.render()}}}", coeff)
                          for f, g, coeff in self.terms)


class DualMilnorSymbol(Value):
    """Z-linear combination of pairs {u, v} of units of k(X)[eps]."""

    __slots__ = ("terms",)  # (u, v, coeff) triples

    def __init__(self, terms):
        for u, v, coeff in terms:
            if u.body.is_zero() or v.body.is_zero():
                raise InputError("dual symbol entries must have nonzero body")
            if u.vars != v.vars:
                raise InputError("dual symbol entries live on different varieties")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def of(cls, u, v, coeff=1):
        return cls(((u, v, coeff),))

    @property
    def vars(self):
        return self.terms[0][0].vars

    def specialize(self):
        """The eps = 0 symbol."""
        return MilnorSymbol(tuple(
            (u.body, v.body, coeff) for u, v, coeff in self.terms))

    def render(self):
        return signed_sum((f"{{{u.render()}, {v.render()}}}", coeff)
                          for u, v, coeff in self.terms)


class K1Cycle(Value):
    """Finite formal product of K1 classes indexed by codimension-1 points.

    Each component is a ResidueFunc on its prime divisor (on P1 a closed
    point, INF included).  Identity components are dropped.
    """

    __slots__ = ("variety", "terms")

    def __init__(self, variety, terms):
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def trivial(cls, variety):
        return cls(variety, ())

    @classmethod
    def build(cls, variety, components):
        acc = {}
        for prime, rf in components:
            acc[prime] = acc[prime] * rf if prime in acc else rf
        terms = [(p, rf) for p, rf in acc.items() if not rf.is_one()]
        terms.sort(key=lambda item: item[0].sort_key())
        return cls(variety, terms)

    def __mul__(self, other):
        if self.variety != other.variety:
            raise ValueError("cycles on different varieties")
        return K1Cycle.build(self.variety, list(self.terms) + list(other.terms))

    def power(self, n):
        if n == 0:
            return K1Cycle.trivial(self.variety)
        return K1Cycle.build(self.variety, [(key, val ** n) for key, val in self.terms])

    def is_trivial(self):
        return not self.terms

    def same_cycle(self, other):
        if self.variety != other.variety or len(self.terms) != len(other.terms):
            return False
        return all(k1 == k2 and v1.same_class(v2)
                   for (k1, v1), (k2, v2) in zip(self.terms, other.terms))

    def render(self):
        if not self.terms:
            return "1"
        return " * ".join(f"({val.rep.render()} at {key.render()})"
                          for key, val in self.terms)


def p1_component_norm(prime, val):
    """Norm of a residue-field value at a point of P1 down to Q."""
    if prime.at_infinity:
        return val.rep.const_value()
    return resultant(prime.poly, val.rep.num, "t").const_value()


def _prime_orders(f, g, variety, hints, primes):
    """Map prime -> (nu(f), nu(g)) over the primes of div(f) and div(g)."""
    orders = {prime: (m, 0) for prime, m in div_codim1(f, variety, hints, primes).terms}
    for prime, n in div_codim1(g, variety, hints, primes).terms:
        orders[prime] = (orders.get(prime, (0, 0))[0], n)
    return orders


def _tame_component(f, g, m, n):
    """(-1)^(mn) f^n / g^m, always a unit along the prime in question."""
    h = (f ** n) / (g ** m)
    if (m * n) % 2:
        h = h * Fraction(-1)
    return h


def tame(s, X=None, hints=None, primes=()):
    """Tame symbol of a Milnor symbol: a K1Cycle over the primes of X.

    primes are irreducible primes already known to the caller; the entries'
    divisors reach them by exact division, and only the rest is factored.
    """
    variety = X if X is not None else variety_of(s.vars)
    components = []
    for f, g, coeff in s.terms:
        orders = _prime_orders(f, g, variety, hints, primes)
        for prime in sorted(orders, key=lambda p: p.sort_key()):
            m, n = orders[prime]
            h = _tame_component(f, g, m, n)
            try:
                components.append((prime, ResidueFunc(prime, h) ** coeff))
            except NotAUnitAlongY as exc:
                raise RestrictionUndefined(str(exc)) from exc
    return K1Cycle.build(variety, components)


def div_k1(c, seed=0, hints=None):
    """The next Gersten differential: sum of div_on_curve over components."""
    if c.variety.kind != "A2":
        raise ScopeError("div_k1 applies to K1 cycles on the plane")
    return div_on_curves((rf for _, rf in c.terms), seed, hints)


class GGArc(Value):
    """First-order deformation arc supported on one curve component.

    curve: the supporting prime divisor; datum: the first-order displacement
    of the defining equation (regular along the curve); unit: g + eps*g1 with
    g a unit along the curve; sign: +1 or -1.  The constructor checks all of
    this; d_eps, whose bodies share no component, builds through
    _of_component, which checks only what the symbol does not guarantee.
    """

    __slots__ = ("curve", "datum", "unit", "sign")

    def __init__(self, curve, datum, unit, sign):
        if sign not in (1, -1):
            raise InputError("arc sign must be +1 or -1")
        if unit.body.is_zero():
            raise InputError("arc unit must have nonzero body")
        p = curve.poly
        if p is None:
            raise ScopeError("arcs at infinity are outside the affine chart")
        if valuation(unit.body, curve) != 0:
            raise NotAUnitAlongY(
                f"{unit.body.render()} is not a unit along {curve.render()}")
        mixed = unit.body.num * unit.body.den
        if poly_gcd(p, mixed).degree() > 0:
            raise InputError(
                "arc unit shares a curve component with the supporting divisor")
        if not datum.is_zero() and valuation(datum, curve) < 0:
            raise EpsDatumIrregular(
                f"datum {datum.render()} has a pole along {curve.render()}")
        self._set_checking_eps(curve, datum, unit, sign)

    def _set_checking_eps(self, curve, datum, unit, sign):
        """Set the fields once the unit's eps part has no pole along the curve."""
        if not unit.eps.is_zero() and valuation(unit.eps, curve) < 0:
            raise EpsDatumIrregular(
                f"unit eps part {unit.eps.render()} has a pole along "
                f"{curve.render()}")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "sign", sign)

    @classmethod
    def _of_component(cls, curve, datum, unit, sign):
        """The arc that d_eps attaches to a component of the other body's divisor.

        d_eps keeps only terms whose bodies share no curve component, so
        the unit's body is a unit along the curve and coprime to it, and
        _component_arcs has tested the datum for a pole; of __init__'s
        checks only the one on the unit's eps part is left to run.
        """
        out = object.__new__(cls)
        out._set_checking_eps(curve, datum, unit, sign)
        return out

    def render(self):
        return (f"arc({self.curve.render()}, datum {self.datum.render()}, "
                f"unit {self.unit.render()}, sign {self.sign:+d})")


def _component_arcs(this, other, family_sign, hints, factored):
    """Arcs for every irreducible component of div(body of this).

    The datum is built from the prime's own equation p, the one whose dp
    tangent3 reads, so both sides of the tangent square share one p.  It
    is p*F1/(m*F) for the body F, its eps part F1 and the order m of F
    along p, built as the one fraction p*F1.num*F.den / (m*F1.den*F.num)
    and reduced by a single gcd; its normal form is unique, so it is the
    datum that products and an inverse of rational functions would give.
    factored maps each body numerator or denominator already factored in
    this d_eps call to its prime divisors.
    """
    F = this.body
    F1 = this.eps
    arcs = []
    for part, part_sign in ((F.num, 1), (F.den, -1)):
        if part.is_const():
            continue
        if part not in factored:
            factored[part] = prime_divisors(part, variety_of(F.vars), hints)
        for prime, mult in factored[part]:
            p = prime.poly
            m = part_sign * mult
            datum = RatFunc(p * F1.num * F.den, F1.den * F.num * m)
            if not datum.is_zero() and valuation(datum, prime) < 0:
                raise EpsDatumIrregular(
                    f"eps datum for component {prime.render()} is irregular: "
                    f"nu({F1.render()}) < {abs(m) - 1} along the component")
            sign = family_sign if m > 0 else -family_sign
            arcs.extend([GGArc._of_component(prime, datum, other, sign)] * abs(m))
    return arcs


def d_eps(s, hints=None):
    """Green-Griffiths arcs of a dual symbol, one per component of each body divisor.

    Terms whose two bodies share a curve component contribute nothing.
    Within one call each distinct body numerator or denominator is factored
    once, and the arcs of each (body, other unit, sign) are built once, so
    a symbol that repeats a body or a term, or holds both {u, v} and
    {v, u}, reuses them.
    """
    arcs = []
    factored = {}  # body numerator or denominator -> its prime divisors
    built = {}  # (this, other, family sign) -> _component_arcs
    for u, v, coeff in s.terms:
        F, G = u.body, v.body
        if F.vars == VARS_T:
            if Y_inf_valuation(F) != 0 or Y_inf_valuation(G) != 0:
                raise ScopeError(
                    "d_eps on P1 requires both bodies to be units at INF; "
                    "move the symbol into the finite chart")
        shared = poly_gcd(F.num * F.den, G.num * G.den)
        if shared.degree() > 0:
            continue
        sign = 1 if coeff > 0 else -1
        for key in ((u, v, sign), (v, u, -sign)):
            if key not in built:
                built[key] = _component_arcs(*key, hints, factored)
        arcs.extend((built[u, v, sign] + built[v, u, -sign]) * abs(coeff))
    return arcs


def arc_specialize(a):
    """The eps = 0 image of an arc: (g restricted to the curve)^(-sign)."""
    rf = ResidueFunc(a.curve, a.unit.body) ** (-a.sign)
    return K1Cycle.build(a.curve.variety, [(a.curve, rf)])


def specialize_arcs(arcs, variety):
    """Product of the eps = 0 images of a family of arcs.

    One pass over the arcs, in order, keeps a running product per curve.
    The image of each distinct (curve, unit body, sign) is computed once;
    an image that is one is skipped, and a running product that becomes
    one is dropped, so a later arc on its curve starts a new one.  This is
    the cycle that multiplying the arc_specialize cycles in turn gives, term
    for term: K1Cycle.build drops identity components the same way.
    """
    images = {}
    acc = {}
    for a in arcs:
        key = (a.curve, a.unit.body, a.sign)
        if key not in images:
            rf = ResidueFunc(a.curve, a.unit.body) ** (-a.sign)
            images[key] = None if rf.is_one() else rf
        rf = images[key]
        if rf is None:
            continue
        if a.curve not in acc:
            acc[a.curve] = rf
            continue
        rf = acc[a.curve] * rf
        if rf.is_one():
            del acc[a.curve]
        else:
            acc[a.curve] = rf
    return K1Cycle(variety, sorted(acc.items(), key=lambda item: item[0].sort_key()))


class DoubleSES(Value):
    """Transcription of the pair of short exact sequences presenting an arc.

    The module is the localization of the coordinate ring at powers of the
    supporting equation, with eps adjoined, modulo the deformed equation; the
    two sequences carry the identity and multiplication by the unit.
    """

    __slots__ = ("localized_at", "relation", "automorphism", "sign")

    def __init__(self, localized_at, relation, automorphism, sign):
        object.__setattr__(self, "localized_at", localized_at)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "automorphism", automorphism)
        object.__setattr__(self, "sign", sign)

    def as_arc(self):
        prime = PrimeDivisor(variety_of(self.localized_at.vars), self.localized_at)
        return GGArc(curve=prime, datum=self.relation.eps,
                     unit=self.automorphism, sign=self.sign)

    def render(self):
        return (f"module: ({self.localized_at.render()})-local [eps] / "
                f"({self.relation.render()}); maps: id, *({self.automorphism.render()}); "
                f"sign {self.sign:+d}")


def arc_as_double_ses(a):
    """The Nenashev-style presentation of an arc as a pair of sequences."""
    return DoubleSES(
        localized_at=a.curve.poly,
        relation=DualRatFunc(RatFunc(a.curve.poly), a.datum),
        automorphism=a.unit,
        sign=a.sign,
    )
