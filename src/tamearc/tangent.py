"""Kahler differentials, local cohomology classes, and the tangent maps.

Absolute differentials of the function field over Q are free on the
coordinate differentials (dQ = 0 in characteristic 0), so a form on the
plane is a pair of rational-function coefficients and on the line a single
one.  A class in H^1 along a curve V(p) is stored as form / p^k modulo
forms regular along the curve; the reduced (p, k, form) shape, with every
coefficient denominator coprime to p and at least one coefficient not
divisible by p, makes the zero test sound and complete at this level.

The diagram check needs no factorization of its own.  Every denominator of
tangent2 is a product of the primes that d_eps has already found, so its
primes come from hint factors and exact division by the arcs' primes
(`geometry.divide_by_primes`), and so do those of the bodies whose orders
the eps = 0 face reads.  Along each prime the check reduces nothing
unless the square fails there.  The arcs on the prime are summed as one
unreduced fraction, built from products only, whose denominator p divides
once per distinct arc; whether tangent2 minus that sum has a pole along
V(p) is one exact division of a numerator by a power of p, after a
coefficient denominator that divides the sum's denominator has been
divided out of it.  Only a nonzero difference is reduced to its canonical
class, to be rendered.

Nor does the check prove again what d_eps guarantees.  d_eps keeps only
terms whose bodies share no component, so it builds its arcs without
GGArc's unit and datum checks.  On such a symbol the eps = 0 face needs no
residue: both sides are products of whole bodies to integer powers, and
equal exponents decide it (`_face_agrees_by_exponents`).  Only a term
whose bodies share a component, or exponents that differ, expand the face
into residue products, which skip the unit test that their factors have
passed (`geometry.ResidueFunc`), in one pass over the arcs
(`ksymbols.specialize_arcs`).
"""

from __future__ import annotations

from .errors import InputError
from .geometry import A2, divide_by_primes, valuation, variety_of
from .gersten import Certificate, _prime_tags, _sorted_inputs
from .ksymbols import _prime_orders, d_eps, specialize_arcs, tame
from .poly import MultiPoly, RatFunc, VARS_T, VARS_XY
from .value import Value

_DIFFS = {VARS_XY: ("dx", "dy"), VARS_T: ("dt",)}


class DiffForm(Value):
    """a*dx + b*dy on the plane, or a*dt on the line."""

    __slots__ = ("vars", "coeffs")  # coeffs: one RatFunc per coordinate differential

    def __init__(self, vars, coeffs):
        if vars not in _DIFFS:
            raise InputError("forms live on the plane or the line")
        if len(coeffs) != len(vars):
            raise InputError("one coefficient per coordinate differential")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, vars):
        z = RatFunc.from_const(vars, 0)
        return cls(tuple(vars), (z,) * len(vars))

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other):
        return DiffForm(self.vars, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return DiffForm(self.vars, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return DiffForm(self.vars, tuple(-a for a in self.coeffs))

    def scale(self, factor):
        return DiffForm(self.vars, tuple(c * factor for c in self.coeffs))

    def render(self):
        parts = []
        for c, d in zip(self.coeffs, _DIFFS[self.vars]):
            if c.is_zero():
                continue
            body = c.render()
            if body == "1":
                parts.append(d)
            elif body == "-1":
                parts.append(f"-{d}")
            else:
                needs_parens = ("+" in body or (" - " in body) or "/" in body)
                parts.append(f"({body})*{d}" if needs_parens else f"{body}*{d}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def d_form(f):
    """The differential of a rational function, in coordinates."""
    return DiffForm(f.vars, tuple(f.derivative(v) for v in f.vars))


def dlog_dform(f):
    """df/f for nonzero f."""
    if f.is_zero():
        raise InputError("dlog of zero")
    return d_form(f).scale(f ** -1)


def tangent2(s):
    """Z-linear extension of {f+eps*f1, g+eps*g1} -> (g1*df - f1*dg)/(fg).

    With f = fn/fd, f1 = an/ad, g = gn/gd and g1 = bn/bd, a term's
    coefficient along a coordinate x is the one fraction

        (lift*(fd*dfn/dx - fn*dfd/dx) - drag*(gd*dgn/dx - gn*dgd/dx)) / den

    for lift = bn*ad*gd^2*coeff, drag = an*bd*fd^2*coeff and
    den = bd*ad*fd*gd*fn*gn, reduced by a single gcd.  Its normal form is
    unique, so it is the coefficient that products, differences and an
    inverse of rational functions would give.  The terms are summed.
    """
    total = DiffForm.zero(s.vars)
    for u, v, coeff in s.terms:
        fn, fd, an, ad = u.body.num, u.body.den, u.eps.num, u.eps.den
        gn, gd, bn, bd = v.body.num, v.body.den, v.eps.num, v.eps.den
        lift = bn * (ad * gd * gd * coeff)
        drag = an * (bd * fd * fd * coeff)
        den = bd * ad * fd * gd * fn * gn
        total = total + DiffForm(s.vars, tuple(
            RatFunc(lift * (fd * fn.derivative(x) - fn * fd.derivative(x))
                    - drag * (gd * gn.derivative(x) - gn * gd.derivative(x)), den)
            for x in s.vars))
    return total


class LocalCohClass(Value):
    """Class of form / p^k in H^1 along V(p), modulo regular forms.

    Canonical shape: order >= 1, every coefficient denominator coprime to p,
    at least one coefficient not divisible by p; the zero class has order 0
    and zero form.
    """

    __slots__ = ("curve", "order", "form")

    def __init__(self, curve, order, form):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "form", form)

    @classmethod
    def of(cls, curve, beta):
        """Reduce a raw form to the canonical class along the curve.

        k is the exact pole order, so some coefficient of beta * p^k has
        valuation 0 and the stored form is already in canonical shape.
        """
        k = max((-valuation(c, curve) for c in beta.coeffs if not c.is_zero()), default=0)
        if k <= 0:
            return cls(curve, 0, DiffForm.zero(beta.vars))
        return cls(curve, k, beta.scale(RatFunc(curve.poly) ** k))

    def is_zero(self):
        return self.order == 0

    def as_form(self):
        """The stored representative form / p^order."""
        if self.order == 0:
            return self.form
        return self.form.scale(RatFunc(self.curve.poly) ** -self.order)

    def __add__(self, other):
        if self.curve != other.curve:
            raise InputError("classes along different curves")
        return LocalCohClass.of(self.curve, self.as_form() + other.as_form())

    def __sub__(self, other):
        if self.curve != other.curve:
            raise InputError("classes along different curves")
        return LocalCohClass.of(self.curve, self.as_form() - other.as_form())

    def render(self):
        if self.order == 0:
            return "0"
        p = self.curve.poly.render()
        denom = f"({p})^{self.order}" if self.order > 1 else f"({p})"
        return f"[{self.form.render()}] / {denom}"


def _polar_primes(beta, known, hints):
    """Irreducible factors of the coefficient denominators, as primes.

    Each denominator loses its hint factors, then the known primes by exact
    division; only what is left is factored.
    """
    primes = {}
    for c in beta.coeffs:
        if c.is_zero() or c.den.is_const():
            continue
        for prime, _ in divide_by_primes(c.den, variety_of(beta.vars), known, hints):
            primes[prime] = None
    return sorted(primes, key=lambda p: p.sort_key())


def boundary_forms(beta):
    """Polar decomposition of a form: its class along each polar prime."""
    out = []
    for prime in _polar_primes(beta, (), None):
        cls = LocalCohClass.of(prime, beta)
        if not cls.is_zero():
            out.append((prime, cls))
    return out


def _arc_fraction(curve, datum, unit, times):
    """times * (g1*dp - datum*dg)/(g*p) for unit = g + eps*g1, as one unreduced fraction.

    Returns (numerators, den), one numerator per coordinate differential,
    over den = bd*cd*gd*gn*p for g = gn/gd, g1 = b/bd and datum = c/cd,
    built from products only.  For the data of a GGArc, p divides den
    exactly once: p is prime, g is a unit along V(p), so p divides neither
    gn nor gd, and the datum and g1 are regular there, so p divides neither
    cd nor bd.
    """
    p = curve.poly
    gn, gd = unit.body.num, unit.body.den
    g1 = unit.eps
    # (g1*dp - datum*dg)/g = (b*cd*gd^2*dp - c*bd*(gd*dgn - gn*dgd)) / (bd*cd*gd*gn)
    lift = g1.num * (datum.den * gd * gd * times)
    drag = datum.num * (g1.den * times)
    nums = tuple(lift * p.derivative(v) - drag * (gd * gn.derivative(v) - gn * gd.derivative(v))
                 for v in p.vars)
    return nums, g1.den * datum.den * gd * gn * p


def arc_form(a):
    """The signed tangent form of an arc: sign * ((g1*dp - datum*dg)/g) / p."""
    nums, den = _arc_fraction(a.curve, a.datum, a.unit, a.sign)
    return DiffForm(a.curve.poly.vars, tuple(RatFunc(n, den) for n in nums))


def tangent3(a):
    """Local tangent class of an arc: the class of arc_form along V(p)."""
    return a.curve, LocalCohClass.of(a.curve, arc_form(a))


def _arc_sums(arcs):
    """{prime: (numerators, den, k) or None}: the summed arc forms on each prime.

    Equal arcs, which d_eps repeats |m|*|coeff| times, are grouped into one
    signed count, and each distinct arc with a nonzero count is built once
    by _arc_fraction.  The sum over the k distinct arcs on a prime is
    cross-multiplied, never reduced, so p divides its denominator exactly k
    times.  Every arc's prime is a key, in the order d_eps found them; it
    maps to None where the counts cancel.
    """
    counts = {}
    for a in arcs:
        key = (a.curve, a.datum, a.unit)
        counts[key] = counts.get(key, 0) + a.sign
    sums = dict.fromkeys(a.curve for a in arcs)
    for (curve, datum, unit), times in counts.items():
        if not times:
            continue
        nums, den = _arc_fraction(curve, datum, unit, times)
        if sums[curve] is None:
            sums[curve] = (nums, den, 1)
        else:
            before, before_den, k = sums[curve]
            sums[curve] = (tuple(n * den + m * before_den for n, m in zip(before, nums)),
                           before_den * den, k + 1)
    return sums


def _difference_class(prime, beta, arc_sum):
    """The class along the prime of beta minus an _arc_sums entry, or None when zero.

    The entry (nums, den, k) has p dividing den exactly k times; None, for
    a prime without arcs or whose arcs cancel, stands for 0/1 with k = 0.
    Each coefficient c of beta minus its numerator n over den is
    (c.num*den - n*c.den) / (c.den*den).  When c.den divides den, as it
    mostly does, the difference is (c.num*(den/c.den) - n) / den, regular
    along V(p) exactly when p^k divides that numerator.  Otherwise, with
    e = v_p(c.den), it is regular exactly when p^(k+e) divides
    c.num*den - n*c.den.  Either way one exact division by a power of p
    decides.  Only a nonzero class is reduced, by LocalCohClass.of, from
    the second form of every coefficient.
    """
    p = prime.poly
    vars = beta.vars
    nums, den, k = arc_sum or ((MultiPoly.zero(vars),) * len(vars), MultiPoly.const(vars, 1), 0)
    for c, n in zip(beta.coeffs, nums):
        q = den.div_exact(c.den)
        if q is not None:
            r, order = c.num * q - n, k
        else:
            r = c.num * den - n * c.den
            order = k + c.den.divide_out(p)[1]
        if order and not r.is_zero() and not (p ** order).divides(r):
            break
    else:
        return None
    return LocalCohClass.of(prime, DiffForm(vars, tuple(
        RatFunc(c.num * den - n * c.den, c.den * den) for c, n in zip(beta.coeffs, nums))))


def _face_agrees_by_exponents(s, arcs, variety, hints, primes):
    """Whether the two sides of the eps = 0 face agree by their exponents alone.

    The tame side gives, for each term (u, v, coeff) and each prime along
    which the bodies f and g have the orders (m, n), f the exponent n*coeff
    and g the exponent -m*coeff; the arc side gives each arc's unit body
    the exponent -sign on its curve.  The sides agree when the tame
    exponent minus the arc exponent is zero for every (prime, body).
    False when some term's bodies share a component (m and n both nonzero
    on one prime), a term that d_eps skips.
    """
    balance = {}
    for u, v, coeff in s.terms:
        f, g = u.body, v.body
        for prime, (m, n) in _prime_orders(f, g, variety, hints, primes).items():
            if m and n:
                return False
            balance[prime, f] = balance.get((prime, f), 0) + n * coeff
            balance[prime, g] = balance.get((prime, g), 0) - m * coeff
    for a in arcs:
        key = a.curve, a.unit.body
        balance[key] = balance.get(key, 0) + a.sign
    return not any(balance.values())


def diagram_check(s, hints=None):
    """Certify the commuting square: forms boundary of tangent2 vs tangent3 of d_eps.

    The polar primes of tangent2 are found by dividing its denominators by
    the arcs' primes.  Along each prime P the check compares tangent2 with
    the sum of the arc forms on P, held as one unreduced fraction whose
    denominator p divides once per distinct arc (_arc_sums), by one exact
    division per coefficient (_difference_class).  The difference has no
    pole along P exactly when the boundary class equals the summed tangent3
    classes, since each side differs from its canonical class by a form
    regular along P.  A nonzero difference is reduced to its canonical
    class, which renders as the boundary class at a prime with no arc; at
    an arc's prime it may render as another representative of the same
    class than reducing each side first would give.

    Also checks the eps = 0 face: the specialized arcs multiply to the tame
    symbol of the specialized symbol.  On each prime both sides are
    products of whole bodies to integer powers.  specialize_arcs gives the
    product of unit.body^(-sign) over the arcs on the prime, and tame gives
    the product over terms of (-1)^(m*n*coeff) f^(n*coeff) g^(-m*coeff),
    with (m, n) the orders of the bodies f and g along the prime.  When no
    term's bodies share a component, m*n = 0 on every prime, so no sign is
    left, and each side is a map from body to exponent
    (_face_agrees_by_exponents).  Equal maps are the same product written
    twice, hence equal functions on the prime, and the face agrees without
    expanding either product.  Otherwise both products are built and
    compared, which also renders the witness of a failing face.  The tame
    symbol reaches the arcs' primes by exact division too, since the bodies
    it reads are the ones d_eps has factored; factoring them again with the
    same deterministic factorizer would check nothing more.
    """
    beta = tangent2(s)
    arcs = d_eps(s, hints=hints)
    arc_sums = _arc_sums(arcs)
    arc_primes = list(arc_sums)
    # a prime both polar and under an arc keeps the tag it got as a polar prime
    primes = set(_polar_primes(beta, arc_primes, hints)) | set(arc_sums)

    mismatches = []
    for prime in sorted(primes, key=lambda p: p.sort_key()):
        diff = _difference_class(prime, beta, arc_sums.get(prime))
        if diff is not None:
            mismatches.append(f"{prime.render()}: {diff.render()}")

    variety = variety_of(s.vars)
    face_ok = _face_agrees_by_exponents(s, arcs, variety, hints, arc_primes)
    if not face_ok:
        spec_cycle = specialize_arcs(arcs, variety)
        tame_cycle = tame(s.specialize(), variety, hints=hints, primes=arc_primes)
        face_ok = spec_cycle.same_cycle(tame_cycle)

    witness = [("tangent2 form", beta.render()),
               ("class differences", "; ".join(mismatches) if mismatches else "all zero"),
               ("eps=0 face", "agrees" if face_ok else
                f"arcs give {spec_cycle.render()}, tame gives {tame_cycle.render()}")]
    return Certificate(
        claim="DiagramCommutes",
        verdict=not mismatches and face_ok,
        inputs=_sorted_inputs([("symbol", s.render())]),
        witness=tuple(witness),
        provenance=(("factor tags", _prime_tags(primes)),
                    ("arc count", str(len(arcs)))),
    )


def tangent_cocycle(arcs):
    """Certify that a family of arcs lies over zero at eps = 0.

    A pass means the specialized units multiply to the trivial K1 cycle, so
    the family represents a tangent-space element; the witness lists the
    tangent classes of the arcs, the geometric tangent datum.  The arc
    forms on each curve are summed as one fraction (_arc_sums) and reduced
    once, to the sum of the tangent3 classes, represented by the summed
    form whatever the order of the arcs.
    """
    variety = arcs[0].curve.variety if arcs else A2
    spec_cycle = specialize_arcs(arcs, variety)
    classes = {}
    for curve, arc_sum in _arc_sums(arcs).items():
        if arc_sum is not None:
            nums, den, _ = arc_sum
            classes[curve] = LocalCohClass.of(
                curve, DiffForm(curve.poly.vars, tuple(RatFunc(n, den) for n in nums)))
    datum = "; ".join(
        f"{curve.render()}: {classes[curve].render()}"
        for curve in sorted(classes, key=lambda p: p.sort_key())
        if not classes[curve].is_zero())
    return Certificate(
        claim="TangentCocycle",
        verdict=spec_cycle.is_trivial(),
        inputs=_sorted_inputs([("arcs", "; ".join(a.render() for a in arcs) or "none")]),
        witness=(("eps=0 cycle", spec_cycle.render()),
                 ("tangent classes", datum if datum else "0")),
        provenance=(("scope",
                     "tangent classes of families not arising from the symbol "
                     "boundary are computed by the same formula but carry no "
                     "independent cross-check"),),
    )
