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
(`geometry.divide_by_primes`), and so do those of the bodies whose tame
symbol the eps = 0 face reads.  Along each prime the check then reduces
one form, tangent2 minus the unreduced forms of the arcs on that prime,
instead of reducing each side and their difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .geometry import A2, PrimeDivisor, divide_by_primes, valuation, variety_of
from .gersten import Certificate, _prime_tags, _sorted_inputs
from .ksymbols import d_eps, specialize_arcs, tame
from .poly import RatFunc, VARS_T, VARS_XY

_DIFFS = {VARS_XY: ("dx", "dy"), VARS_T: ("dt",)}


@dataclass(frozen=True)
class DiffForm:
    """a*dx + b*dy on the plane, or a*dt on the line."""

    vars: tuple
    coeffs: tuple  # of RatFunc, one per coordinate differential

    def __post_init__(self):
        if self.vars not in _DIFFS:
            raise InputError("forms live on the plane or the line")
        if len(self.coeffs) != len(self.vars):
            raise InputError("one coefficient per coordinate differential")

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

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.vars == other.vars
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.vars, self.coeffs))

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
    """Z-linear extension of {f+eps*f1, g+eps*g1} -> (g1*df - f1*dg)/(fg)."""
    total = DiffForm.zero(s.vars)
    for u, v, coeff in s.terms:
        f, f1 = u.body, u.eps
        g, g1 = v.body, v.eps
        term = (d_form(f).scale(g1) - d_form(g).scale(f1)).scale((f * g) ** -1)
        if coeff != 1:
            term = term.scale(RatFunc.from_const(s.vars, coeff))
        total = total + term
    return total


@dataclass(frozen=True)
class LocalCohClass:
    """Class of form / p^k in H^1 along V(p), modulo regular forms.

    Canonical shape: order >= 1, every coefficient denominator coprime to p,
    at least one coefficient not divisible by p; the zero class has order 0
    and zero form.
    """

    curve: PrimeDivisor
    order: int
    form: DiffForm

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


def arc_form(a):
    """The unreduced signed tangent form of an arc: sign * ((g1*dp - f1*dg)/g) / p."""
    p = RatFunc(a.curve.poly)
    g, g1 = a.unit.body, a.unit.eps
    beta = (d_form(p).scale(g1) - d_form(g).scale(a.datum)).scale(g ** -1)
    form = beta.scale(p ** -1)
    return form if a.sign == 1 else -form


def tangent3(a):
    """Local tangent class of an arc: the class of arc_form along V(p)."""
    return a.curve, LocalCohClass.of(a.curve, arc_form(a))


def diagram_check(s, hints=None):
    """Certify the commuting square: forms boundary of tangent2 vs tangent3 of d_eps.

    The polar primes of tangent2 are found by dividing its denominators by
    the arcs' primes, and along each prime P the check reduces one form,
    tangent2 minus the arc forms on P, once.  That class is zero exactly
    when the boundary class equals the summed tangent3 classes, since each
    side differs from its canonical class by a form regular along P.  A
    nonzero difference at a prime with no arc renders as the boundary class
    there; at an arc's prime it may render as another representative of
    the same class than reducing each side first would give.

    Also checks the eps = 0 face: the specialized arcs multiply to the tame
    symbol of the specialized symbol.  That tame symbol reaches the arcs'
    primes by exact division too, since the bodies it reads are the ones
    d_eps has factored; factoring them again with the same deterministic
    factorizer would check nothing more.
    """
    beta = tangent2(s)
    arcs = d_eps(s, hints=hints)
    arc_sums = {}
    for a in arcs:
        form = arc_form(a)
        arc_sums[a.curve] = arc_sums[a.curve] + form if a.curve in arc_sums else form
    # a prime both polar and under an arc keeps the tag it got as a polar prime
    primes = set(_polar_primes(beta, list(arc_sums), hints)) | set(arc_sums)

    mismatches = []
    for prime in sorted(primes, key=lambda p: p.sort_key()):
        diff = LocalCohClass.of(prime, (beta - arc_sums[prime]) if prime in arc_sums else beta)
        if not diff.is_zero():
            mismatches.append(f"{prime.render()}: {diff.render()}")

    variety = variety_of(s.vars)
    spec_cycle = specialize_arcs(arcs, variety)
    tame_cycle = tame(s.specialize(), variety, hints=hints, primes=list(arc_sums))
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
    tangent classes of the arcs, the geometric tangent datum.
    """
    variety = arcs[0].curve.variety if arcs else A2
    spec_cycle = specialize_arcs(arcs, variety)
    classes = {}
    for a in arcs:
        curve, cls = tangent3(a)
        classes[curve] = classes[curve] + cls if curve in classes else cls
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
