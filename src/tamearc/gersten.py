"""Cycle representatives, identity certificates, and the batch checkers.

Higher-cycle classes are handled as representatives plus certificates: a
HigherCycleRep is a list of curves with functions on them, and the checkers
produce Certificate records whose pass verdict means the computed witness
normal form is exactly zero (or exactly the claimed value).  There is no
quotient-group normal form; membership in the tame image is verified only
against a user-supplied symbol.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .geometry import A2, P1, div_on_curves
from .ksymbols import K1Cycle, MilnorSymbol, div_k1, p1_component_norm, tame
from .value import Value

CLAIM_KINDS = (
    "KerDiv",
    "TameImage",
    "ComplexSquareZero",
    "Reciprocity",
    "DiagramCommutes",
    "TangentCocycle",
)


class Certificate(Value):
    """Self-contained record of one checked identity.

    A pass verdict means the witness normal form is exactly zero (or exactly
    the claimed value); provenance records the seeds and factorization
    certificate tags the computation relied on.
    """

    __slots__ = ("claim", "verdict", "inputs", "witness", "provenance")
    # inputs (sorted by key), witness, provenance: (key, rendered value) pairs

    def __init__(self, claim, verdict, inputs, witness, provenance):
        if claim not in CLAIM_KINDS:
            raise InputError(f"unknown claim kind {claim!r}")
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "provenance", provenance)

    def render_lines(self):
        lines = [f"claim: {self.claim}",
                 f"verdict: {'pass' if self.verdict else 'fail'}"]
        for key, val in self.inputs:
            lines.append(f"input {key}: {val}")
        for key, val in self.witness:
            lines.append(f"witness {key}: {val}")
        for key, val in self.provenance:
            lines.append(f"provenance {key}: {val}")
        return lines

    def render(self):
        return "\n".join(self.render_lines())


def _sorted_inputs(pairs):
    return tuple(sorted(pairs, key=lambda kv: kv[0]))


def _prime_tags(primes):
    """Unique factorization certificate tags carried by a set of primes."""
    tags = sorted({p.certificate for p in primes if p.poly is not None})
    return ", ".join(tags) if tags else "none"


class HigherCycleRep(Value):
    """Components (Y_j, f_j) of a candidate higher-cycle representative."""

    __slots__ = ("components",)  # (PrimeDivisor, ResidueFunc) pairs

    def __init__(self, components):
        for curve, rf in components:
            if rf.curve != curve:
                raise InputError(
                    f"component function lives on V({rf.curve.poly.render()}) "
                    f"but is attached to {curve.render()}")
        object.__setattr__(self, "components", components)

    def as_k1_cycle(self):
        return K1Cycle.build(A2, list(self.components))

    def render(self):
        if not self.components:
            return "0"
        return " + ".join(
            f"({rf.rep.render()} on {curve.render()})"
            for curve, rf in self.components)


def cycle_check(c, seed=0, hints=None):
    """Certify Ker(div) membership: the component divisors must cancel."""
    total = div_on_curves((rf for _, rf in c.components), seed, hints)
    return Certificate(
        claim="KerDiv",
        verdict=total.is_zero(),
        inputs=_sorted_inputs([("components", c.render())]),
        witness=(("total divisor", total.render()),),
        provenance=(("seed", str(seed)),
                    ("factor tags", _prime_tags(p for p, _ in c.components))),
    )


def tame_boundary_certify(c, s, hints=None):
    """One-sided verifier that s exhibits c as a tame boundary.

    Passes iff tame(s) equals the K1 cycle of c componentwise; a fail says
    nothing about membership in the tame image under a different symbol.
    """
    image = tame(s, A2, hints=hints)
    candidate = c.as_k1_cycle()
    quotient = candidate * image.power(-1)
    return Certificate(
        claim="TameImage",
        verdict=quotient.is_trivial(),
        inputs=_sorted_inputs([("components", c.render()),
                               ("symbol", s.render())]),
        witness=(("candidate / tame(symbol)", quotient.render()),),
        provenance=(("factor tags",
                     _prime_tags([p for p, _ in image.terms]
                                 + [p for p, _ in candidate.terms])),),
    )


def complex_check_q2(f, g, seed=0, hints=None):
    """Certify the square-zero identity div_k1(tame({f, g})) = 0 on the plane."""
    s = MilnorSymbol.of(f, g)
    image = tame(s, A2, hints=hints)
    cycle = div_k1(image, seed=seed, hints=hints)
    return Certificate(
        claim="ComplexSquareZero",
        verdict=cycle.is_zero(),
        inputs=_sorted_inputs([("f", f.render()), ("g", g.render())]),
        witness=(("tame image", image.render()),
                 ("divisor of the image", cycle.render())),
        provenance=(("seed", str(seed)),
                    ("factor tags", _prime_tags(p for p, _ in image.terms))),
    )


def weil_check_p1(f, g, hints=None):
    """Certify reciprocity on the line: norms of the tame components multiply to 1."""
    s = MilnorSymbol.of(f, g)
    image = tame(s, P1, hints=hints)
    product = Fraction(1)
    norms = []
    for prime, val in image.terms:
        n = p1_component_norm(prime, val)
        norms.append(f"{prime.render()} -> {n}")
        product *= n
    return Certificate(
        claim="Reciprocity",
        verdict=product == 1,
        inputs=_sorted_inputs([("f", f.render()), ("g", g.render())]),
        witness=(("component norms", "; ".join(norms) if norms else "none"),
                 ("norm product", str(product))),
        provenance=(("factor tags", _prime_tags(p for p, _ in image.terms)),),
    )
