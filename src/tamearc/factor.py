"""Factorization over Q with per-factor evidence tags.

Both factorizers divide out the hint factors named for the polynomial
itself, then split the rest once by Yun's squarefree decomposition (Yun,
SYMSAC 1976); a plane curve first loses its content in y, which is
factored as a polynomial in x.  A rest of degree 1 (in y, for a plane
curve) skips Yun: it is its own squarefree part.  Each squarefree part
is factored once and never split again: a univariate one, a plane part
without x and the squarefree specialization of the plane lift all go
straight to the integer factorizer.  A univariate part stays in
integers: one of degree 1 is irreducible, one of degree 2 is decided by
whether its discriminant is a square, and any other is split by a q-adic
lift of its factors mod a prime q, whose F_q[t] arithmetic is poly's
dense kernel.  A plane part of degree 1 in y is irreducible, and a
higher one is split by an x-adic lift of the factors of a good
specialization, on the kernel's one division with remainder: the
specialization p(x0, y) is `rem` by x - x0, a series is truncated by
`rem` by x^k, and the corrections come from `poly.invmod` and `rem` in
y.  Both lifts share one Hensel tree, `_hensel_tree`, and one subset
search, `_recombine`, exponential in the number of lifted factors, whose
docstring holds the proof: each search is exhaustive within
RECOMBINATION_BUDGET subsets and raises FactorIncomplete past it.
Every factor found is therefore tagged "proved".  A factor that a caller
supplied is checked to divide, but its irreducibility is trusted, so it
is tagged "user-asserted".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt, prod
from random import Random

from .errors import FactorIncomplete, InputError
from .poly import (
    MultiPoly,
    _center,
    _exact_quotient,
    _gcd_cofactors,
    _idiv_exact,
    _iprimitive,
    _pack,
    _zderiv,
    _zdivmod,
    _zgcd,
    _zinv,
    _zmonic,
    _zmul,
    _zpowmod,
    _zred,
    _zsub,
    content_in,
    invmod,
    poly_gcd,
    rem,
    udeg,
)
from .value import Value

PROVED = "proved"
ASSERTED = "user-asserted"

# 13 lifted factors need 4,095 subsets, so a search over at most 13 is exhaustive
RECOMBINATION_BUDGET = 4096

_ONE = Fraction(1)


class FactorTerm(Value):
    __slots__ = ("poly", "multiplicity", "certificate", "evidence")

    def __init__(self, poly, multiplicity, certificate, evidence=""):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "evidence", evidence)


class Factorization(Value):
    __slots__ = ("unit", "factors")

    def __init__(self, unit, factors):
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "factors", factors)

    def product(self):
        if not self.factors:
            raise ValueError("empty factorization has no intrinsic variable set")
        acc = MultiPoly.const(self.factors[0].poly.vars, self.unit)
        for t in self.factors:
            acc = acc * t.poly ** t.multiplicity
        return acc

    def verify(self, target):
        if not self.factors:
            return target == MultiPoly.const(target.vars, self.unit)
        return self.product() == target

    def weakest_tag(self):
        if any(t.certificate == ASSERTED for t in self.factors):
            return ASSERTED
        return PROVED


class FactorHints:
    """Caller-supplied factor lists, keyed by the primitive form of the target."""

    def __init__(self):
        self._table = {}

    def add(self, target, factors):
        self._table[target.primitive()] = tuple(factors)

    def lookup(self, p):
        return self._table.get(p.primitive(), ())


def _finish(p, found):
    """Assemble a Factorization for p from (poly, mult, tag, note) entries.

    No two entries are equal: a hint factor is divided out as often as it
    divides, and the y-content and the squarefree parts share no factor.
    """
    lc_prod = _ONE
    for poly, mult, _, _ in found:
        lc_prod *= poly.lc() ** mult
    terms = [FactorTerm(*entry) for entry in found]
    if len(terms) > 1:
        terms.sort(key=lambda t: t.poly.sort_key())
    return Factorization(p.lc() / lc_prod, tuple(terms))


def _extract_hints(p, hint_factors):
    """Divide verified hint factors out of p; returns (remainder, entries)."""
    entries = []
    work = p
    for h in hint_factors:
        h = h.primitive()
        if h.is_const():
            raise InputError(f"factor hint {h.render()!r} is constant")
        work, mult = work.divide_out(h)
        if mult == 0:
            raise InputError(
                f"factor hint {h.render()!r} does not divide {p.render()!r}")
        entries.append((h, mult, ASSERTED, "caller-supplied factor"))
    return work, entries


def _hinted(hints, p):
    """The hint factors for p: a FactorHints is looked up, a plain list names factors of p."""
    if isinstance(hints, FactorHints):
        return hints.lookup(p)
    return hints or ()


def _odd_primes():
    n = 3
    while True:
        if all(n % p for p in range(3, isqrt(n) + 1, 2)):
            yield n
        n += 2


def _ddf(f, q):
    """Distinct-degree split of monic squarefree f; returns [(monic product, degree)]."""
    out = []
    v = list(f)
    h = [0, 1]
    d = 0
    while udeg(v) >= 1:
        d += 1
        if 2 * d > udeg(v):
            out.append((v, udeg(v)))
            break
        h = _zpowmod(h, q, f, q)
        g = _zgcd(_zsub(h, [0, 1], q), v, q)
        if udeg(g) >= 1:
            out.append((g, d))
            v = _zdivmod(v, g, q)[0]
    return out


def _edf(f, d, q, rng):
    """Equal-degree split: f monic squarefree, every irreducible factor of degree d."""
    n = udeg(f)
    if n == d:
        return [f]
    exponent = (q ** d - 1) // 2
    while True:
        a = _zred([rng.randrange(q) for _ in range(n)], q)
        if udeg(a) < 1:
            continue
        b = _zpowmod(a, exponent, f, q)
        g = _zgcd(_zsub(b, [1], q), f, q)
        if 0 < udeg(g) < n:
            rest = _zdivmod(f, g, q)[0]
            return _edf(g, d, q, rng) + _edf(_zmonic(rest, q), d, q, rng)


def _hensel_pair_int(target, u, v, u0, v0, s, q, big):
    """Lift target ≡ u·v from mod q to mod big = q^K; all three monic."""
    m = q
    while m < big:
        # target - u*v vanishes mod m, so its digit at m is the next correction
        e = _zred([c // m for c in _zsub(target, _zmul(u, v, big), big)], q)
        if e:
            b = _zdivmod(_zmul(s, e, q), v0, q)[1]
            num = _zsub(e, _zmul(b, u0, q), q)
            a = _zdivmod(num, v0, q)[0]
            u = _zsub(u, [-m * c for c in a], big)
            v = _zsub(v, [-m * c for c in b], big)
        m *= q
    return u, v


def _zassenhaus(g):
    """Complete factorization of a primitive squarefree integer polynomial.

    Returns (factors, note); factors are dense integer-primitive lists,
    proved irreducible by `_recombine`.
    """
    n = udeg(g)
    lc = g[-1]
    candidates = []
    checked = 0
    for q in _odd_primes():
        if len(candidates) >= 4 or checked >= 120:
            break
        checked += 1
        if lc % q == 0:
            continue
        gq = _zred(g, q)
        if udeg(gq) != n:
            continue
        gq = _zmonic(gq, q)
        if udeg(_zgcd(gq, _zderiv(gq, q), q)) != 0:
            continue
        blocks = _ddf(gq, q)
        count = sum(udeg(block) // d for block, d in blocks)
        if count == 1:
            return [list(g)], f"irreducible mod {q}"
        candidates.append((count, q, blocks))
    if not candidates:
        raise FactorIncomplete(
            "no usable prime found for modular factorization; supply a factor hint")
    _, q, blocks = min(candidates)
    # the irreducible monic factors mod q, split from the distinct-degree blocks
    rng = Random(0x7A3E + q * 131 + n)
    pool = sorted(f for block, d in blocks for f in _edf(block, d, q, rng))
    # any factor of lc*g has coefficients below this bound, so the lift separates
    norm = isqrt(sum(c * c for c in g)) + 1
    bound = 2 * (2 ** n) * norm * abs(lc) + 1
    big = q
    while big < bound:
        big *= q
    target = _zmonic(g, big)

    def lift(target, left, right):
        u0, v0 = [1], [1]
        for f in left:
            u0 = _zmul(u0, f, q)
        for f in right:
            v0 = _zmul(v0, f, q)
        return _hensel_pair_int(target, list(u0), list(v0), u0, v0, _zinv(u0, v0, q), q, big)

    def candidate(work):
        def of(factors):
            acc = [work[-1]]
            for f in factors:
                acc = _zmul(acc, f, big)
            return _iprimitive([_center(c, big) for c in acc])
        return of

    found, rest = _recombine(list(g), _hensel_tree(target, pool, lift), candidate, _idiv_exact)
    return found + [rest], f"lift and recombination mod {q}"


def _subsets(n):
    """The subsets of range(n) with at most n // 2 elements, smallest first.

    Past RECOMBINATION_BUDGET subsets it raises FactorIncomplete, so a
    search cut short never passes for an exhaustive one.
    """
    tried = 0
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            if tried == RECOMBINATION_BUDGET:
                raise FactorIncomplete(
                    f"recombination of {n} lifted factors needs more than "
                    f"{RECOMBINATION_BUDGET} subsets; supply a factor hint")
            tried += 1
            yield subset


def _hensel_tree(target, pool, lift):
    """One lift of target per pool member: lift(target, left, right) lifts each halving."""
    if len(pool) == 1:
        return [target]
    half = len(pool) // 2
    left, right = pool[:half], pool[half:]
    u, v = lift(target, left, right)
    return _hensel_tree(u, left, lift) + _hensel_tree(v, right, lift)


def _recombine(work, lifted, candidate, divide):
    """Zassenhaus recombination: (factors split off, rest) of work, all irreducible.

    candidate(work) maps the lifted factors of a subset to the factor of
    work they give, and divide(work, cand) is work / cand or None.  The
    caller shows that each factor of work and its cofactor come from
    complementary subsets, so one of the two from a subset of at most
    len(lifted) // 2.  `_subsets` tries those smallest first, so a hit has
    no proper factor: its subset would be smaller and tried first.  Each
    hit and its subset go until one lifted factor is left or no subset
    divides, so the rest has no proper factor either.  A search that would
    pass RECOMBINATION_BUDGET subsets raises FactorIncomplete instead.
    """
    found = []
    while len(lifted) > 1:
        of = candidate(work)
        for subset in _subsets(len(lifted)):
            cand = of([lifted[i] for i in subset])
            quot = divide(work, cand)
            if quot is not None:
                break
        else:
            break
        found.append(cand)
        work, lifted = quot, [f for i, f in enumerate(lifted) if i not in subset]
    return found, work


def _yun(f, var):
    """Squarefree decomposition of f in var: f = c · prod g_i^i with g_i primitive.

    The cofactors of each gcd are exact, so b and c stay quotients by the same g.
    """
    out = []
    _, b, c = _gcd_cofactors(f, f.derivative(var))
    d = c - b.derivative(var)
    i = 1
    while b.deg_in(var) >= 1:
        g, b, c = _gcd_cofactors(b, d)
        if g.deg_in(var) >= 1:
            out.append((g, i))
        d = c - b.derivative(var)
        i += 1
    return out


def _factor_squarefree(f):
    """Irreducible factors of a squarefree dense integer-primitive list with lc > 0.

    f has degree at least 2.  Complete; returns (dense integer-primitive
    factor, note) pairs, all proved.  A quadratic a*t^2 + b*t + c splits
    over Q exactly when D = b^2 - 4ac is a square r^2, and then 4a*f =
    (2a*t + b - r)(2a*t + b + r); by Gauss's lemma the primitive parts of
    the two factors multiply to f.
    """
    if udeg(f) == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        r = isqrt(disc) if disc >= 0 else -1
        if r * r != disc:
            return [(f, "degree 2, discriminant not a square")]
        return [(_iprimitive(g), "degree 2, discriminant a square")
                for g in ([b - r, 2 * a], [b + r, 2 * a])]
    factors, note = _zassenhaus(f)
    return [(g, note) for g in factors]


def _parts(f, var):
    """Yun's split of f in var; at degree 1, f made primitive is its own part."""
    if f.deg_in(var) == 1:
        return [(f.primitive(), 1)]
    return _yun(f, var)


def _univariate_entries(parts, var):
    """Entries for (squarefree part, multiplicity) pairs of polynomials in var alone.

    A part of degree 1 is irreducible as it stands; any other goes to
    `_factor_squarefree` once, with no second squarefree split.
    """
    entries = []
    for part, mult in parts:
        if part.deg_in(var) == 1:
            entries.append((part, mult, PROVED, "degree 1"))
            continue
        # part has content 1 and one live variable, so stride 1 lists its coefficients
        for fac, note in _factor_squarefree(_pack(part.ints, 1)):
            entries.append((MultiPoly.from_dense(part.vars, var, fac), mult, PROVED, note))
    return entries


def factor_univariate(p, hints=None):
    """Complete factorization over Q of a polynomial in one variable.

    Verified hint factors are divided out first, so pre-factored input
    needs no recombination.  What is left is split once by Yun, unless it
    has degree 1 and is its own part, and each squarefree part is factored
    once: degree 1 is irreducible, degree 2 is decided by its discriminant
    (see `_factor_squarefree`), and any other goes to the modular lift,
    whose recombination raises FactorIncomplete past RECOMBINATION_BUDGET
    subsets; the size of the coefficients costs only lift precision.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    live = [v for v in p.vars if p.deg_in(v) > 0]
    if len(live) > 1:
        raise ValueError(f"{p.render()!r} is not univariate")
    if not live:
        return Factorization(p.const_value(), ())
    var, = live
    work, entries = _extract_hints(p, _hinted(hints, p))
    entries.extend(_univariate_entries(_parts(work, var), var))
    return _finish(p, entries)


# bivariate factorization

_SPECIALIZE_CANDIDATES = [0] + [s * k for k in range(1, 25) for s in (1, -1)]


def _hensel_pair_series(target, u0, v0, k):
    """Lift target ≡ u0·v0 from mod x to mod x^k; u0, v0 in y alone, all monic in y."""
    s = invmod(u0, v0, "y")
    u, v = u0, v0
    for j in range(1, k):
        # target = u*v mod x^j, so the coefficient of x^j is the next correction
        rows = (target - u * v).dense_in("x")
        if len(rows) <= j or rows[j].is_zero():
            continue
        e = rows[j]
        b = rem(s * e, v0, "y")
        # b*u0 = s*u0*e = e mod v0, so the division is exact
        a = _exact_quotient(e - b * u0, v0)
        xj = MultiPoly(target.vars, {(j, 0): _ONE})
        u = u + xj * a
        v = v + xj * b
    return u, v


def _pick_specialization(p):
    """(x0, u) with u = p(x0, y) squarefree and lc_y(p)(x0) != 0, as a polynomial in y."""
    x, dy = MultiPoly.variable("x"), p.deg_in("y")
    for x0 in _SPECIALIZE_CANDIDATES:
        # p mod (x - x0) is p(x0, y), of full y-degree exactly when lc_y(p)(x0) != 0
        u = rem(p, x - x0, "x")
        if u.deg_in("y") == dy and poly_gcd(u, u.derivative("y")).degree() == 0:
            return x0, u
    raise FactorIncomplete(
        f"no good specialization found for {p.render()!r}; supply a factor hint")


def _split_primitive_y(p):
    """Factor entries for p: y-primitive, squarefree, deg_y >= 2, deg_x >= 1.

    Every entry is proved irreducible.  p is y-primitive because
    `factor_plane_curve` removed `content_in(p, "y")`, so a factor of p with
    y-degree 0 is a constant.  `_pick_specialization` gives x0 with
    lc_y(p)(x0) != 0 and u = p(x0, y) squarefree of full y-degree, so u
    goes to `_factor_squarefree` with no squarefree split of its own.

    Case 1, u has one factor, so it is irreducible.  Suppose p = a*b,
    neither factor constant.  Neither lies in Q[x], so both have positive
    y-degree.  As lc_y(p) = lc_y(a)*lc_y(b), neither leading coefficient
    vanishes at x0, so u = a(x0, y)*b(x0, y) would split.  Hence p is
    irreducible.

    Case 2, u splits.  Shift x0 to 0 and lift the monic factors of u to
    precision k = 2*deg_x + 1 over Q[[x]], truncating by `rem` by x^k.
    The target is p times the inverse of lc_y(p) mod x^k, truncated; its
    y^deg_y coefficient is lc_y(p) times that inverse mod x^k, which is 1,
    so it is monic in y as it stands.  A factor a of `work`, made
    monic in y over Q[[x]], is the product of a subset of the lifted
    factors, because u is squarefree.  Then lc_y(work) * product =
    lc_y(work/a) * a has x-degree at most deg_x(work) <= deg_x(p) < k, so
    truncating at x^k and taking the y-primitive part gives a exactly, and
    `_recombine` proves the rest (Lecerf, Math. Comp. 2006, has sharper
    precision bounds).
    """
    x0, u = _pick_specialization(p)
    # u has content 1 and y alone, so stride 1 lists its coefficients
    u_factors = _factor_squarefree(_pack(u.ints, 1))
    if len(u_factors) == 1:
        return [(p.primitive(), 1, PROVED,
                 f"specialization x = {x0} stays irreducible")]
    shifted = p.shear(0, x0)
    k = 2 * shifted.deg_in("x") + 1
    x_k = MultiPoly(p.vars, {(k, 0): _ONE})
    target = rem(shifted * invmod(shifted.lc_in("y"), x_k, "x"), x_k, "x")
    # sorted as the monic coefficient lists, lowest degree first
    monic = sorted([Fraction(c, fac[-1]) for c in fac] for fac, _ in u_factors)
    pool = [MultiPoly.from_dense(p.vars, "y", f) for f in monic]

    def lift(target, left, right):
        return _hensel_pair_series(target, prod(left), prod(right), k)

    def candidate(work):
        lead = work.lc_in("y")

        def of(factors):
            cand = lead
            for f in factors:
                cand = rem(cand * f, x_k, "x")
            return cand.div_exact(content_in(cand, "y")).primitive()
        return of

    found, rest = _recombine(shifted, _hensel_tree(target, pool, lift), candidate,
                             MultiPoly.div_exact)
    notes = [f"series lift at x = {x0}"] * len(found) + [
        "degree 1 in y and primitive" if rest.deg_in("y") == 1 else
        f"series lift at x = {x0} admits no polynomial recombination"]
    return [(f.shear(0, -x0).primitive(), 1, PROVED, note)
            for f, note in zip(found + [rest], notes)]


def factor_plane_curve(p, hints=None):
    """Factor a bivariate polynomial into primitive irreducible parts.

    After the hint factors for p are divided out, a polynomial in x alone
    takes factor_univariate's path; otherwise the y-content is factored in
    x on that path, and the rest is split once by Yun in y, unless it has
    degree 1 in y and is its own part.  Each part is factored once, with no
    second split: one without x on the univariate path, one of degree 1 in
    y as it stands (its y-content is 1), and any other by
    `_split_primitive_y`; the part's index is the multiplicity of its
    factors.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.vars != ("x", "y"):
        raise ValueError("factor_plane_curve expects a polynomial in x, y")
    work, entries = _extract_hints(p, _hinted(hints, p))
    if work.deg_in("y") < 1:
        if work.deg_in("x") >= 1:
            entries.extend(_univariate_entries(_parts(work, "x"), "x"))
        return _finish(p, entries)
    cont = content_in(work, "y")
    if not cont.is_const():
        entries.extend(_univariate_entries(_parts(cont, "x"), "x"))
        work = work.div_exact(cont)
    for part, mult in _parts(work, "y"):
        if part.deg_in("x") == 0:
            found = _univariate_entries([(part, 1)], "y")
        elif part.deg_in("y") == 1:
            found = [(part, 1, PROVED, "degree 1 in y and primitive")]
        else:
            found = _split_primitive_y(part)
        entries.extend((poly, m * mult, tag, note) for poly, m, tag, note in found)
    return _finish(p, entries)
