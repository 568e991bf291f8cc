"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written without importing the package under
test: plain dict polynomials with Fraction coefficients, naive Gaussian
elimination, and sympy for cross-checks. Slow is fine; independent is the
point. Seven exceptions read package objects. `subst` substitutes into a
package polynomial through its public ring operations, for tests that need a
substitution the package does not offer. `fraction_render` renders a package
polynomial from its `Fraction` coefficients, as `MultiPoly.render` did before
it read the integer parts, `fraction_product` multiplies two package
polynomials term by term on the same coefficients, and `fraction_sort_key`
builds the sort key of a package polynomial from them, as
`MultiPoly.sort_key` did before it read the integer parts. `composite_tangent2`
builds `tangent2` by reduced rational-function operations, as it was built
before it took one fraction per coefficient. `class_differences`
replays the class test that `diagram_check` ran before its exact-division
test, through the package's reduced forms, and `two_projection_cycle`
replays the comparison of two projections that `intersection_cycle` ran
before its substitution check. These three import the package inside
the function, so the script runs without it. Run as a script to print the
frozen fixture values.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

# polynomials in two variables: dict mapping (i, j) exponent pairs to Fraction


def pclean(p):
    return {e: c for e, c in p.items() if c != 0}


def padd(p, q):
    r = dict(p)
    for e, c in q.items():
        r[e] = r.get(e, Fraction(0)) + c
    return pclean(r)


def pmul(p, q):
    r = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            e = (i1 + i2, j1 + j2)
            r[e] = r.get(e, Fraction(0)) + c1 * c2
    return pclean(r)


def pshift(p, a, b):
    """Substitute x -> x + a, y -> y + b (moves the point (a, b) to the origin)."""
    x_pows = {0: {(0, 0): Fraction(1)}}
    y_pows = {0: {(0, 0): Fraction(1)}}
    xa = {(1, 0): Fraction(1), (0, 0): Fraction(a)}
    yb = {(0, 1): Fraction(1), (0, 0): Fraction(b)}
    r = {}
    for (i, j), c in p.items():
        if i not in x_pows:
            for k in range(max(x_pows) + 1, i + 1):
                x_pows[k] = pmul(x_pows[k - 1], xa)
        if j not in y_pows:
            for k in range(max(y_pows) + 1, j + 1):
                y_pows[k] = pmul(y_pows[k - 1], yb)
        r = padd(r, pmul({(0, 0): c}, pmul(x_pows[i], y_pows[j])))
    return r


def peval(p, a, b):
    return sum(c * Fraction(a) ** i * Fraction(b) ** j for (i, j), c in p.items())


def _rank(rows):
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        piv = next(iter(sorted(row)))
        pc = row[piv]
        rank += 1
        reduced = []
        for r in rows:
            if piv in r:
                f = r[piv] / pc
                r = pclean({e: r.get(e, Fraction(0)) - f * row.get(e, Fraction(0))
                            for e in set(r) | set(row)})
            if r:
                reduced.append(r)
        rows = reduced
    return rank


def local_intersection_multiplicity(p, h, point):
    """dim_Q of Q[x,y] localized at `point` modulo (p, h), by truncation.

    Computes dim Q[x,y]/(p, h, m^N) for growing N until it stabilizes; that
    stable value is the intersection multiplicity at the point. Both curves
    must pass through the point (returns 0 otherwise). Diverges if the point
    lies on a common component, so keep inputs coprime.
    """
    a, b = point
    if peval(p, a, b) != 0 or peval(h, a, b) != 0:
        return 0
    p0 = pshift(p, a, b)
    h0 = pshift(h, a, b)
    prev = None
    for n in range(1, 24):
        monos = [(i, j) for i in range(n) for j in range(n) if i + j < n]
        rows = []
        for g in (p0, h0):
            for (mi, mj) in monos:
                prod = pmul({(mi, mj): Fraction(1)}, g)
                rows.append({e: c for e, c in prod.items() if sum(e) < n})
        dim = len(monos) - _rank(rows)
        if dim == prev:
            return dim
        prev = dim
    raise RuntimeError("multiplicity did not stabilize; inputs likely share a component")


# sympy-backed oracles for univariate work on P1

T = sp.Symbol("t")


def order_at(f, a):
    """Order of vanishing of the rational function f at t = a (a rational or sp.oo)."""
    f = sp.cancel(sp.together(f))
    num, den = sp.fraction(f)
    num, den = sp.Poly(num, T), sp.Poly(den, T)
    if a is sp.oo:
        return den.degree() - num.degree()

    def mult(poly):
        m = 0
        while poly.degree() >= 1 and poly.eval(a) == 0:
            poly = sp.Poly(sp.quo(poly.as_expr(), T - a, T), T)
            m += 1
        return m

    return mult(num) - mult(den)


def tame_component(f, g, a):
    """(-1)^(mn) f^n / g^m evaluated at t = a, via a sympy limit."""
    m = order_at(f, a)
    n = order_at(g, a)
    expr = sp.Integer(-1) ** (m * n) * f**n / g**m
    val = sp.limit(sp.cancel(expr), T, a)
    return sp.nsimplify(val)


# substitution into a tamearc polynomial, term by term through its ring operations


def subst(p, assignments):
    """p with each variable replaced by a MultiPoly, all over the same target vars.

    p is a MultiPoly; only its public constructors and ring operations are
    used, so the package is not imported here.
    """
    target = None
    for v in p.vars:
        if v not in assignments:
            raise ValueError(f"substitution missing variable {v!r}")
        if target is None:
            target = assignments[v].vars
        elif assignments[v].vars != target:
            raise ValueError("substitution images have mixed variable sets")
    poly = type(p)
    result = poly.zero(target)
    pow_cache = {v: {0: poly.const(target, 1)} for v in p.vars}

    def power(v, n):
        cache = pow_cache[v]
        while n not in cache:
            k = max(cache)
            cache[k + 1] = cache[k] * assignments[v]
        return cache[n]

    for e, c in p.terms.items():
        term = poly.const(target, c)
        for v, n in zip(p.vars, e):
            if n:
                term = term * power(v, n)
        result = result + term
    return result


# rendering from the Fraction coefficients


def fraction_render(p):
    """The text of a package MultiPoly, built from its Fraction view `terms`.

    Terms in descending graded-lex order; a coefficient of absolute value 1
    is left off a monomial, and the first term carries its sign unspaced.
    """
    if not p.terms:
        return "0"
    parts = []
    for e, c in sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True):
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(p.vars, e) if k)
        a = abs(c)
        if mono:
            body = mono if a == 1 else f"{a}*{mono}"
        else:
            body = str(a)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def fraction_product(p, q):
    """The product of two package polynomials as {exps: Fraction}, from their `terms`."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def fraction_sort_key(p):
    """(degree, (exps, Fraction) pairs in descending graded-lex order), from p.terms."""
    return (p.degree(), tuple(sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]),
                                     reverse=True)))


def fraction_render_ratfunc(r):
    """The text of a package RatFunc: num, or num/den with compound parts in parentheses."""
    num, den = fraction_render(r.num), fraction_render(r.den)
    if den == "1":
        return num

    def atom(s):
        if (s.isidentifier() and len(s) == 1) or s.isdigit():
            return s
        return f"({s})"
    return f"{atom(num)}/{atom(den)}"


# tangent2 by reduced rational-function operations, one term at a time


def composite_tangent2(s):
    """tangent2 of the dual symbol s, sum of coeff*(g1*df - f1*dg)/(f*g).

    Each term is built from differentials, scalings, a difference, a
    product and an inverse of reduced rational functions, each reduced by
    its own gcd.
    """
    from tamearc.poly import RatFunc
    from tamearc.tangent import DiffForm, d_form

    total = DiffForm.zero(s.vars)
    for u, v, coeff in s.terms:
        f, f1 = u.body, u.eps
        g, g1 = v.body, v.eps
        term = (d_form(f).scale(g1) - d_form(g).scale(f1)).scale((f * g) ** -1)
        total = total + term.scale(RatFunc.from_const(s.vars, coeff))
    return total


# the class test of diagram_check by reduced forms, one arc at a time


def class_differences(s):
    """The "class differences" witness of diagram_check on the dual symbol s.

    Per prime P: the class along P of tangent2(s) minus the sum of the
    arc forms on P, each arc form sign * ((g1*dp - datum*dg)/g) / p built
    by reduced RatFunc operations, one per arc as d_eps repeats them.  The
    primes are the arcs' primes and the polar primes of tangent2(s), the
    latter found by boundary_forms, which factors the denominators afresh.
    """
    from tamearc.ksymbols import d_eps
    from tamearc.poly import RatFunc
    from tamearc.tangent import LocalCohClass, boundary_forms, d_form, tangent2

    beta = tangent2(s)
    sums = {}
    for a in d_eps(s):
        p = RatFunc(a.curve.poly)
        g, g1 = a.unit.body, a.unit.eps
        form = (d_form(p).scale(g1) - d_form(g).scale(a.datum)).scale(g ** -1).scale(p ** -1)
        if a.sign == -1:
            form = -form
        sums[a.curve] = sums[a.curve] + form if a.curve in sums else form
    primes = set(sums) | {prime for prime, _ in boundary_forms(beta)}
    lines = []
    for prime in sorted(primes, key=lambda q: q.sort_key()):
        diff = LocalCohClass.of(prime, beta - sums[prime] if prime in sums else beta)
        if not diff.is_zero():
            lines.append(f"{prime.render()}: {diff.render()}")
    return "; ".join(lines) if lines else "all zero"


# the intersection cycle under both projections, along y and along x


def two_projection_cycle(p, h, seed=0):
    """The intersection cycle of V(p) and V(h), computed twice and compared.

    Runs the package's `_intersection_points` projecting along y and, on
    the swapped curves, along x: two subresultant chains, two resultant
    factorizations and two presentations of every point.  Returns the
    cycle when the two agree and raises AssertionError when they do not.
    It is the reference for both paths of `intersection_cycle`: the
    projection it replays, and the substitution into a graph
    c*y - f(x) or c*x - f(y), which never builds a resultant.
    """
    from tamearc.geometry import _intersection_points

    first = _intersection_points(p, h, seed, swap=False)
    second = _intersection_points(p, h, seed, swap=True)
    if first != second:
        raise AssertionError(
            f"projections disagree for V({p.render()}) . V({h.render()})")
    return first


def main():
    x, y = sp.symbols("x y")
    X = {(1, 0): Fraction(1)}
    Y = {(0, 1): Fraction(1)}
    Y_X2 = {(0, 1): Fraction(1), (2, 0): Fraction(-1)}
    CIRC = {(2, 0): Fraction(1), (0, 2): Fraction(1), (0, 0): Fraction(-2)}
    X_Y = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    XY2SUM = {(1, 0): Fraction(1), (0, 1): Fraction(1), (0, 0): Fraction(-2)}

    print("intersection multiplicities (brute-force local dimension):")
    print("  I((0,0); x, y) =", local_intersection_multiplicity(X, Y, (0, 0)))
    print("  I((0,0); y - x^2, y) =", local_intersection_multiplicity(Y_X2, Y, (0, 0)))
    print("  I((0,0); y - x^2, x - y) =", local_intersection_multiplicity(Y_X2, X_Y, (0, 0)))
    print("  I((1,1); x^2 + y^2 - 2, x - y) =", local_intersection_multiplicity(CIRC, X_Y, (1, 1)))
    print("  I((1,1); x^2 + y^2 - 2, x + y - 2) =", local_intersection_multiplicity(CIRC, XY2SUM, (1, 1)))

    print("tame components on P1 via sympy limits:")
    for pt in (0, 2, sp.oo):
        print(f"  {{t, t-2}} at {pt}:", tame_component(T, T - 2, pt))
    for pt in (0, 1, sp.oo):
        print(f"  {{t, 1-t}} at {pt}:", tame_component(T, 1 - T, pt))

    print("resultants via sympy:")
    print("  Res_y(x, y) =", sp.resultant(sp.Poly(x, y, domain=sp.QQ[x].get_field()),
                                          sp.Poly(y, y, domain=sp.QQ[x].get_field())))
    print("  Res_y(y - x^2, y) =", sp.resultant(y - x**2, y, y))
    print("  Res_t(t^2-2, t+3) =", sp.resultant(T**2 - 2, T + 3, T))


if __name__ == "__main__":
    main()
