"""Multivariate polynomials, rational functions, and dual numbers over Q.

Exact arithmetic only.  The term order is graded lexicographic with
x > y > t.  A MultiPoly is stored as content times an integer polynomial:
`cont` is its signed rational content (1 for zero) and `ints` maps exponent
tuples to integers whose gcd is 1, with a positive leading coefficient, so
equality is structural; that pair is a polynomial's only state.  `terms`,
the Fraction coefficient of each monomial, is built from it on each read,
for callers outside the kernel.

Kernel results come from one trusted constructor, `_from_primitive`, and
meet its contract without a further gcd: a product is the product of the
contents times the integer product, primitive by Gauss's lemma; an exact
quotient is primitive for the same reason; negation, scalar products,
`primitive()`, a product with a constant operand and an exact quotient by
a constant touch only the contents and reuse the other integer part, and
a nonzero constant over a non-constant is refused before any packing;
sums, derivatives, dense slices and the integral substitutions `shear`
and `swap_xy` take one content gcd (`_normalize`).  The public
constructor validates its input and normalizes it the same way.  A
GCDHEU candidate of 1 proves the operands coprime, and the gcd returns
them as their own cofactors, with no division and no unpacking.

Division with remainder by a polynomial in one variable (`divmod_in`,
`rem`) and the one extended Euclid over Q (`invmod`) also run on the
integer parts; residue fields Q[x]/(u), polynomials over them and
truncated power series are MultiPoly reduced by `rem`, and so is a
specialization p(x0, y), the remainder of p by x - x0.  Rational functions
are kept in a unique normal form (reduced, denominator with content 1),
and gcds run on the integer parts.  Sums, differences, products and
quotients reach that form by Henrici's rule, from gcds of the operands'
numerators and denominators, never of the unreduced result, and with none
when a denominator is 1; the public constructor `RatFunc(num, den)` and
`derivative` take the full gcd of num and den.  One remainder sequence,
the subresultant chain (`subresultants`), serves resultants, the gcd
fallback and fibre gcds.  Below MultiPoly sits one dense kernel, int lists
lowest degree first: exact division and GCDHEU over Z, and the F_q[t]
arithmetic of the modular factorization; factor keeps none of its own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd as _int_gcd, isqrt, lcm

from .errors import DivisionByZero, InexactDivision, NotAUnit
from .value import Value

VARS_T = ("t",)
VARS_XY = ("x", "y")

_ZERO = Fraction(0)
_ONE = Fraction(1)

_new = object.__new__


def _glex(exps):
    return (sum(exps), exps)


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _checked_vars(vars):
    vars = tuple(vars)
    if vars not in (VARS_T, VARS_XY):
        raise ValueError(f"unsupported variable set {vars!r}")
    return vars


def _primitive_parts(ints):
    """(g, ints / g) for a nonzero {exps: int}, g its signed content (lc(ints / g) > 0)."""
    g = _int_gcd(*ints.values())
    if ints[max(ints, key=_glex)] < 0:
        g = -g
    if g != 1:
        ints = {e: v // g for e, v in ints.items()}
    return g, ints


class MultiPoly(Value):
    """Sparse polynomial over Q in variables ('t',) or ('x', 'y')."""

    __slots__ = ("vars", "cont", "ints", "_hash")

    def __init__(self, vars, terms):
        vars = _checked_vars(vars)
        clean = {}
        width = len(vars)
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != width or any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for vars {vars!r}")
            c = _as_fraction(c)
            if c:
                clean[exps] = clean[exps] + c if exps in clean else c
        den = lcm(*(c.denominator for c in clean.values()))
        p = _normalize(vars, Fraction(1, den),
                       {e: c.numerator * (den // c.denominator) for e, c in clean.items()})
        _set_vars(self, vars)
        _set_cont(self, p.cont)
        _set_ints(self, p.ints)
        _set_hash(self, None)

    @property
    def terms(self):
        """{exps: Fraction}, the coefficients as rationals, built on each read."""
        c = self.cont
        return {e: c * v for e, v in self.ints.items()}

    # construction helpers

    @classmethod
    def zero(cls, vars):
        return _from_primitive(_checked_vars(vars), _ONE, {})

    @classmethod
    def const(cls, vars, c):
        vars = _checked_vars(vars)
        c = _as_fraction(c)
        if not c:
            return _from_primitive(vars, _ONE, {})
        return _from_primitive(vars, c, {(0,) * len(vars): 1})

    @classmethod
    def variable(cls, name):
        if name == "t":
            return _from_primitive(VARS_T, _ONE, {(1,): 1})
        if name in VARS_XY:
            exps = tuple(1 if v == name else 0 for v in VARS_XY)
            return _from_primitive(VARS_XY, _ONE, {exps: 1})
        raise ValueError(f"unknown variable {name!r}")

    # predicates and views

    def is_zero(self):
        return not self.ints

    def is_const(self):
        ints = self.ints
        return not ints or (len(ints) == 1 and not any(next(iter(ints))))

    def const_value(self):
        if not self.ints:
            return _ZERO
        [exps] = self.ints
        if any(exps):
            raise ValueError("not a constant")
        return self.cont

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.ints:
            return -1
        return max(map(sum, self.ints))

    def deg_in(self, var):
        if not self.ints:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.ints)

    def lc(self):
        """The coefficient of the graded-lex leading monomial."""
        if not self.ints:
            raise ValueError("zero polynomial has no leading term")
        return self.cont * self.ints[max(self.ints, key=_glex)]

    def lc_in(self, var):
        """The leading coefficient in var, a polynomial in the other variables."""
        i, d = self.vars.index(var), self.deg_in(var)
        top = {e[:i] + (0,) + e[i + 1:]: v for e, v in self.ints.items() if e[i] == d}
        return _normalize(self.vars, self.cont, top)

    def sort_key(self):
        """(degree, the (exps, coefficient) pairs in descending graded-lex order)."""
        ints, c = self.ints, self.cont
        # an integral content multiplies as an int: equal keys, no Fraction products
        if c.denominator == 1:
            c = c.numerator
        order = sorted(ints, key=_glex, reverse=True)
        return (self.degree(), tuple((e, c * ints[e]) for e in order))

    # ring operations

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mixed variable sets")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        if not other.ints:
            return self
        if not self.ints:
            return other
        # ca*A + cb*B = k / lcm(da, db) * (ma*A + mb*B), with ma, mb coprime integers
        ca, cb = self.cont, other.cont
        da, db = ca.denominator, cb.denominator
        g = _int_gcd(da, db)
        ma, mb = ca.numerator * (db // g), cb.numerator * (da // g)
        k = _int_gcd(ma, mb)
        ma, mb = ma // k, mb // k
        out = {e: ma * v for e, v in self.ints.items()}
        get = out.get
        for e, v in other.ints.items():
            out[e] = get(e, 0) + mb * v
        return _normalize(self.vars, Fraction(k, da // g * db), out)

    __radd__ = __add__

    def __neg__(self):
        if not self.ints:
            return self
        return _from_primitive(self.vars, -self.cont, self.ints)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return MultiPoly.zero(self.vars)
            return _from_primitive(self.vars, self.cont * other, self.ints)
        self._check(other)
        A, B = self.ints, other.ints
        if not A or not B:
            return MultiPoly.zero(self.vars)
        ca, cb = self.cont, other.cont
        cont = cb if ca == 1 else ca if cb == 1 else ca * cb
        # a constant's integer part is {(0, ...): 1}: only the contents multiply
        if len(B) == 1 and not any(next(iter(B))):
            return _from_primitive(self.vars, cont, A)
        if len(A) == 1 and not any(next(iter(A))):
            return _from_primitive(self.vars, cont, B)
        prod = {}
        get = prod.get
        if len(self.vars) == 1:
            for (i,), a in A.items():
                for (j,), b in B.items():
                    e = (i + j,)
                    prod[e] = get(e, 0) + a * b
        else:
            for (i1, j1), a in A.items():
                for (i2, j2), b in B.items():
                    e = (i1 + i2, j1 + j2)
                    prod[e] = get(e, 0) + a * b
        # primitive with lc > 0 by Gauss's lemma; only cancelled terms go
        return _from_primitive(self.vars, cont, {e: v for e, v in prod.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(self.vars, 1) if result is None else result

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.cont == other.cont and self.ints == other.ints)

    def __hash__(self):
        if self._hash is None:
            _set_hash(self, hash((self.vars, self.cont, frozenset(self.ints.items()))))
        return self._hash

    def __repr__(self):
        return f"MultiPoly({self.render()})"

    # division and derivatives

    def div_exact(self, divisor):
        """Return self / divisor when the division is exact, else None."""
        self._check(divisor)
        if divisor.is_zero():
            return None
        if self.is_zero():
            return self
        # a constant divides by its content alone, and a nonzero constant is
        # a multiple of no non-constant polynomial
        if divisor.is_const():
            return _from_primitive(self.vars, self.cont / divisor.cont, self.ints)
        if self.is_const():
            return None
        q = _div_ints(self.ints, divisor.ints, len(self.vars))
        if q is None:
            return None
        # primitive with lc > 0, as the divisor and the dividend are
        return _from_primitive(self.vars, self.cont / divisor.cont, q)

    def divides(self, other):
        return other.div_exact(self) is not None

    def divide_out(self, divisor):
        """(q, m) with self = q * divisor^m and divisor not dividing q."""
        if self.is_zero() or divisor.is_const():
            raise ValueError("divide_out needs a nonzero polynomial and a non-constant divisor")
        work, m = self, 0
        while True:
            q = work.div_exact(divisor)
            if q is None:
                return work, m
            work, m = q, m + 1

    def derivative(self, var):
        i = self.vars.index(var)
        out = {}
        for e, v in self.ints.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = v * k
        return _normalize(self.vars, self.cont, out)

    def shear(self, a, b=0):
        """p(x + a*y + b, y) for integers a, b, on a polynomial in x, y.

        The substitution has an integral inverse, so the integer part stays
        primitive and only the sign of its leading term can change.
        """
        if self.vars != VARS_XY:
            raise ValueError("shear needs a polynomial in x, y")
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError("shear takes integer offsets")
        if not (a or b):
            return self
        # (x + a*y + b)^n = sum C(n, k) C(n - k, l) a^l b^(n-k-l) x^k y^l,
        # without the terms that a zero a or b cancels
        powers = {}
        for n in {e[0] for e in self.ints}:
            powers[n] = [((k, l), comb(n, k) * comb(n - k, l) * a ** l * b ** (n - k - l))
                         for k in range(n + 1) for l in range(n - k + 1)
                         if (a or not l) and (b or k + l == n)]
        out = {}
        get = out.get
        for (n, j), v in self.ints.items():
            for (k, l), c in powers[n]:
                e = (k, j + l)
                out[e] = get(e, 0) + v * c
        return _normalize(self.vars, self.cont, out)

    def swap_xy(self):
        """p(y, x), on a polynomial in x, y: a swap of exponents."""
        if self.vars != VARS_XY:
            raise ValueError("swap_xy needs a polynomial in x, y")
        return _normalize(self.vars, self.cont, {(j, i): v for (i, j), v in self.ints.items()})

    # normal forms

    def primitive(self):
        if self.cont == 1:
            return self
        return _from_primitive(self.vars, _ONE, self.ints)

    # univariate views

    def dense_in(self, var):
        """Dense coefficient list (lowest first); coefficients are MultiPoly in the rest."""
        i = self.vars.index(var)
        d = self.deg_in(var)
        if d < 0:
            return []
        rows = [{} for _ in range(d + 1)]
        for e, v in self.ints.items():
            rows[e[i]][e[:i] + (0,) + e[i + 1:]] = v
        return [_normalize(self.vars, self.cont, row) for row in rows]

    @classmethod
    def from_dense(cls, vars, var, coeffs):
        """The polynomial in var alone with int or Fraction coefficients, lowest first."""
        vars = tuple(vars)
        i = vars.index(var)
        return cls(vars, {tuple(n if j == i else 0 for j in range(len(vars))): c
                          for n, c in enumerate(coeffs)})

    # rendering (canonical, parseable by tamearc.expr)

    def render(self):
        ints = self.ints
        if not ints:
            return "0"
        cont = self.cont
        whole, num = cont.denominator == 1, cont.numerator
        parts = []
        for e in sorted(ints, key=_glex, reverse=True):
            c = num * ints[e] if whole else cont * ints[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
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


_set_vars = MultiPoly.vars.__set__
_set_cont = MultiPoly.cont.__set__
_set_ints = MultiPoly.ints.__set__
_set_hash = MultiPoly._hash.__set__


def _from_primitive(vars, cont, ints):
    """The trusted constructor: the polynomial cont * ints, checking nothing.

    ints is an integer-primitive {exps: int} with no zero value and a
    positive graded-lex leading coefficient, and cont a nonzero Fraction;
    the zero polynomial is (1, {}).  Only this module calls it, on results
    that meet the contract by construction (see the module docstring).
    """
    p = _new(MultiPoly)
    _set_vars(p, vars)
    _set_cont(p, cont)
    _set_ints(p, ints)
    _set_hash(p, None)
    return p


def _normalize(vars, scale, ints):
    """The polynomial scale * ints for an {exps: int} that may hold zeros."""
    ints = {e: v for e, v in ints.items() if v}
    if not ints:
        return _from_primitive(vars, _ONE, {})
    g, ints = _primitive_parts(ints)
    return _from_primitive(vars, scale * g, ints)


# division with remainder by a polynomial in one variable, and inverses

def divmod_in(f, g, var):
    """(q, r) with f = q*g + r and deg_var r < deg_var g, for a nonzero g in var alone.

    The other variable may occur in f.  Pseudo-division on the integer
    parts (Cohen, GTM 138, Algorithm 3.1.2): the rows of f by degree in
    var are reduced from the top, each step scaling the lower rows and the
    quotient by the integer lc of g's integer part, so that lc^steps times
    f's integer part is Q*G + R over Z, G being g's integer part; one
    content then normalizes each of q and r.
    """
    f._check(g)
    if g.is_zero():
        raise DivisionByZero(f"division of {f.render()} by zero")
    i = f.vars.index(var)
    if any(e[j] for e in g.ints for j in range(len(e)) if j != i):
        raise ValueError(f"divisor {g.render()} involves a variable other than {var}")
    n, d = g.deg_in(var), f.deg_in(var)
    if d < n:
        return MultiPoly.zero(f.vars), f
    low = [(e[i], v) for e, v in g.ints.items() if e[i] < n]
    lc = g.ints[tuple(n if j == i else 0 for j in range(len(f.vars)))]
    rows = [{} for _ in range(d + 1)]
    for e, v in f.ints.items():
        rows[e[i]][e] = v
    quot = [{} for _ in range(d - n + 1)]
    steps = 0
    for k in range(d, n - 1, -1):
        top = {e: v for e, v in rows[k].items() if v}
        if not top:
            continue
        if lc != 1:
            rows[:k] = [{e: v * lc for e, v in row.items()} for row in rows[:k]]
            quot[k - n + 1:] = [{e: v * lc for e, v in row.items()} for row in quot[k - n + 1:]]
        steps += 1
        shift = k - n
        quot[shift] = {e[:i] + (shift,) + e[i + 1:]: v for e, v in top.items()}
        for j, c in low:
            row = rows[shift + j]
            get = row.get
            for e, v in top.items():
                e = e[:i] + (shift + j,) + e[i + 1:]
                row[e] = get(e, 0) - v * c
    scale = f.cont / lc ** steps
    q = _normalize(f.vars, scale / g.cont, {e: v for row in quot for e, v in row.items()})
    r = _normalize(f.vars, scale, {e: v for row in rows[:n] for e, v in row.items()})
    return q, r


def rem(f, g, var):
    """f mod g for a nonzero g in var alone (see divmod_in)."""
    return divmod_in(f, g, var)[1]


def invmod(a, u, var):
    """s with s*a = 1 mod u and deg_var s < deg_var u, for a, u in var alone.

    The one extended Euclid over Q; a remainder that is a nonzero constant
    c needs none, its inverse is 1/c.  DivisionByZero when gcd(a, u) is not
    constant.
    """
    r0, r1 = u, rem(a, u, var)
    if r1.is_const() and not r1.is_zero():
        return MultiPoly.const(u.vars, 1 / r1.cont)
    t0, t1 = MultiPoly.zero(u.vars), MultiPoly.const(u.vars, 1)
    while not r1.is_zero():
        q, r = divmod_in(r0, r1, var)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r0.deg_in(var) > 0:
        raise DivisionByZero("non-invertible element in the residue field")
    return t0 * (1 / r0.cont)


# dense kernel: polynomials as int lists, lowest degree first, over Z and
# mod q; exact division, gcds by the heuristic GCDHEU with a
# subresultant-chain fallback, and the F_q[t] arithmetic of the modular
# factorization
#
# Integer polynomials are packed into dense lists: the coefficient of
# x^i y^j sits at i + j*stride, so exact division of bivariate polynomials
# is division in Z[z].

_HEU_POINTS = 6  # evaluation points tried before the subresultant fallback


def utrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def udeg(f):
    return len(f) - 1


def _center(c, m):
    """The residue of c mod m in (-m/2, m/2]."""
    c %= m
    return c - m if 2 * c > m else c


def _iprimitive(f, lead=-1):
    """The primitive part of a nonzero dense int list with f[lead] > 0 (lc by default)."""
    g = _int_gcd(*f)
    return [v // (g if f[lead] > 0 else -g) for v in f]


def _pack(ints, stride):
    dense = {e[0] + e[-1] * stride if len(e) == 2 else e[0]: v for e, v in ints.items()}
    out = [0] * (max(dense) + 1)
    for k, v in dense.items():
        out[k] = v
    return out


def _unpack(dense, stride, width):
    if width == 1:
        return {(k,): v for k, v in enumerate(dense) if v}
    return {(k % stride, k // stride): v for k, v in enumerate(dense) if v}


def _idiv_exact(f, g):
    """f / g in Z[z] for dense int lists with g[-1] != 0, or None if inexact."""
    m = len(g) - 1
    if len(f) <= m:
        return None if any(f) else []
    r = list(f)
    lc = g[-1]
    low = [(i, c) for i, c in enumerate(g[:-1]) if c]
    q = [0] * (len(f) - m)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + m]
        if c:
            qc, rem = divmod(c, lc)
            if rem:
                return None
            q[k] = qc
            for i, gc in low:
                r[k + i] -= qc * gc
    if any(r[:m]):
        return None
    return q


def _ihorner(f, x0):
    acc = 0
    for c in reversed(f):
        acc = acc * x0 + c
    return acc


def _sym_digits(n, base):
    """Digits of n in base `base`, each in (-base/2, base/2], lowest first.

    The base must be at least 3: base 2 has no digit -1, so a negative n
    would keep its value forever.
    """
    if base < 3:
        raise ValueError(f"balanced digits need a base of at least 3, not {base}")
    out = []
    while n:
        d = _center(n, base)
        out.append(d)
        n = (n - d) // base
    return out


# arithmetic in F_q[t]; q may be a prime power for the Hensel lift's
# products and differences, and every quotient needs a unit lc mod q

def _zred(f, q):
    return utrim([c % q for c in f])


def _zsub(f, g, q):
    return _zred([a - b for a, b in zip_longest(f, g, fillvalue=0)], q)


def _zmul(f, g, q):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _zred(out, q)


def _zdivmod(f, g, q):
    f = list(f)
    inv = pow(g[-1], -1, q)
    quot = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        c = (f[-1] * inv) % q
        shift = len(f) - len(g)
        quot[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % q
        f = utrim(f)
    return utrim(quot), f


def _zgcd(f, g, q):
    f, g = _zred(f, q), _zred(g, q)
    while g:
        f, g = g, _zdivmod(f, g, q)[1]
    return _zmonic(f, q) if f else []


def _zmonic(f, q):
    inv = pow(f[-1], -1, q)
    return [(c * inv) % q for c in f]


def _zpowmod(base, e, mod, q):
    result = [1]
    base = _zdivmod(base, mod, q)[1]
    while e:
        if e & 1:
            result = _zdivmod(_zmul(result, base, q), mod, q)[1]
        base = _zdivmod(_zmul(base, base, q), mod, q)[1]
        e >>= 1
    return result


def _zderiv(f, q):
    return _zred([i * f[i] for i in range(1, len(f))], q)


def _zinv(a, b, q):
    """s with s·a ≡ 1 mod b over F_q, for coprime a, b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    while r1:
        qt, r = _zdivmod(r0, r1, q)
        r0, r1 = r1, r
        s0, s1 = s1, _zsub(s0, _zmul(qt, s1, q), q)
    inv = pow(r0[-1], -1, q)
    return _zred([c * inv for c in s0], q)


def _next_point(xi):
    return xi * 73794 * isqrt(isqrt(xi)) // 27011


def _first_point(f, g):
    """A start point at least 2 * min(|f|, |g|) + 2 (max-norms over Z)."""
    return 2 * min(max(map(abs, f)), max(map(abs, g))) + 29


def _heu_gcd_z(f, g):
    """(h, f/h, g/h) with h a gcd of f, g in Z[x] (contents included), or None.

    f, g are nonzero trimmed dense int lists.  At any point xi at least
    2 * min(|f|, |g|) + 2, the primitive part of the balanced xi-adic
    expansion of gcd(f(xi), g(xi)) is the gcd as soon as it divides f and
    g (Char, Geddes and Gonnet, JSC 1989), so only the division is checked.
    The candidate 1 divides everything: then f and g are coprime after
    their contents, and they are their own cofactors with no division.
    """
    c = _int_gcd(_int_gcd(*f), _int_gcd(*g))
    if c > 1:
        f = [v // c for v in f]
        g = [v // c for v in g]
    if len(f) == 1 or len(g) == 1:
        return [c], f, g
    xi = _first_point(f, g)
    for _ in range(_HEU_POINTS):
        fv, gv = _ihorner(f, xi), _ihorner(g, xi)
        if fv and gv:
            h = _iprimitive(_sym_digits(_int_gcd(fv, gv), xi))
            if h == [1]:
                return [c], f, g
            qf = _idiv_exact(f, h)
            if qf is not None:
                qg = _idiv_exact(g, h)
                if qg is not None:
                    return [c * v for v in h], qf, qg
        xi = _next_point(xi)
    return None


def _eval_y(a, stride, xi):
    """a(x, xi) as a trimmed dense list in x; a is packed with `stride`."""
    out = [0] * stride
    for j in range((len(a) - 1) // stride, -1, -1):
        row = a[j * stride:(j + 1) * stride]
        out = [u * xi + v for u, v in zip_longest(out, row, fillvalue=0)]
    return utrim(out)


def _lift_y(gamma, xi, stride):
    """Packed primitive h, lc > 0, from the balanced xi-adic digits in y of gamma."""
    h = []
    for i, c in enumerate(gamma):
        for j, d in enumerate(_sym_digits(c, xi)):
            k = i + j * stride
            h.extend([0] * (k + 1 - len(h)))
            h[k] = d
    # the graded-lex leading term: highest total degree, then highest x-degree
    _, _, lead = max((k % stride + k // stride, k % stride, k) for k, v in enumerate(h) if v)
    return _iprimitive(h, lead)


def _idiv_packed(f, h, stride):
    """f / h for packed bivariate f, h, or None.

    Packing is injective on polynomials of x-degree below `stride`, so a
    quotient from Z[z] counts only if it keeps the product below it.
    """
    q = _idiv_exact(f, h)
    if q is None:
        return None
    qx = max(k % stride for k, v in enumerate(q) if v)
    hx = max(k % stride for k, v in enumerate(h) if v)
    return q if qx + hx < stride else None


def _heu_gcd_xy(a, b, stride):
    """(h, a/h, b/h) for nonzero packed a, b in Z[x, y], or None.

    GCDHEU with y evaluated first: the same bound on xi makes the primitive
    part of the coefficientwise xi-adic expansion of the gcd in Z[x] of
    a(x, xi), b(x, xi) the gcd of a and b once it divides both.  An inner
    gcd of exactly 1 lifts to 1, which divides both, so a and b are coprime
    and their own cofactors.  A constant inner gcd c > 1 is no such proof:
    its xi-adic digits lift to a polynomial in y, as for x*(y + 1) and
    (x + 1)*(y + 1), whose inner gcd is xi + 1 and whose gcd is y + 1.
    """
    xi = _first_point(a, b)
    for _ in range(_HEU_POINTS):
        av, bv = _eval_y(a, stride, xi), _eval_y(b, stride, xi)
        inner = av and bv and _heu_gcd_z(av, bv)
        if inner:
            if inner[0] == [1]:
                return [1], a, b
            h = _lift_y(inner[0], xi, stride)
            qa = _idiv_packed(a, h, stride)
            if qa is not None:
                qb = _idiv_packed(b, h, stride)
                if qb is not None:
                    return h, qa, qb
        xi = _next_point(xi)
    return None


def _div_ints(num, den, width):
    """num / den over Z for {exps: int} polynomials, den primitive; or None.

    By Gauss's lemma a primitive divisor leaves an integer quotient.
    """
    stride = max(e[0] for e in (*num, *den)) + 1
    q = _idiv_packed(_pack(num, stride), _pack(den, stride), stride)
    return None if q is None else _unpack(q, stride, width)


def _heu_gcd(A, B, width):
    """GCDHEU on integer-primitive {exps: int} polynomials; dicts or None.

    A gcd of 1 comes back as ({}, A, B): coprime operands are their own
    cofactors, and nothing is unpacked.
    """
    stride = max(e[0] for e in (*A, *B)) + 1
    a, b = _pack(A, stride), _pack(B, stride)
    if width == 1 or (len(a) <= stride and len(b) <= stride):
        out = _heu_gcd_z(a, b)
    else:
        out = _heu_gcd_xy(a, b, stride)
    if out and out[0] == [1]:
        return {}, A, B
    return out and tuple(_unpack(p, stride, width) for p in out)


def content_in(p, var):
    """Content of p in var: the gcd of its var-coefficients, primitive."""
    cont = MultiPoly.zero(p.vars)
    for c in p.dense_in(var):
        cont = poly_gcd(cont, c)
        if cont.is_const() and not cont.is_zero():
            break
    return cont


def _gcd_prs(a, b):
    """Gcd of nonzero a, b by the subresultant chain in the last variable either involves.

    This is the fallback of _gcd_cofactors.  The contents in that variable
    are constants or polynomials in the other one; poly_gcd joins them.  When
    the chain ends in S_0 = 0, the term before it, made primitive, is the gcd.
    """
    var = next((v for v in reversed(a.vars) if a.deg_in(v) > 0 or b.deg_in(v) > 0),
               a.vars[-1])
    ca, cb = content_in(a, var), content_in(b, var)
    f, g = a.div_exact(ca), b.div_exact(cb)
    if f.deg_in(var) < g.deg_in(var):
        f, g = g, f
    gcd = MultiPoly.const(a.vars, 1)
    if g.deg_in(var) > 0:
        chain = subresultants(f, g, var)
        if chain[-1][0].is_zero():
            last = chain[-2][0]
            gcd = last.div_exact(content_in(last, var))
    return (gcd.primitive() * poly_gcd(ca, cb)).primitive()


def _gcd_cofactors(a, b):
    """(g, a/g, b/g) with g = gcd(a, b) primitive, lc > 0; all zero for (0, 0).

    For nonconstant a, b the cofactors keep their contents (Gauss's lemma).
    """
    a._check(b)
    if a.is_zero() or b.is_zero():
        zero = MultiPoly.zero(a.vars)
        if a.is_zero() and b.is_zero():
            return zero, zero, zero
        p = a if b.is_zero() else b
        c = MultiPoly.const(a.vars, p.cont)
        return (p.primitive(), zero, c) if a.is_zero() else (p.primitive(), c, zero)
    if a.is_const() or b.is_const():
        return MultiPoly.const(a.vars, 1), a, b
    out = _heu_gcd(a.ints, b.ints, len(a.vars))
    if out is None:
        g = _gcd_prs(a, b)
        return g, a.div_exact(g), b.div_exact(g)
    h, qa, qb = out
    if not h:
        return MultiPoly.const(a.vars, 1), a, b
    vars = a.vars
    return (_from_primitive(vars, _ONE, h), _from_primitive(vars, a.cont, qa),
            _from_primitive(vars, b.cont, qb))


def poly_gcd(a, b):
    """A gcd, primitive with positive leading coefficient; gcd(0, 0) = 0."""
    return _gcd_cofactors(a, b)[0]


# the subresultant chain over MultiPoly, the one remainder sequence

def _prem(f, g, var):
    """Pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g in var, for deg f >= deg g."""
    df, dg = f.deg_in(var), g.deg_in(var)
    glc = g.lc_in(var)
    vx = MultiPoly.variable(var)
    r, e = f, df - dg + 1
    while not r.is_zero() and r.deg_in(var) >= dg:
        dr = r.deg_in(var)
        rlc = r.lc_in(var)
        r = r * glc - g * rlc * vx ** (dr - dg)
        e -= 1
    return r * glc ** e if e else r


def subresultants(p, q, var):
    """[(S_j, s_j)], highest j first: the subresultant chain in var of p, q's primitive parts.

    For nonzero p, q with deg_var p >= max(deg_var q, 1).  Exactly the j <
    deg_var p with s_j = lc_var(S_j) != 0 are listed, each S_j up to sign;
    an equal-degree pair lists (q, 1) first.  The last term is (S_0, S_0),
    the resultant, sign included: zero exactly when the parts share a
    factor in var, and the term before it is then their gcd times a factor
    free of var.  Collins's PRS (Cohen, GTM 138, Algorithm 3.3.7) divides
    exactly over the integer polynomials in the other variable; after a
    step h = s_(deg a), and a step of delta >= 2 leaves a defective a, whose
    S_(deg a) is h * a / lc(a).  The chain ends at its first remainder of
    degree 0 in var, which is q when q has degree 0.
    """
    a, b = p.primitive(), q.primitive()
    g = h = MultiPoly.const(p.vars, 1)
    sign, chain = 1, []
    while b.deg_in(var) > 0:
        da, db = a.deg_in(var), b.deg_in(var)
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        a, b = b, _exact_quotient(_prem(a, b, var), g * h ** delta)
        g = a.lc_in(var)
        if delta:
            h = _exact_quotient(g ** delta, h ** (delta - 1))
        chain.append((_exact_quotient(h * a, g) if delta > 1 else a, h))
    # b is constant in var, zero when p and q share a factor
    da = a.deg_in(var)
    res = _exact_quotient(b ** da, h ** (da - 1)) * sign
    return chain + [(res, res)]


def resultant(p, q, var):
    """Sylvester resultant eliminating var; zero iff p, q share a var-positive factor.

    S_0 of the subresultant chain, scaled by the contents of p and q.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    p._check(q)
    dp, dq = p.deg_in(var), q.deg_in(var)
    if dp <= 0 and dq <= 0:
        return MultiPoly.const(p.vars, 1)
    # Res(c*P, d*Q) = c^dq * d^dp * Res(P, Q) for the rational contents c, d
    scale = p.cont ** dq * q.cont ** dp
    if dp < dq:
        p, q = q, p
        if dp % 2 and dq % 2:
            scale = -scale
    return subresultants(p, q, var)[-1][0] * scale


def _exact_quotient(num, den):
    """num / den for a division known to be exact.

    The subresultant theorem makes the chain's divisions exact, and the
    plane lift's corrections are exact by construction.
    """
    quot = num.div_exact(den)
    if quot is None:
        raise InexactDivision(f"{den.render()} does not divide {num.render()}")
    return quot


class RatFunc(Value):
    """Reduced fraction of MultiPoly; denominator integer-primitive, lc > 0."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        vars = num.vars
        if den is None:
            den = MultiPoly.const(vars, 1)
        num._check(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            den = MultiPoly.const(vars, 1)
        elif not (num.is_const() or den.is_const()):
            # the cofactors keep the contents of num and den
            _, num, den = _gcd_cofactors(num, den)
        c = den.cont
        if c != 1:
            num = _from_primitive(vars, num.cont / c, num.ints)
            den = _from_primitive(vars, _ONE, den.ints)
        _set_num(self, num)
        _set_den(self, den)
        _set_rhash(self, None)

    @classmethod
    def from_const(cls, vars, c):
        return cls(MultiPoly.const(vars, c))

    @classmethod
    def variable(cls, name):
        return cls(MultiPoly.variable(name))

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        return self.num.const_value() / self.den.const_value()

    def __add__(self, other):
        """a/b + c/d by Henrici's rule: gcds of the operands, never of the sum.

        Both operands are reduced, gcd(a, b) = gcd(c, d) = 1.  With g =
        gcd(b, d), b = g*b1 and d = g*d1, the sum is t/(g*b1*d1) for t =
        a*d1 + c*b1.  A prime factor of b1 could divide t only by dividing
        a*d1, but it divides neither a nor d1 (coprime to b1); the same holds
        for d1.  So only g can share a factor with t, and with h = gcd(t, g)
        the sum is (t/h)/(b1*d1*(g/h)).  Nothing is shared when b or d is 1,
        or g is.  Each denominator factor is primitive with lc > 0, and so is
        their product (Gauss's lemma; graded lex is a monomial order), so the
        result is in normal form (Henrici, J. ACM 3, 1956; Knuth, TAOCP 2,
        4.5.1).
        """
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_const():
            return _reduced(a * d + c, d)
        if d.is_const():
            return _reduced(a + c * b, b)
        g, b1, d1 = _gcd_cofactors(b, d)
        t = a * d1 + c * b1
        if t.is_zero():
            return _reduced(t, MultiPoly.const(t.vars, 1))
        if g.is_const():
            return _reduced(t, b * d1)
        _, t1, g1 = _gcd_cofactors(t, g)
        return _reduced(t1, b1 * d1 * g1)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """a/b * c/d by Henrici's rule: (a1*c1)/(b1*d1) from the cross gcds.

        a1, d1 are a, d without gcd(a, d) and c1, b1 are c, b without
        gcd(c, b).  A prime factor of b1 divides neither a (gcd(a, b) = 1)
        nor c1, and one of d1 divides neither c nor a1, so the product is
        reduced; b1*d1 is primitive with lc > 0 by Gauss's lemma.
        """
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero():
            return self
        if c.is_zero():
            return other
        _, a1, d1 = _gcd_cofactors(a, d)
        _, c1, b1 = _gcd_cofactors(c, b)
        return _reduced(a1 * c1, b1 * d1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("rational function powers take integers")
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            num, den = self.den ** -n, self.num ** -n
            return _reduced(num * (1 / den.cont), den.primitive())
        return _reduced(self.num ** n, self.den ** n)

    def inverse(self):
        return self ** -1

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.from_const(self.vars, other)
        raise TypeError(f"cannot combine RatFunc with {type(other).__name__}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = self._coerce(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            _set_rhash(self, hash((self.num, self.den)))
        return self._hash

    def __repr__(self):
        return f"RatFunc({self.render()})"

    def derivative(self, var):
        # the full gcd: d/dx of (x*y + 1)/y is y/y, and y has no x to shortcut on
        n = self.num.derivative(var) * self.den - self.num * self.den.derivative(var)
        return RatFunc(n, self.den * self.den)

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    def render(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return self.num.render()
        return f"{_atom(self.num.render())}/{_atom(self.den.render())}"


_set_num = RatFunc.num.__set__
_set_den = RatFunc.den.__set__
_set_rhash = RatFunc._hash.__set__


def _reduced(num, den):
    """RatFunc(num, den) for a pair already in normal form, with no gcd.

    Negation and powers keep a reduced fraction reduced, and by Gauss's lemma
    a power of a primitive polynomial is primitive; sums and products reach
    the normal form by Henrici's rule (RatFunc.__add__, __mul__).
    """
    r = _new(RatFunc)
    _set_num(r, num)
    _set_den(r, den)
    _set_rhash(r, None)
    return r


def _atom(s):
    """Wrap a rendered expression so it can serve as a division operand."""
    if s.isidentifier() and len(s) == 1:
        return s
    if s.isdigit():
        return s
    return f"({s})"


class DualRatFunc(Value):
    """body + eps * eps_part with eps^2 = 0."""

    __slots__ = ("body", "eps", "_hash")

    def __init__(self, body, eps=None):
        if isinstance(body, MultiPoly):
            body = RatFunc(body)
        if eps is None:
            eps = RatFunc.from_const(body.vars, 0)
        if isinstance(eps, MultiPoly):
            eps = RatFunc(eps)
        if body.vars != eps.vars:
            raise ValueError("mixed variable sets")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "_hash", None)

    @property
    def vars(self):
        return self.body.vars

    def is_zero(self):
        return self.body.is_zero() and self.eps.is_zero()

    def specialize(self):
        """The eps = 0 image."""
        return self.body

    def __add__(self, other):
        other = self._coerce(other)
        return DualRatFunc(self.body + other.body, self.eps + other.eps)

    __radd__ = __add__

    def __neg__(self):
        return DualRatFunc(-self.body, -self.eps)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return DualRatFunc(self.body * other.body,
                           self.body * other.eps + self.eps * other.body)

    __rmul__ = __mul__

    def invert(self):
        """Inverse in Q(X)[eps]: body^-1 - eps * eps_part * body^-2."""
        if self.body.is_zero():
            raise NotAUnit("dual number with zero body has no inverse")
        inv = self.body.inverse()
        return DualRatFunc(inv, -self.eps * inv * inv)

    def __truediv__(self, other):
        return self * self._coerce(other).invert()

    def __pow__(self, n):
        """(a + eps*b)^n = a^n + eps * n*a^(n-1)*b for n >= 0; n < 0 inverts first."""
        if not isinstance(n, int):
            raise ValueError("dual powers take integers")
        if n < 0:
            return self.invert() ** (-n)
        return DualRatFunc(self.body ** n, self.eps * n * self.body ** max(n - 1, 0))

    def _coerce(self, other):
        if isinstance(other, DualRatFunc):
            return other
        if isinstance(other, (RatFunc, MultiPoly, int, Fraction)):
            if not isinstance(other, RatFunc):
                other = RatFunc.from_const(self.vars, other) if isinstance(other, (int, Fraction)) else RatFunc(other)
            return DualRatFunc(other)
        raise TypeError(f"cannot combine DualRatFunc with {type(other).__name__}")

    def __eq__(self, other):
        return (isinstance(other, DualRatFunc)
                and self.body == other.body and self.eps == other.eps)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.body, self.eps)))
        return self._hash

    def __repr__(self):
        return f"DualRatFunc({self.render()})"

    def render(self):
        if self.eps.is_zero():
            return self.body.render()
        e = self.eps
        negative = e.num.lc() < 0
        mag = -e if negative else e
        if mag == RatFunc.from_const(self.vars, 1):
            eps_s = "eps"
        else:
            eps_s = f"eps*{_atom(mag.render())}"
        if self.body.is_zero():
            return f"-{eps_s}" if negative else eps_s
        return f"{self.body.render()} {'-' if negative else '+'} {eps_s}"
