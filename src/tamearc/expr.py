"""Expression parser for the CLI surface.

Grammar:
    expr     := '-'? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' nat)?
    atom     := rational | 'x' | 'y' | 't' | 'eps' | '(' expr ')' | atom '/' atom
    rational := nat ('/' nat)?

Division binds tighter than '*' and chains left, and an exponent applies to
the whole division chain.  The leading minus is a convenience so that every
rendered value parses back.  'eps' is a reserved token with eps^2 = 0; a
product or quotient may carry eps in at most one operand, which enforces the
eps-degree bound at parse time.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, EpsDegree, ExprSyntaxError
from .poly import DualRatFunc, RatFunc, VARS_T, VARS_XY

_PUNCT = set("+-*/^()")


def _tokenize(src):
    """Yield (kind, text, pos) with kind in {'int', 'name', 'punct'}."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _check_eps(a, b, pos):
    """A product or quotient of DualRatFunc may carry eps in one operand only."""
    if not a.eps.is_zero() and not b.eps.is_zero():
        raise EpsDegree(f"eps appears to degree 2 after expansion (at position {pos})")


def _div(a, b, pos):
    _check_eps(a, b, pos)
    if b.body.is_zero():
        if not b.eps.is_zero():
            raise EpsDegree(
                f"division by a pure eps multiple needs eps^(-1) (at position {pos})")
        raise DivisionByZero("division by zero in expression")
    return a / b


class _Parser:
    def __init__(self, tokens, vars):
        self.tokens = tokens
        self.vars = vars
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            pos = self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 0
            raise ExprSyntaxError("unexpected end of expression", pos)
        self.i += 1
        return tok

    def _expect(self, text):
        tok = self._next()
        if tok[1] != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok[1]!r}", tok[2])
        return tok

    def expr(self):
        negate = False
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self._next()
            negate = True
        val = self.term()
        if negate:
            val = -val
        while True:
            tok = self._peek()
            if tok is None or tok[1] not in ("+", "-"):
                return val
            self._next()
            rhs = self.term()
            val = val + rhs if tok[1] == "+" else val - rhs

    def term(self):
        val = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok[1] != "*":
                return val
            pos = self._next()[2]
            rhs = self.factor()
            _check_eps(val, rhs, pos)
            val = val * rhs

    def factor(self):
        val = self.atom_chain()
        tok = self._peek()
        if tok is not None and tok[1] == "^":
            pos = self._next()[2]
            exp = self._next()
            if exp[0] != "int":
                raise ExprSyntaxError("exponent must be a natural number", exp[2])
            n = int(exp[1])
            if n >= 2:
                _check_eps(val, val, pos)
            return val ** n
        return val

    def atom_chain(self):
        val = self.atom()
        while True:
            tok = self._peek()
            if tok is None or tok[1] != "/":
                return val
            pos = self._next()[2]
            val = _div(val, self.atom(), pos)

    def atom(self):
        tok = self._next()
        kind, text, pos = tok
        if kind == "int":
            return DualRatFunc(RatFunc.from_const(self.vars, Fraction(int(text))))
        if kind == "name":
            if text == "eps":
                return DualRatFunc(RatFunc.from_const(self.vars, 0),
                                   RatFunc.from_const(self.vars, 1))
            if text in self.vars:
                return DualRatFunc(RatFunc.variable(text))
            if text in ("x", "y", "t"):
                chart = "the line" if self.vars == VARS_T else "the plane"
                raise ExprSyntaxError(f"variable {text!r} is not on {chart}", pos)
            raise ExprSyntaxError(f"unknown name {text!r}", pos)
        if text == "(":
            val = self.expr()
            self._expect(")")
            return val
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def _infer_vars(tokens):
    names = {text for kind, text, _ in tokens if kind == "name"}
    if "t" in names:
        if names & {"x", "y"}:
            raise ExprSyntaxError("expression mixes t with x or y", 0)
        return VARS_T
    if names & {"x", "y"}:
        return VARS_XY
    return None


def parse_expr(src, vars=None):
    """Parse an expression to a RatFunc, or a DualRatFunc when eps occurs.

    When vars is None the variable set is inferred from the tokens; a
    constant expression defaults to the plane.
    """
    tokens = _tokenize(src)
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)
    if vars is None:
        vars = _infer_vars(tokens) or VARS_XY
    parser = _Parser(tokens, tuple(vars))
    val = parser.expr()
    leftover = parser._peek()
    if leftover is not None:
        raise ExprSyntaxError(f"unexpected token {leftover[1]!r}", leftover[2])
    if val.eps.is_zero():
        return val.body
    return val


def parse_poly(src, vars=None):
    """Parse an expression that must normalize to a polynomial."""
    val = parse_expr(src, vars)
    if isinstance(val, DualRatFunc):
        raise ExprSyntaxError("eps is not allowed here", 0)
    if not val.den.is_const():
        raise ExprSyntaxError("expected a polynomial, found a denominator", 0)
    return val.num * (1 / val.den.const_value())
