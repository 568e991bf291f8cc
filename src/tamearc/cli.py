"""Command-line surface: job parsing, dispatch, and stable report emission.

One job per invocation.  One table maps each command to its argument keys,
the one variety it runs on (or None for both) and a runner that parses its
own arguments and returns payload lines or a Certificate; run_job checks a
job against the table and builds its Report, whose status is the
certificate's verdict.  Reports are deterministic functions of the job and
seed; structured output is line-delimited "key: value" text with list items
indented two spaces, UTF-8 with LF endings, byte-stable across runs.  An
error prints the two lines "error:" and "message:" in either format.

Exit codes: 0 success, 1 a checked identity failed, 2 input error,
3 capability error (factorization or projection gave up).
"""

from __future__ import annotations

import argparse
import sys

from .errors import CapabilityError, InputError
from .expr import parse_expr, parse_poly
from .factor import FactorHints
from .geometry import (
    ResidueFunc,
    Variety,
    div_codim1,
    div_on_curve,
    prime_divisors,
    variety_of,
)
from .gersten import (
    Certificate,
    HigherCycleRep,
    complex_check_q2,
    cycle_check,
    tame_boundary_certify,
    weil_check_p1,
)
from .ksymbols import (
    DualMilnorSymbol,
    GGArc,
    MilnorSymbol,
    d_eps,
    tame,
)
from .poly import DualRatFunc
from .tangent import diagram_check, tangent2, tangent3, tangent_cocycle
from .value import Value

_LIST_KEYS = ("component", "arc")  # keys that may repeat; each adds one item
_FORMATS = ("text", "structured")


class Job(Value):
    __slots__ = ("command", "variety", "args", "seed", "factor_hints")
    # args: (key, value-or-tuple) pairs in canonical order

    def __init__(self, command, variety="A2", args=(), seed=0, factor_hints=()):
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "factor_hints", factor_hints)

    def arg(self, key, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


class Report(Value):
    __slots__ = ("job", "payload", "certificates", "status")
    # payload: (key, str) or (key, tuple of str) pairs

    def __init__(self, job, payload=(), certificates=(), status=0):
        object.__setattr__(self, "job", job)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "certificates", certificates)
        object.__setattr__(self, "status", status)


def _parse_hints(entries, vars):
    if not entries:
        return None
    hints = FactorHints()
    for entry in entries:
        if "=" not in entry:
            raise InputError(f"factor hint needs <poly>=<factor,...>: {entry!r}")
        target, rhs = entry.split("=", 1)
        factors = [parse_poly(part.strip(), vars) for part in rhs.split(",")]
        hints.add(parse_poly(target.strip(), vars), factors)
    return hints


def _require(job, key):
    val = job.arg(key)
    if val is None:
        raise InputError(f"command {job.command!r} needs --{key}")
    return val


def _dual(src, vars):
    val = parse_expr(src, vars)
    return val if isinstance(val, DualRatFunc) else DualRatFunc(val)


def _plain(src, vars, key):
    val = parse_expr(src, vars)
    if isinstance(val, DualRatFunc):
        raise InputError(f"--{key} must not contain eps")
    return val


def _f_g(job, vars):
    return _plain(_require(job, "f"), vars, "f"), _plain(_require(job, "g"), vars, "g")


def _dual_symbol(job, vars):
    return DualMilnorSymbol.of(_dual(_require(job, "f"), vars),
                               _dual(_require(job, "g"), vars))


def _irreducible_curve(src, vars, hints):
    p = parse_poly(src, vars)
    primes = [] if p.is_zero() else prime_divisors(p, variety_of(vars), hints)
    if len(primes) != 1 or primes[0][1] != 1:
        raise InputError(f"curve {src!r} is not irreducible")
    return primes[0][0]


def _components(job, vars, hints):
    comps = []
    for entry in job.arg("component", ()):
        parts = [p.strip() for p in entry.split("|")]
        if len(parts) != 2:
            raise InputError(f"component needs '<curve> | <function>': {entry!r}")
        curve = _irreducible_curve(parts[0], vars, hints)
        comps.append((curve, ResidueFunc(curve, _plain(parts[1], vars, "component"))))
    return HigherCycleRep(tuple(comps))


def _arc(fields, vars, hints):
    """The arc of the fields curve, datum, unit and sign, parsed in that order."""
    curve, datum, unit, sign = (field.strip() for field in fields)
    curve = _irreducible_curve(curve, vars, hints)
    datum = _plain(datum, vars, "datum")
    unit = _dual(unit, vars)
    try:
        value = int(sign)
    except ValueError:
        value = None
    if value not in (1, -1):
        raise InputError(f"arc sign must be +1 or -1: {sign!r}")
    return GGArc(curve=curve, datum=datum, unit=unit, sign=value)


def _arcs(job, vars, hints):
    arcs = []
    for entry in job.arg("arc", ()):
        fields = entry.split("|")
        if len(fields) != 4:
            raise InputError(
                f"arc needs '<curve> | <datum> | <unit> | <sign>': {entry!r}")
        arcs.append(_arc(fields, vars, hints))
    return arcs


def _cycle_payload(cycle):
    return [("cycle", cycle.render()), ("total degree", str(cycle.total_degree()))]


# Runners: each parses its own arguments and returns payload lines or a
# Certificate.  Their parse order decides which error wins on bad input.

def _run_tame(job, X, hints):
    cycle = tame(MilnorSymbol.of(*_f_g(job, X.vars)), X, hints=hints)
    if cycle.is_trivial():
        return [("components", "none")]
    return [(f"component {key.render()}", val.rep.render()) for key, val in cycle.terms]


def _run_div(job, X, hints):
    cycle = div_codim1(_plain(_require(job, "f"), X.vars, "f"), X, hints=hints)
    payload = _cycle_payload(cycle)
    if X.kind == "A2" and cycle.total_degree() != 0:
        payload.append(("warning", "affine divisor has nonzero total degree; "
                        "components at infinity are not part of this chart"))
    return payload


def _run_div_on_curve(job, X, hints):
    if X.kind == "P1" and job.arg("curve") is not None:
        raise InputError("div-on-curve on P1 takes no --curve: the curve is the line")
    f = _plain(_require(job, "f"), X.vars, "f")
    if X.kind == "A2":
        f = ResidueFunc(_irreducible_curve(_require(job, "curve"), X.vars, hints), f)
    return _cycle_payload(div_on_curve(f, seed=job.seed, hints=hints))


def _run_tame_certify(job, X, hints):
    comps = _components(job, X.vars, hints)
    return tame_boundary_certify(comps, MilnorSymbol.of(*_f_g(job, X.vars)), hints=hints)


def _run_tangent3(job, X, hints):
    fields = [_require(job, key) for key in ("curve", "datum", "unit", "sign")]
    curve, cls = tangent3(_arc(fields, X.vars, hints))
    return [("curve", curve.render()), ("class", cls.render())]


# command: (argument keys, the one variety it runs on or None, runner); the
# keys are read by the flags and the job files alike
_TABLE = {
    "tame": (("f", "g"), None, _run_tame),
    "div": (("f",), None, _run_div),
    "div-on-curve": (("f", "curve"), None, _run_div_on_curve),
    "cycle-check": (("component",), "A2", lambda job, X, hints: cycle_check(
        _components(job, X.vars, hints), seed=job.seed, hints=hints)),
    "tame-certify": (("component", "f", "g"), "A2", _run_tame_certify),
    "complex-check": (("f", "g"), "A2", lambda job, X, hints: complex_check_q2(
        *_f_g(job, X.vars), seed=job.seed, hints=hints)),
    "weil-check": (("f", "g"), "P1", lambda job, X, hints: weil_check_p1(
        *_f_g(job, X.vars), hints=hints)),
    "tangent2": (("f", "g"), None, lambda job, X, hints: [
        ("form", tangent2(_dual_symbol(job, X.vars)).render())]),
    "d-eps": (("f", "g"), None, lambda job, X, hints: [
        ("arcs", tuple(a.render() for a in d_eps(_dual_symbol(job, X.vars), hints=hints)))]),
    "tangent3": (("curve", "datum", "unit", "sign"), None, _run_tangent3),
    "diagram-check": (("f", "g"), None, lambda job, X, hints: diagram_check(
        _dual_symbol(job, X.vars), hints=hints)),
    "tangent-cocycle": (("arc",), None, lambda job, X, hints: tangent_cocycle(
        _arcs(job, X.vars, hints))),
}
COMMANDS = tuple(_TABLE)


def run_job(job):
    """Check a job against the command table, run it, and collect its report."""
    if job.command not in _TABLE:
        raise InputError(f"unknown command {job.command!r}")
    keys, only, runner = _TABLE[job.command]
    for key, _ in job.args:
        if key not in keys:
            raise InputError(f"{job.command} takes no key {key!r}")
    if only not in (None, job.variety):
        raise InputError(f"{job.command} runs on {only}")
    X = Variety(job.variety)
    result = runner(job, X, _parse_hints(job.factor_hints, X.vars))
    certificates = (result,) if isinstance(result, Certificate) else ()
    return Report(job=job, payload=() if certificates else tuple(result),
                  certificates=certificates,
                  status=0 if all(c.verdict for c in certificates) else 1)


def emit(report, format="text"):
    """Render a report to bytes: UTF-8, LF endings, stable field order."""
    lines = []
    if format == "structured":
        lines.append(f"command: {report.job.command}")
        lines.append(f"variety: {report.job.variety}")
        lines.append(f"seed: {report.job.seed}")
        for key, val in sorted(report.job.args):
            if isinstance(val, tuple):
                lines.append(f"arg {key}:")
                for item in val:
                    lines.append(f"  {item}")
            else:
                lines.append(f"arg {key}: {val}")
        for entry in report.job.factor_hints:
            lines.append(f"factor-hint: {entry}")
    for key, val in report.payload:
        if isinstance(val, tuple):
            lines.append(f"{key}:" + (" none" if not val else ""))
            for item in val:
                lines.append(f"  {item}")
        else:
            lines.append(f"{key}: {val}")
    for cert in report.certificates:
        lines.extend(cert.render_lines())
    if format == "structured":
        lines.append(f"status: {report.status}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _emit_error(exc):
    lines = [f"error: {type(exc).__name__}", f"message: {exc}"]
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_job_file(path):
    """Read a job from a 'key: value' text file; component/arc keys repeat."""
    command = None
    variety = "A2"
    seed = 0
    fmt = None
    args = {}
    hints = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot read the job file: {exc.strerror}") from None
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise InputError(f"{path}:{lineno}: expected 'key: value'")
            key, val = line.split(":", 1)
            key = key.strip()
            val = val.strip()
            if key == "command":
                command = val
            elif key == "variety":
                if val not in ("A2", "P1"):
                    raise InputError(f"{path}:{lineno}: variety must be A2 or P1")
                variety = val
            elif key == "seed":
                try:
                    seed = int(val)
                except ValueError:
                    raise InputError(f"{path}:{lineno}: seed must be an integer") from None
            elif key == "format":
                if val not in _FORMATS:
                    raise InputError(f"{path}:{lineno}: format must be text or structured")
                fmt = val
            elif key == "factor-hint":
                hints.append(val)
            elif key in _LIST_KEYS:
                args.setdefault(key, []).append(val)
            else:
                args[key] = val
    if command is None:
        raise InputError(f"{path}: job file has no 'command'")
    job = Job(command=command, variety=variety,
              args=tuple(sorted((k, tuple(v) if isinstance(v, list) else v)
                         for k, v in args.items())),
              seed=seed, factor_hints=tuple(hints))
    return job, fmt


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tamearc",
        description="Exact tame symbols, divisors, deformation arcs, and "
                    "identity certificates on the affine plane and the line.")
    parser.add_argument("--job", help="run a job from a key: value file")
    parser.add_argument("--format", choices=_FORMATS, default="text")
    sub = parser.add_subparsers(dest="command")
    for name, (keys, only, _) in _TABLE.items():
        p = sub.add_parser(name)
        p.add_argument("--variety", choices=("A2", "P1"), default=only or "A2")
        p.add_argument("--seed", type=int, default=0)
        # SUPPRESS leaves a --format given before the command in place
        p.add_argument("--format", choices=_FORMATS, default=argparse.SUPPRESS)
        p.add_argument("--factor-hint", action="append", default=[],
                       metavar="POLY=FACTOR,...")
        for key in keys:
            if key in _LIST_KEYS:
                p.add_argument(f"--{key}", action="append", default=[])
            else:
                p.add_argument(f"--{key}")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    fmt = ns.format
    try:
        if ns.job:
            if ns.command is not None:
                raise InputError(f"--job {ns.job!r} and command {ns.command!r} "
                                 "given together; give one")
            job, file_fmt = parse_job_file(ns.job)
            if file_fmt is not None and not any(
                    a == "--format" or a.startswith("--format=") for a in argv):
                fmt = file_fmt
        elif ns.command is None:
            parser.print_usage(sys.stderr)
            return 2
        else:
            args = []
            for key in _TABLE[ns.command][0]:
                val = getattr(ns, key)
                if key in _LIST_KEYS:
                    val = tuple(val) or None
                if val is not None:
                    args.append((key, val))
            job = Job(command=ns.command, variety=ns.variety,
                      args=tuple(sorted(args)), seed=ns.seed,
                      factor_hints=tuple(ns.factor_hint))
        report = run_job(job)
        sys.stdout.buffer.write(emit(report, fmt))
        sys.stdout.buffer.flush()
        return report.status
    except (InputError, CapabilityError) as exc:
        sys.stdout.buffer.write(_emit_error(exc))
        sys.stdout.buffer.flush()
        return 3 if isinstance(exc, CapabilityError) else 2


if __name__ == "__main__":
    sys.exit(main())
