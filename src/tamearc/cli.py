"""Command-line surface: job parsing, dispatch, and stable report emission.

One job per invocation.  Reports are deterministic functions of the job and
seed; structured output is line-delimited "key: value" text with list items
indented two spaces, UTF-8 with LF endings, byte-stable across runs.

Exit codes: 0 success, 1 a checked identity failed, 2 input error,
3 capability error (factorization or projection gave up).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

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
from .poly import DualRatFunc, RatFunc
from .tangent import diagram_check, tangent2, tangent3, tangent_cocycle

# the argument keys of each command, read by the flags and the job files alike
_ARG_KEYS = {
    "tame": ("f", "g"),
    "div": ("f",),
    "div-on-curve": ("f", "curve"),
    "cycle-check": ("component",),
    "tame-certify": ("component", "f", "g"),
    "complex-check": ("f", "g"),
    "weil-check": ("f", "g"),
    "tangent2": ("f", "g"),
    "d-eps": ("f", "g"),
    "tangent3": ("curve", "datum", "unit", "sign"),
    "diagram-check": ("f", "g"),
    "tangent-cocycle": ("arc",),
}
COMMANDS = tuple(_ARG_KEYS)
# keys that may repeat; each occurrence adds one item
_LIST_KEYS = ("component", "arc")
_FORMATS = ("text", "structured")

# commands that run on one variety only; the rest run on both
_ONLY_ON = {
    "cycle-check": "A2",
    "tame-certify": "A2",
    "complex-check": "A2",
    "weil-check": "P1",
}


@dataclass(frozen=True)
class Job:
    command: str
    variety: str = "A2"
    args: tuple = ()       # of (key, value-or-tuple) in canonical order
    seed: int = 0
    factor_hints: tuple = ()

    def arg(self, key, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class Report:
    job: Job
    payload: tuple = ()        # of (key, str) or (key, tuple of str)
    certificates: tuple = ()
    warnings: tuple = ()
    status: int = 0


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
    if isinstance(val, DualRatFunc):
        return val
    return DualRatFunc(val, RatFunc.from_const(vars, 0))

def _plain(src, vars, key):
    val = parse_expr(src, vars)
    if isinstance(val, DualRatFunc):
        raise InputError(f"--{key} must not contain eps")
    return val


def _irreducible_curve(src, vars, hints):
    p = parse_poly(src, vars)
    primes = [] if p.is_zero() else prime_divisors(p, variety_of(vars), hints)
    if len(primes) != 1 or primes[0][1] != 1:
        raise InputError(f"curve {src!r} is not irreducible")
    return primes[0][0]


def _parse_component(entry, vars, hints):
    parts = [p.strip() for p in entry.split("|")]
    if len(parts) != 2:
        raise InputError(f"component needs '<curve> | <function>': {entry!r}")
    curve = _irreducible_curve(parts[0], vars, hints)
    func = _plain(parts[1], vars, "component")
    return curve, ResidueFunc(curve, func)


def _parse_arc(entry, vars, hints):
    parts = [p.strip() for p in entry.split("|")]
    if len(parts) != 4:
        raise InputError(
            f"arc needs '<curve> | <datum> | <unit> | <sign>': {entry!r}")
    curve = _irreducible_curve(parts[0], vars, hints)
    datum = _plain(parts[1], vars, "datum")
    unit = _dual(parts[2], vars)
    try:
        sign = int(parts[3])
    except ValueError:
        raise InputError(f"arc sign must be +1 or -1: {parts[3]!r}") from None
    return GGArc(curve=curve, datum=datum, unit=unit, sign=sign)


def _k1_payload(cycle):
    if cycle.is_trivial():
        return (("components", "none"),)
    return tuple((f"component {key.render()}", val.rep.render())
                 for key, val in cycle.terms)


def run_job(job):
    """Dispatch a job to the library and collect a deterministic report."""
    if job.command not in COMMANDS:
        raise InputError(f"unknown command {job.command!r}")
    for key, _ in job.args:
        if key not in _ARG_KEYS[job.command]:
            raise InputError(f"{job.command} takes no key {key!r}")
    only = _ONLY_ON.get(job.command, job.variety)
    if job.variety != only:
        raise InputError(f"{job.command} runs on {only}")
    X = Variety(job.variety)
    vars = X.vars
    hints = _parse_hints(job.factor_hints, vars)
    payload = []
    certificates = []
    warnings = []
    status = 0

    if job.command == "tame":
        f = _plain(_require(job, "f"), vars, "f")
        g = _plain(_require(job, "g"), vars, "g")
        cycle = tame(MilnorSymbol.of(f, g), X, hints=hints)
        payload.extend(_k1_payload(cycle))

    elif job.command == "div":
        f = _plain(_require(job, "f"), vars, "f")
        cycle = div_codim1(f, X, hints=hints)
        payload.append(("cycle", cycle.render()))
        payload.append(("total degree", str(cycle.total_degree())))
        if job.variety == "A2" and cycle.total_degree() != 0:
            warnings.append(
                "affine divisor has nonzero total degree; components at "
                "infinity are not part of this chart")

    elif job.command == "div-on-curve":
        f = _plain(_require(job, "f"), vars, "f")
        if job.variety == "P1":
            cycle = div_on_curve(f, seed=job.seed, hints=hints)
        else:
            curve = _irreducible_curve(_require(job, "curve"), vars, hints)
            cycle = div_on_curve(ResidueFunc(curve, f), seed=job.seed, hints=hints)
        payload.append(("cycle", cycle.render()))
        payload.append(("total degree", str(cycle.total_degree())))

    elif job.command == "cycle-check":
        comps = tuple(_parse_component(e, vars, hints)
                      for e in job.arg("component", ()))
        cert = cycle_check(HigherCycleRep(comps), seed=job.seed, hints=hints)
        certificates.append(cert)
        status = 0 if cert.verdict else 1

    elif job.command == "tame-certify":
        comps = tuple(_parse_component(e, vars, hints)
                      for e in job.arg("component", ()))
        f = _plain(_require(job, "f"), vars, "f")
        g = _plain(_require(job, "g"), vars, "g")
        cert = tame_boundary_certify(HigherCycleRep(comps), MilnorSymbol.of(f, g),
                                     hints=hints)
        certificates.append(cert)
        status = 0 if cert.verdict else 1

    elif job.command == "complex-check":
        f = _plain(_require(job, "f"), vars, "f")
        g = _plain(_require(job, "g"), vars, "g")
        cert = complex_check_q2(f, g, seed=job.seed, hints=hints)
        certificates.append(cert)
        status = 0 if cert.verdict else 1

    elif job.command == "weil-check":
        f = _plain(_require(job, "f"), vars, "f")
        g = _plain(_require(job, "g"), vars, "g")
        cert = weil_check_p1(f, g, hints=hints)
        certificates.append(cert)
        status = 0 if cert.verdict else 1

    elif job.command == "tangent2":
        u = _dual(_require(job, "f"), vars)
        v = _dual(_require(job, "g"), vars)
        form = tangent2(DualMilnorSymbol.of(u, v))
        payload.append(("form", form.render()))

    elif job.command == "d-eps":
        u = _dual(_require(job, "f"), vars)
        v = _dual(_require(job, "g"), vars)
        arcs = d_eps(DualMilnorSymbol.of(u, v), hints=hints)
        payload.append(("arcs", tuple(a.render() for a in arcs)))

    elif job.command == "tangent3":
        arc = _parse_arc(" | ".join([
            _require(job, "curve"), _require(job, "datum"),
            _require(job, "unit"), _require(job, "sign")]), vars, hints)
        curve, cls = tangent3(arc)
        payload.append(("curve", curve.render()))
        payload.append(("class", cls.render()))

    elif job.command == "diagram-check":
        u = _dual(_require(job, "f"), vars)
        v = _dual(_require(job, "g"), vars)
        cert = diagram_check(DualMilnorSymbol.of(u, v), hints=hints)
        certificates.append(cert)
        status = 0 if cert.verdict else 1

    elif job.command == "tangent-cocycle":
        arcs = [_parse_arc(e, vars, hints) for e in job.arg("arc", ())]
        cert = tangent_cocycle(arcs)
        certificates.append(cert)
        status = 0 if cert.verdict else 1

    return Report(job=job, payload=tuple(payload),
                  certificates=tuple(certificates),
                  warnings=tuple(warnings), status=status)


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
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    if format == "structured":
        lines.append(f"status: {report.status}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _emit_error(exc, format):
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
    for name, keys in _ARG_KEYS.items():
        p = sub.add_parser(name)
        p.add_argument("--variety", choices=("A2", "P1"),
                       default=_ONLY_ON.get(name, "A2"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=_FORMATS, default="text")
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
            job, file_fmt = parse_job_file(ns.job)
            if file_fmt is not None and not any(
                    a == "--format" or a.startswith("--format=") for a in argv):
                fmt = file_fmt
        elif ns.command is None:
            parser.print_usage(sys.stderr)
            return 2
        else:
            args = []
            for key in _ARG_KEYS[ns.command]:
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
    except CapabilityError as exc:
        sys.stdout.buffer.write(_emit_error(exc, fmt))
        sys.stdout.buffer.flush()
        return 3
    except InputError as exc:
        sys.stdout.buffer.write(_emit_error(exc, fmt))
        sys.stdout.buffer.flush()
        return 2


if __name__ == "__main__":
    sys.exit(main())
