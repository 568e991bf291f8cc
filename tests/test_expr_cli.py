"""Expression grammar and the command line surface."""

import collections
import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tamearc import cli
from tamearc.errors import (
    DivisionByZero,
    EpsDegree,
    ExprSyntaxError,
    InputError,
)
from tamearc.expr import parse_expr, parse_poly
from tamearc.poly import DualRatFunc, RatFunc, VARS_T, VARS_XY

import frozen
from test_geometry import rand_ratfunc
from test_poly import rand_poly


class TestGrammar:
    def test_dual_literal(self):
        d = parse_expr("x + eps")
        assert isinstance(d, DualRatFunc)
        assert d.body.render() == "x"
        assert d.eps.render() == "1"

    def test_plain_rational(self):
        r = parse_expr("(t^2 - 1)/t")
        assert isinstance(r, RatFunc)
        assert r.vars == VARS_T
        assert r.render() == "(t^2 - 1)/t"

    def test_constant_defaults_to_plane(self):
        r = parse_expr("3")
        assert isinstance(r, RatFunc)
        assert r.vars == VARS_XY

    def test_division_by_dual_inverts(self):
        d = parse_expr("1/(x + eps)")
        assert d.render() == "1/x - eps*(1/(x^2))"

    def test_leading_minus(self):
        assert parse_expr("-x + y") == parse_expr("y") - parse_expr("x")

    def test_division_chains_left(self):
        assert parse_expr("8/2/2").render() == "2"

    def test_exponent_covers_division_chain(self):
        assert parse_expr("x/y^2") == (parse_expr("x") / parse_expr("y")) ** 2

    def test_eps_degree_rejected(self):
        for src in ("eps*eps", "eps^2", "(x + eps)^2", "(x + eps)*(y + eps)"):
            with pytest.raises(EpsDegree):
                parse_expr(src)

    @pytest.mark.parametrize("src, error, message", [
        ("eps*eps", EpsDegree, "eps appears to degree 2 after expansion (at position 3)"),
        ("(x + eps)^2", EpsDegree,
         "eps appears to degree 2 after expansion (at position 9)"),
        ("x/eps", EpsDegree,
         "division by a pure eps multiple needs eps^(-1) (at position 1)"),
        ("eps/(x + eps)", EpsDegree,
         "eps appears to degree 2 after expansion (at position 3)"),
        ("1/0", DivisionByZero, "division by zero in expression"),
    ])
    def test_eps_and_zero_messages_pinned(self, src, error, message):
        with pytest.raises(error) as info:
            parse_expr(src)
        assert str(info.value) == message

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("x + ")
        assert info.value.pos == 3
        with pytest.raises(ExprSyntaxError):
            parse_expr("")
        with pytest.raises(ExprSyntaxError):
            parse_expr("(x + 1")
        with pytest.raises(ExprSyntaxError):
            parse_expr("x ~ y")

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("w + 1")

    def test_mixed_variable_sets(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("t + x")

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            parse_expr("1/0")
        with pytest.raises(DivisionByZero):
            parse_expr("x/(y - y)")

    def test_parse_poly_guards(self):
        p = parse_poly("x^2*y - 3")
        assert p.render() == "x^2*y - 3"
        with pytest.raises(InputError):
            parse_poly("1/x")
        with pytest.raises(InputError):
            parse_poly("x + eps")

    def test_render_parse_round_trip_500(self):
        rng = random.Random(71)
        for i in range(500):
            kind = i % 3
            if kind == 0:
                val = rand_ratfunc(rng, VARS_T, rng.randint(1, 4))
            elif kind == 1:
                val = rand_ratfunc(rng, VARS_XY, rng.randint(1, 3))
            else:
                val = DualRatFunc(rand_ratfunc(rng, VARS_XY, 2),
                                  rand_poly(rng, VARS_XY, 1))
            back = parse_expr(val.render(), vars=val.vars)
            if isinstance(val, DualRatFunc) and isinstance(back, RatFunc):
                back = DualRatFunc(back)
            assert back == val, val.render()


# y*(y-1)*...*(y-(n-1)) + x is irreducible and splits into n lines at x = 0
_LINES_14 = "y*" + "*".join(f"(y-{i})" for i in range(1, 14)) + " + x"
_LINES_20 = "y*" + "*".join(f"(y-{i})" for i in range(1, 20)) + " + x"


def run_cli(*args, job=None, timeout=None):
    cmd = [sys.executable, "-m", "tamearc.cli"]
    if job is not None:
        cmd += ["--job", str(job)]
    cmd += list(args)
    return subprocess.run(cmd, capture_output=True, timeout=timeout)


class TestCli:
    def test_tame_text(self):
        r = run_cli("tame", "--f", "x", "--g", "y")
        assert r.returncode == 0
        assert r.stdout.decode().splitlines() == [
            "component V(y): x",
            "component V(x): 1/y",
        ]

    def test_tame_structured(self):
        r = run_cli("tame", "--f", "t^2 - t", "--g", "t - 2",
                    "--variety", "P1", "--format", "structured")
        assert r.returncode == 0
        assert r.stdout.decode().splitlines() == [
            "command: tame",
            "variety: P1",
            "seed: 0",
            "arg f: t^2 - t",
            "arg g: t - 2",
            "component 0: -1/2",
            "component 2: 2",
            "component 1: -1",
            "status: 0",
        ]

    def test_empty_cycle_renders_zero(self):
        r = run_cli("div", "--f", "5", "--format", "structured")
        lines = r.stdout.decode().splitlines()
        assert "cycle: 0" in lines
        assert "total degree: 0" in lines
        assert r.returncode == 0

    def test_affine_degree_warning(self):
        r = run_cli("div", "--f", "x*y - y")
        out = r.stdout.decode()
        assert "cycle: [V(y)] + [V(x - 1)]" in out
        assert "warning: affine divisor has nonzero total degree" in out

    def test_high_power_finishes_within_budget(self):
        # the squarefree split of (x + y)^40 recurses through about 40
        # nontrivial bivariate gcds; a blow-up raises TimeoutExpired
        r = run_cli("div", "--f", "(x+y)^40", timeout=10)
        assert r.returncode == 0
        assert "cycle: 40*[V(x + y)]" in r.stdout.decode().splitlines()

    def test_check_failure_exits_1(self):
        r = run_cli("cycle-check", "--component", "x | y")
        assert r.returncode == 1
        assert "verdict: fail" in r.stdout.decode()

    def test_check_pass_exits_0(self):
        r = run_cli("cycle-check", "--component", "x | y",
                    "--component", "y | 1/x")
        assert r.returncode == 0
        assert "witness total divisor: 0" in r.stdout.decode()

    def test_input_error_exits_2(self):
        r = run_cli("tame", "--f", "x + eps*eps", "--g", "y")
        assert r.returncode == 2
        assert "error: EpsDegree" in r.stdout.decode()

    def test_no_command_exits_2(self):
        r = run_cli()
        assert r.returncode == 2

    def test_capability_error_exits_3(self):
        # recombining 20 lines exceeds the budget
        r = run_cli("div", "--f", _LINES_20, timeout=20)
        assert r.returncode == 3
        assert "error: FactorIncomplete" in r.stdout.decode()

    def test_degree_nine_factors_on_both_varieties(self):
        for f, variety, cycle in (("t^9 + t + 1", "P1", "[V(t^9 + t + 1)] - 9*[INF]"),
                                  ("x^9 + x + 1", "A2", "[V(x^9 + x + 1)]")):
            r = run_cli("div", "--f", f, "--variety", variety)
            assert r.returncode == 0, variety
            assert f"cycle: {cycle}" in r.stdout.decode().splitlines()

    def test_bound_applies_to_squarefree_parts(self):
        # degree 9, but every squarefree part has degree 1 or 3
        r = run_cli("div", "--f", "(t-1)^9", "--variety", "P1")
        assert r.returncode == 0
        assert "cycle: 9*[1] - 9*[INF]" in r.stdout.decode().splitlines()
        r = run_cli("div", "--f", "(t^3-2)^3", "--variety", "P1")
        assert r.returncode == 0

    def test_factor_hint_rescues_bound(self):
        # recombining 14 lines exceeds the budget, and the hint skips it
        r = run_cli("div", "--f", _LINES_14, "--factor-hint", f"{_LINES_14}={_LINES_14}")
        assert r.returncode == 0
        assert "cycle: [V(" in r.stdout.decode()

    def test_hint_serves_the_residues_built_from_its_polynomial(self):
        # the residue (F*(y - 20))^2 on V(x - 1) has no hint of its own; it is
        # divided by the curves of f, one of them hinted, so nothing recombines
        f = f"({_LINES_14})*(y-20)"
        r = run_cli("complex-check", "--f", f, "--g", "(x-1)^2",
                    "--factor-hint", f"{f}={_LINES_14}", timeout=20)
        assert r.returncode == 0
        lines = r.stdout.decode().splitlines()
        assert "verdict: pass" in lines
        assert "provenance factor tags: proved, user-asserted" in lines

    def test_hinted_weil_check_names_its_tags(self):
        r = run_cli("weil-check", "--f", "t^9 + t + 1", "--g", "t - 2",
                    "--factor-hint", "t^9 + t + 1=t^9 + t + 1")
        assert r.returncode == 0
        lines = r.stdout.decode().splitlines()
        assert "verdict: pass" in lines
        assert "provenance factor tags: proved, user-asserted" in lines

    def test_d_eps_arc_listing(self):
        r = run_cli("d-eps", "--f", "x + eps", "--g", "y")
        assert r.stdout.decode().splitlines() == [
            "arcs:",
            "  arc(V(x), datum 1, unit y, sign +1)",
            "  arc(V(y), datum 0, unit x + eps, sign -1)",
        ]

    def test_tangent3_flags(self):
        r = run_cli("tangent3", "--curve", "x", "--datum", "1",
                    "--unit", "y", "--sign", "+1")
        assert r.stdout.decode().splitlines() == [
            "curve: V(x)",
            "class: [((-1)/y)*dy] / (x)",
        ]

    def test_p1_curve_must_be_irreducible(self):
        for curve in ("t^2 - 1", "t^2", "3", "0"):
            r = run_cli("tangent3", "--variety", "P1", "--curve", curve,
                        "--datum", "1", "--unit", "1 + eps*t", "--sign", "+1")
            assert r.returncode == 2, curve
            assert f"message: curve {curve!r} is not irreducible" in r.stdout.decode()

    @pytest.mark.parametrize("command, argv, message", [
        ("tangent3", ["--curve", "x", "--datum", "1", "--unit", "y", "--sign", "2"],
         b"message: arc sign must be +1 or -1: '2'\n"),
        ("tangent3", ["--curve", "x", "--datum", "1", "--unit", "y", "--sign", "a"],
         b"message: arc sign must be +1 or -1: 'a'\n"),
        ("tangent-cocycle", ["--arc", "x | 1 | y | 2"],
         b"message: arc sign must be +1 or -1: '2'\n"),
    ])
    def test_arc_sign_errors_name_the_field(self, command, argv, message, capsysbinary):
        # a sign that parses as an integer other than +1 or -1 reads as one
        # that does not parse
        assert cli.main([command, *argv]) == 2
        assert capsysbinary.readouterr().out == b"error: InputError\n" + message

    def test_p1_hinted_primes_are_tagged_user_asserted(self):
        r = run_cli(
            "diagram-check", "--variety", "P1",
            "--f", "(t^9 + t + 1)/(t^9 + 2) + eps", "--g", "(t + 3)/(t - 7)",
            "--factor-hint", "t^9 + t + 1=t^9 + t + 1",
            "--factor-hint", "t^9 + 2=t^9 + 2",
            "--factor-hint", "t^11 - 4*t^10 - 21*t^9 + t^3 - 3*t^2 - 25*t - 21"
                             "=t^9 + t + 1,t + 3,t - 7")
        assert r.returncode == 0
        assert "provenance factor tags: user-asserted" in r.stdout.decode().splitlines()

    def test_p1_hinted_arc_prime_divides_the_tangent2_denominator(self):
        # the tangent2 denominator (t - 2)(t - 3)(t^9 + t + 1) has no hint of
        # its own; dividing it by the arcs' primes leaves nothing to factor
        r = run_cli(
            "diagram-check", "--variety", "P1",
            "--f", "(t^9 + t + 1 + eps)/((t-1)^9)", "--g", "(t - 2)/(t-3)",
            "--factor-hint", "t^9 + t + 1=t^9 + t + 1")
        assert r.returncode == 0
        lines = r.stdout.decode().splitlines()
        assert "verdict: pass" in lines
        assert "provenance factor tags: proved, user-asserted" in lines

    @pytest.mark.parametrize("f, symbol, form, difference", [
        ("x + eps/y", "x + eps*(1/y)", "((-1)/(x*y^2 - x*y))*dy",
         "V(y): [((-1)/(x*y - x))*dy] / (y)"),
        ("x + eps/(x-1)", "x + eps*(1/(x - 1))", "((-1)/(x^2*y - x^2 - x*y + x))*dy",
         "V(x - 1): [((-1)/(x*y - x))*dy] / (x - 1)"),
    ])
    def test_diagram_fail_certificates_pinned(self, f, symbol, form, difference):
        # f1 has a pole on no arc's prime, so the difference there renders
        # as the boundary class of tangent2 alone
        r = run_cli("diagram-check", "--f", f, "--g", "y - 1")
        assert r.returncode == 1
        assert r.stdout.decode().splitlines() == [
            "claim: DiagramCommutes",
            "verdict: fail",
            f"input symbol: {{{symbol}, y - 1}}",
            f"witness tangent2 form: {form}",
            f"witness class differences: {difference}",
            "witness eps=0 face: agrees",
            "provenance factor tags: proved",
            "provenance arc count: 2",
        ]

    def test_p1_errors_name_the_point_by_value(self):
        r = run_cli("d-eps", "--variety", "P1",
                    "--f", "(t-1)*(t-1)/((t+1)*(t+1)) + eps", "--g", "(t - 2)/(t+3)")
        assert r.returncode == 2
        assert r.stdout.decode().splitlines() == [
            "error: EpsDatumIrregular",
            "message: eps datum for component 1 is irregular: "
            "nu(1) < 1 along the component",
        ]

    def test_tangent_cocycle_fail_exits_1(self):
        r = run_cli("tangent-cocycle", "--arc", "x | 1 | y | +1")
        assert r.returncode == 1

    def test_tangent_cocycle_repeated_arcs_structured_pinned(self):
        # on V(x), x - 1 is -1, so the first two arcs there multiply to 1 and
        # drop out before the third; the arcs on V(y - 2) cancel, and the two
        # on V(x + y) square their unit
        arcs = ["x + y | 1 | y + 3 | -1", "x | 1 | x - 1 | +1", "x | 1 | x - 1 | +1",
                "y - 2 | x | x + 3 + eps*y | -1", "x | y | x - 1 | +1",
                "x + y | 1 | y + 3 | -1", "y - 2 | x | x + 3 + eps*y | +1"]
        argv = ["tangent-cocycle", "--format", "structured"]
        for arc in arcs:
            argv += ["--arc", arc]
        r = run_cli(*argv)
        assert r.returncode == 1
        assert r.stdout.decode().splitlines() == [
            "command: tangent-cocycle",
            "variety: A2",
            "seed: 0",
            "arg arc:",
            *(f"  {arc}" for arc in arcs),
            "claim: TangentCocycle",
            "verdict: fail",
            "input arcs: arc(V(x + y), datum 1, unit y + 3, sign -1); "
            "arc(V(x), datum 1, unit x - 1, sign +1); "
            "arc(V(x), datum 1, unit x - 1, sign +1); "
            "arc(V(y - 2), datum x, unit x + 3 + eps*y, sign -1); "
            "arc(V(x), datum y, unit x - 1, sign +1); "
            "arc(V(x + y), datum 1, unit y + 3, sign -1); "
            "arc(V(y - 2), datum x, unit x + 3 + eps*y, sign +1)",
            "witness eps=0 cycle: (1/(x - 1) at V(x)) * (y^2 + 6*y + 9 at V(x + y))",
            "witness tangent classes: V(x): [((-y - 2)/(x - 1))*dx] / (x); "
            "V(x + y): [(2/(y + 3))*dy] / (x + y)",
            "provenance scope: tangent classes of families not arising from the "
            "symbol boundary are computed by the same formula but carry no "
            "independent cross-check",
            "status: 1",
        ]

    def test_weil_structured(self):
        r = run_cli("weil-check", "--f", "t - 1", "--g", "t - 5",
                    "--format", "structured")
        lines = r.stdout.decode().splitlines()
        assert "witness component norms: 5 -> 4; 1 -> -1/4; INF -> -1" in lines
        assert "witness norm product: 1" in lines
        assert lines[-1] == "status: 0"

    def test_job_file_matches_flags(self, tmp_path):
        job = tmp_path / "job.txt"
        job.write_text("command: tame\nvariety: P1\n# lines starting with a hash are skipped\n"
                       "f: t^2 - t\ng: t - 2\nformat: structured\n")
        from_file = run_cli(job=job)
        from_flags = run_cli("tame", "--f", "t^2 - t", "--g", "t - 2",
                             "--variety", "P1", "--format", "structured")
        assert from_file.returncode == 0
        assert from_file.stdout == from_flags.stdout

    def test_job_file_format_overridden_by_flag(self, tmp_path):
        job = tmp_path / "job.txt"
        job.write_text("command: tame\nf: x\ng: y\nformat: structured\n")
        r = run_cli("--format", "text", job=job)
        assert r.stdout.decode().splitlines() == [
            "component V(y): x",
            "component V(x): 1/y",
        ]

    def test_format_before_or_after_the_command_gives_the_same_bytes(self, capsysbinary):
        outputs = []
        for argv in (["--format", "structured", "tame", "--f", "x", "--g", "y"],
                     ["tame", "--f", "x", "--g", "y", "--format", "structured"],
                     ["--format=text", "tame", "--format", "structured", "--f", "x",
                      "--g", "y"]):
            assert cli.main(argv) == 0
            outputs.append(capsysbinary.readouterr().out)
        assert outputs[0].startswith(b"command: tame\n")
        assert outputs[0] == outputs[1] == outputs[2]
        assert cli.main(["--format", "text", "tame", "--f", "x", "--g", "y"]) == 0
        assert capsysbinary.readouterr().out == b"component V(y): x\ncomponent V(x): 1/y\n"

    def test_command_beside_job_file_is_an_input_error(self, tmp_path, capsysbinary):
        job = tmp_path / "job.txt"
        job.write_text("command: tame\nf: x\ng: y\n")
        status = cli.main(["--job", str(job), "div", "--f", "x*y"])
        assert status == 2
        assert capsysbinary.readouterr().out == (
            b"error: InputError\n"
            + f"message: --job {str(job)!r} and command 'div' given together; "
              f"give one\n".encode())

    def test_job_file_repeatable_component(self, tmp_path):
        job = tmp_path / "job.txt"
        job.write_text("command: cycle-check\ncomponent: x | y\n"
                       "component: y | 1/x\n")
        r = run_cli(job=job)
        assert r.returncode == 0

    def test_job_file_without_command(self, tmp_path):
        job = tmp_path / "job.txt"
        job.write_text("f: x\n")
        r = run_cli(job=job)
        assert r.returncode == 2

    @staticmethod
    def _job_error(path, capsysbinary):
        # exit 2 with the InputError report; exit 1 is kept for failed identities
        status = cli.main(["--job", str(path)])
        out = capsysbinary.readouterr().out.decode()
        assert status == 2, out
        assert out.startswith("error: InputError\nmessage: "), out
        return out.splitlines()[1]

    def test_job_file_seed_must_be_an_integer(self, tmp_path, capsysbinary):
        job = tmp_path / "job.txt"
        job.write_text("command: tame\nseed: abc\nf: x\ng: y\n")
        assert self._job_error(job, capsysbinary) == \
            f"message: {job}:2: seed must be an integer"

    def test_missing_job_file(self, tmp_path, capsysbinary):
        job = tmp_path / "absent.txt"
        assert self._job_error(job, capsysbinary).startswith(
            f"message: {job}: cannot read the job file")

    def test_job_file_format_must_be_known(self, tmp_path, capsysbinary):
        job = tmp_path / "job.txt"
        job.write_text("command: tame\nf: x\ng: y\nformat: xml\n")
        assert self._job_error(job, capsysbinary) == \
            f"message: {job}:4: format must be text or structured"

    def test_job_file_unknown_key(self, tmp_path, capsysbinary):
        job = tmp_path / "job.txt"
        job.write_text("command: tame\nf: x\nfoo: bar\ng: y\n")
        assert self._job_error(job, capsysbinary) == \
            "message: tame takes no key 'foo'"

    def test_p1_roots_with_large_constants(self):
        # the factorizer's work does not grow with the size of the constant term
        r = run_cli("div", "--variety", "P1", "--f",
                    "(t-123456789012)*(t+98765432109876)*(t^2+3)", timeout=10)
        assert r.returncode == 0
        assert r.stdout.decode().splitlines() == [
            "cycle: [123456789012] + [-98765432109876] + [V(t^2 + 3)] - 4*[INF]",
            "total degree: 0",
        ]

    def test_byte_determinism(self):
        args = ("diagram-check", "--f", "x + eps", "--g", "y + eps",
                "--format", "structured")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


# minimal arguments per command and variety, for the in-process smoke test
_SMOKE_ARGS = {
    "tame": {"A2": ["--f", "x", "--g", "y"], "P1": ["--f", "t", "--g", "t - 2"]},
    "div": {"A2": ["--f", "x*y"], "P1": ["--f", "t - 1"]},
    "div-on-curve": {"A2": ["--f", "y", "--curve", "x"], "P1": ["--f", "t - 1"]},
    "cycle-check": {"A2": ["--component", "x | y"], "P1": ["--component", "t | 2"]},
    "tame-certify": {"A2": ["--component", "x | y", "--f", "x", "--g", "y"],
                     "P1": ["--component", "t | 2", "--f", "t", "--g", "t - 2"]},
    "complex-check": {"A2": ["--f", "x", "--g", "y"], "P1": ["--f", "t", "--g", "t - 2"]},
    "weil-check": {"A2": ["--f", "x", "--g", "y"], "P1": ["--f", "t", "--g", "t - 2"]},
    "tangent2": {"A2": ["--f", "x + eps", "--g", "y"], "P1": ["--f", "t + eps", "--g", "t - 2"]},
    "d-eps": {"A2": ["--f", "x + eps", "--g", "y"],
              "P1": ["--f", "(t - 1)/(t + 1) + eps", "--g", "(t - 2)/(t + 3)"]},
    "tangent3": {
        "A2": ["--curve", "x", "--datum", "1", "--unit", "y", "--sign", "+1"],
        "P1": ["--curve", "t", "--datum", "1", "--unit", "1 + eps*t", "--sign", "+1"]},
    "diagram-check": {"A2": ["--f", "x + eps", "--g", "y"],
                      "P1": ["--f", "(t - 1)/(t + 1) + eps", "--g", "(t - 2)/(t + 3)"]},
    "tangent-cocycle": {"A2": ["--arc", "x | 1 | y | +1"],
                        "P1": ["--arc", "t | 1 | 1 + eps*t | +1"]},
}


@pytest.mark.parametrize("variety", ["A2", "P1"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_runs_in_process(command, variety, capsysbinary):
    argv = [command, "--variety", variety] + _SMOKE_ARGS[command][variety]
    status = cli.main(argv)
    out = capsysbinary.readouterr().out.decode()
    assert status in (0, 1, 2, 3), out
    only = cli._TABLE[command][1] or variety
    if only != variety:
        assert status == 2
        assert f"message: {command} runs on {only}" in out
    else:
        assert "error:" not in out


def test_div_on_curve_on_p1_takes_no_curve(capsysbinary):
    # on P1 the curve is the line itself, so a --curve is an input error
    status = cli.main(["div-on-curve", "--variety", "P1", "--f", "t-1", "--curve", "t^2+1"])
    assert status == 2
    assert capsysbinary.readouterr().out == (
        b"error: InputError\n"
        b"message: div-on-curve on P1 takes no --curve: the curve is the line\n")


def test_readme_command_block_matches_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```text\ntame ", 1)[1].split("```", 1)[0]
    entries = {}
    for line in ("tame " + block).splitlines():
        if line.startswith(" "):
            entries[name] += line
        else:
            name = line.split()[0]
            entries[name] = line
    assert tuple(entries) == cli.COMMANDS
    for command, text in entries.items():
        only = cli._TABLE[command][1]
        assert ("(A2 only)" in text) == (only == "A2"), command
        assert ("(P1 only" in text) == (only == "P1"), command


# stdout of jobs whose P1 points have degree 2 and 3, byte for byte
_P1_BYTE_PINS = [
    (["tame", "--f", "(t^2+t+1)^2*(t-3)", "--g", "t^3 - 2", "--variety", "P1"],
     b"component 3: 1/25\n"
     b"component V(t^3 - 2): -5*t^2 - 7*t - 9\n"
     b"component INF: -1\n"),
    (["tame", "--f", "t^2 - 2", "--g", "t + 3", "--variety", "P1"],
     b"component -3: 7\n"
     b"component V(t^2 - 2): -1/7*t + 3/7\n"),
    (["weil-check", "--f", "(t^2+t+1)^2*(t-3)", "--g", "(t^3 - 2)/(2*t+7)"],
     b"claim: Reciprocity\n"
     b"verdict: pass\n"
     b"input f: t^5 - t^4 - 3*t^3 - 7*t^2 - 5*t - 3\n"
     b"input g: (t^3 - 2)/(2*t + 7)\n"
     b"witness component norms: 3 -> 13/25; -7/2 -> -32/19773; "
     b"V(t^2 + t + 1) -> 1521; V(t^3 - 2) -> -25; INF -> 1/32\n"
     b"witness norm product: 1\n"
     b"provenance factor tags: proved\n"),
    (["div-on-curve", "--f", "1/(t - 1)", "--variety", "P1"],
     b"cycle: -[1] + [INF]\n"
     b"total degree: 0\n"),
]


@pytest.mark.parametrize("argv, expected", _P1_BYTE_PINS,
                         ids=[argv[0] for argv, _ in _P1_BYTE_PINS])
def test_p1_higher_degree_points_byte_pins(argv, expected, capsysbinary):
    assert cli.main(argv) == 0
    assert capsysbinary.readouterr().out == expected


# Seeded corpus of in-process CLI jobs: every command on both varieties in
# both formats, with malformed, missing and foreign-variety inputs and factor
# hints.  The keys per command are spelled out here, not read from cli, so
# the corpus stays what it was when its digest was frozen.
_CORPUS_KEYS = {
    "tame": ("f", "g"), "div": ("f",), "div-on-curve": ("f", "curve"),
    "cycle-check": ("component",), "tame-certify": ("component", "f", "g"),
    "complex-check": ("f", "g"), "weil-check": ("f", "g"),
    "tangent2": ("f", "g"), "d-eps": ("f", "g"),
    "tangent3": ("curve", "datum", "unit", "sign"),
    "diagram-check": ("f", "g"), "tangent-cocycle": ("arc",),
}
_DUAL_COMMANDS = ("tangent2", "d-eps", "diagram-check")
_CORPUS_POOLS = {
    "A2": {
        "plain": ["x", "y", "x - 1", "y - x^2", "x*y - y", "x + y - 3",
                  "(x - 2)/(y + 1)", "x^2 + y^2 - 1", "3", "y^2 - x^3"],
        "dual": ["x + eps", "y + eps*x", "x*(y - 1) + eps*y", "(x + 1)/y + eps",
                 "y - 1", "x + eps/y", "y - x^2 + eps"],
        "curve": ["x", "y - x^2", "x + y - 1", "y^2 - x^3", "x*y", "0"],
        "datum": ["1", "y", "x + 1", "0", "1/x"],
        "unit": ["y", "1 + eps*y", "x + eps", "y - 1 + eps*x", "x"],
        "component": ["x | y", "y | 1/x", "x - 1 | y + 2", "y - x^2 | x",
                      "x*y | 2", "x", "x | y + eps"],
        "hint": ["x*y=x,y", "x^2 - y^2=x - y", "y - x^2=y - x^2", "x*y"],
    },
    "P1": {
        "plain": ["t", "t - 2", "t^2 - t", "(t - 1)/(t + 1)", "t^2 + 1",
                  "t^3 - 2", "5", "(t^2 - 2)/(t + 3)"],
        "dual": ["(t - 1)/(t + 1) + eps", "(t - 2)/(t + 3)", "t + eps",
                 "(t + 2)/(t - 5) + eps*t/(t - 5)", "(t^2 + 1)/(t^2 + 3) + eps"],
        "curve": ["t", "t - 3", "t^2 + 1", "t^2 - 1", "3"],
        "datum": ["1", "t", "2", "1/t"],
        "unit": ["1 + eps*t", "t - 2 + eps", "t + 1", "t"],
        "component": ["t | 2", "t - 1 | 3", "t^2 + 1 | t", "t"],
        "hint": ["t^2 - 1=t - 1", "t^2 + 1=t^2 + 1", "t^2 - t=t", "t"],
    },
}
_CORPUS_BAD = ["x + ", "x*eps*eps", "1/0", "w + 1", "t + x", "(x", ""]
_CORPUS_SIGNS = ["+1", "-1", "+1", "-1", "2", "a"]


def _corpus_value(rng, key, command, variety):
    pools = _CORPUS_POOLS[variety]
    if rng.random() < 0.12:
        other = _CORPUS_POOLS["P1" if variety == "A2" else "A2"]
        return rng.choice(_CORPUS_BAD + other["plain"])
    if key == "sign":
        return rng.choice(_CORPUS_SIGNS)
    if key == "arc":
        if rng.random() < 0.1:
            return "x | 1 | y"
        return " | ".join([rng.choice(pools["curve"]), rng.choice(pools["datum"]),
                           rng.choice(pools["unit"]), rng.choice(_CORPUS_SIGNS)])
    if key in ("f", "g"):
        return rng.choice(pools["dual" if command in _DUAL_COMMANDS else "plain"])
    return rng.choice(pools[key])


def cli_corpus(seed=19, per_case=8):
    """argv lists: per_case jobs per command, variety and format."""
    rng = random.Random(seed)
    jobs = []
    for command, keys in _CORPUS_KEYS.items():
        for variety in ("A2", "P1"):
            for fmt in ("text", "structured"):
                for _ in range(per_case):
                    argv = [command, "--variety", variety, "--format", fmt,
                            "--seed", str(rng.choice([0, 1, 7]))]
                    for key in keys:
                        if key == "curve" and command == "div-on-curve" and variety == "P1":
                            continue
                        if key in ("component", "arc"):
                            for _ in range(rng.randint(0, 3)):
                                argv += [f"--{key}", _corpus_value(rng, key, command, variety)]
                        elif rng.random() >= 0.08:
                            argv += [f"--{key}", _corpus_value(rng, key, command, variety)]
                    if rng.random() < 0.2:
                        argv += ["--factor-hint", rng.choice(_CORPUS_POOLS[variety]["hint"])]
                    jobs.append(argv)
    return jobs


def test_cli_corpus_renders_as_frozen(capsysbinary):
    # the digest was frozen from the if/elif dispatch that preceded the
    # command table, so every job keeps its stdout and exit code
    digest = hashlib.sha256()
    statuses = collections.Counter()
    jobs = cli_corpus()
    for argv in jobs:
        status = cli.main(argv)
        out = capsysbinary.readouterr().out
        statuses[status] += 1
        digest.update(repr((argv, status)).encode() + b"\0" + out + b"\0")
    assert len(jobs) == 384 and set(statuses) == {0, 1, 2}
    assert digest.hexdigest()[:16] == frozen.CLI_CORPUS_DIGEST
    assert dict(statuses) == frozen.CLI_CORPUS_STATUSES
