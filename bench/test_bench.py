"""Checks of the benchmark itself: generators, correctness checks, spans.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import clijobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _render_pairs(pairs):
    return [(f.render(), g.render()) for f, g in pairs]


def test_diagram_default_seed_is_the_acceptance_pool():
    from test_acceptance import pool_dual_symbols

    ours = WORKLOADS["diagram"].pool(run.DEFAULT_SEEDS["diagram"])
    theirs = pool_dual_symbols(100, seed=105)
    assert [s.render() for s in ours] == [s.render() for s in theirs]


def test_complex_default_seed_is_the_acceptance_pool():
    from test_gersten import coprime_pool_pair

    rng = random.Random(102)
    theirs = [coprime_pool_pair(rng) for _ in range(100)]
    ours = WORKLOADS["complex"].pool(run.DEFAULT_SEEDS["complex"])
    assert _render_pairs(ours) == _render_pairs(theirs)


def test_other_seed_is_another_draw_of_the_same_generator():
    from test_acceptance import pool_dual_symbols
    from test_gersten import coprime_pool_pair

    other = [s.render() for s in WORKLOADS["diagram"].pool(106)]
    assert other == [s.render() for s in pool_dual_symbols(100, seed=106)]
    assert other != [s.render() for s in WORKLOADS["diagram"].pool(105)]

    rng = random.Random(103)
    ours = _render_pairs(WORKLOADS["complex"].pool(103))
    assert ours == _render_pairs([coprime_pool_pair(rng) for _ in range(100)])
    assert ours != _render_pairs(WORKLOADS["complex"].pool(102))


def test_timed_sample_keeps_each_structure_and_redraws_its_constants():
    rng = random.Random(1)
    for name, w in WORKLOADS.items():
        for plan in w.plans(0, 50):
            assert w.key(w.recolor(plan, rng)) == w.key(plan)
        assert repr(w.sample(1, 16)) != repr(w.sample(2, 16)), name


def test_powers_check_accepts_the_truth_and_rejects_a_wrong_multiplicity():
    from tamearc.factor import Factorization

    w = WORKLOADS["powers"]
    for inst in WORKLOADS["powers"].pool(3)[:5]:
        fac = w.run(inst)
        assert w.check(inst, fac)[0]
        first = fac.factors[0]
        wrong = Factorization(fac.unit, (type(first)(first.poly, first.multiplicity + 1,
                                                     first.certificate),)
                              + fac.factors[1:])
        assert not w.check(inst, wrong)[0]


def test_cli_check_is_byte_exact_and_needs_exit_zero():
    argv, expected = clijobs.README_JOBS[0]
    assert clijobs.check_cli(argv, expected, 0, expected.encode())
    assert not clijobs.check_cli(argv, expected, 0, expected.encode() + b"\n")
    assert not clijobs.check_cli(argv, expected, 3, expected.encode())
    cert = ("cycle-check", "--format", "structured")
    assert clijobs.check_cli(cert, None, 0, b"claim: KerDiv\nverdict: pass\n")
    assert not clijobs.check_cli(cert, None, 0, b"claim: KerDiv\nverdict: fail\n")


def test_wrappers_rebind_every_binding_and_restore_it():
    import tamearc
    import tamearc.cli  # noqa: F401  (binds parse_expr and friends)
    from tamearc import poly

    original = poly.poly_gcd
    homes = [m for key, m in sys.modules.items()
             if key == "tamearc" or key.startswith("tamearc.")
             if getattr(m, "poly_gcd", None) is original]
    assert len(homes) >= 4
    rmul = poly.MultiPoly.__dict__["__rmul__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.is_installed()
        assert all(m.poly_gcd is not original for m in homes)
        assert poly.MultiPoly.__dict__["__rmul__"] is not rmul
        assert tamearc.poly_gcd(poly.MultiPoly.variable("x"),
                                poly.MultiPoly.variable("x")).degree() == 1
    finally:
        tracer.uninstall()
    assert not spans.is_installed()
    assert all(m.poly_gcd is original for m in homes)
    assert poly.MultiPoly.__dict__["__rmul__"] is rmul
    assert tracer.layer_metrics()["poly.gcd.calls"] == 1


def test_ref_metrics_scale_each_instance_by_its_calibration():
    # The second instance ran while the calibration took twice as long as
    # the reference, so its ref_ time is half its wall time.
    ref = run.REF_CALIB_S
    metrics = run.end_to_end([0.1, 0.4, 0.1], [ref, 2 * ref, ref], 1.0, 2048)
    assert abs(metrics["latency_p50_ms"][0] - 100) < 1e-9
    assert abs(metrics["ref_throughput_per_s"][0] - 3 / 0.4) < 1e-9
    assert abs(metrics["ref_latency_p50_ms"][0] - 100) < 1e-9
    assert metrics["peak_rss_mb"][0] == 2.0
    assert 0 < run.calibrate() < 1


def _traced_counts(n):
    w = WORKLOADS["diagram"]
    tracer = spans.Tracer()
    for i, inst in enumerate(WORKLOADS["diagram"].pool(105)[:n]):
        tracer.instance = i
        assert run.attempt(w, inst, tracer)[1]
    return {k: v for k, v in tracer.layer_metrics().items()
            if k.endswith(".calls") or k in ("poly.max_degree", "poly.gcd.trivial_frac")}


def test_traced_diagram_counts_repeat_exactly():
    first = _traced_counts(3)
    assert first == _traced_counts(3)
    assert first["tangent.diagram_check.calls"] == 3
    assert first["poly.gcd.calls"] > 0 and first["poly.resultant.calls"] == 0


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "complex", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
