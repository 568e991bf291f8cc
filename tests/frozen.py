"""Frozen expected values, computed by tests/oracles.py before the main build.

Regenerate with `python3 tests/oracles.py` and compare by eye; tests import
these constants rather than calling the slow oracle on every run (a few tests
also re-derive single values live to keep the oracle honest).
"""

from fractions import Fraction

# local intersection multiplicities dim_Q O_{(a,b)}/(p, h)
INTERSECTION_MULTIPLICITY = {
    ("x", "y", (0, 0)): 1,
    ("y - x^2", "y", (0, 0)): 2,
    ("y - x^2", "x - y", (0, 0)): 1,
    ("x^2 + y^2 - 2", "x - y", (1, 1)): 1,
    ("x^2 + y^2 - 2", "x + y - 2", (1, 1)): 2,
}

# sha256 prefix of the rendered cycles of test_geometry.intersection_sweep,
# computed with the k-fold linear search of canonical_point that preceded
# the characteristic-polynomial route
INTERSECTION_SWEEP_DIGEST = "30339cf0646076ea"
# the same for the two random sextics of
# test_acceptance.test_two_random_sextics_meet_within_budget
SEXTIC_CYCLE_DIGEST = "af5ee639574b845f"
# the same for the two random septics of
# test_acceptance.test_two_random_septics_meet_within_budget, computed while
# intersection_cycle still compared two projections
SEPTIC_CYCLE_DIGEST = "471891f84de84a75"

# sha256 prefix of the rendered certificates and errors of
# test_tangent.diagram_sweep, and its verdict counts, computed with the class
# test by reduced forms that preceded the exact-division test
DIAGRAM_SWEEP_DIGEST = "212f704919f7daac"
DIAGRAM_SWEEP_VERDICTS = {"pass": 109, "fail": 40, "EpsDatumIrregular": 166, "ScopeError": 85}

# tame components on P1 at rational points, via sympy limits of the formula
TAME_T_TMINUS2 = {0: Fraction(-1, 2), 2: Fraction(2), "INF": Fraction(-1)}
TAME_STEINBERG_T = {0: Fraction(1), 1: Fraction(1), "INF": Fraction(1)}

# resultant conventions pinned against sympy
RES_Y_X_Y = "x"          # deg_y(p) = 0 convention: Res = p^{deg_y q}
RES_Y_YMINUSX2_Y = "x^2"
RES_T_T2MINUS2_TPLUS3 = 7

# sha256 prefix of (argv, exit code, stdout) over test_expr_cli.cli_corpus,
# and its exit-code counts, computed with the if/elif dispatch of cli.run_job
# that preceded the command table
CLI_CORPUS_DIGEST = "8c80ecd6c301c0ac"
CLI_CORPUS_STATUSES = {0: 152, 1: 16, 2: 216}

# sha256 prefix of the rendered factorizations of
# test_factor.factorization_sweep, computed while the univariate and the
# plane factorizer each had their own Hensel tree and subset search
FACTORIZATION_SWEEP_DIGEST = "f631c1a4ee29d203"

# sha256 prefix of the rendered factorizations of
# test_factor.linear_factor_sweep, computed while a degree-1 polynomial left
# after the hints still took the squarefree split and the sort key
LINEAR_FACTOR_SWEEP_DIGEST = "6287060a1bcb8893"

# sha256 prefix of the rendered factorizations of
# test_factor.large_factor_sweep, computed at the parent of the change that
# moved factor.py's F_q[t] arithmetic into poly's dense kernel
LARGE_FACTOR_SWEEP_DIGEST = "a40c5927b2213e08"

# sha256 prefix of the rendered arcs of test_tangent.multiplicity_sweep,
# computed while d_eps built each datum by three RatFunc products and an
# inverse
MULTIPLICITY_SWEEP_DIGEST = "d742e151a2af6de5"
