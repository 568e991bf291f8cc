"""CLI jobs for the ``cli`` workload and their independent checks.

This module does not import tamearc: the jobs run in fresh interpreters.
"""

import random

# The 13 structured jobs of test_structured_output_byte_identical_across_runs.
STRUCTURED_JOBS = (
    ("tame", "--f", "x*y - y", "--g", "x + 2"),
    ("tame", "--f", "t^2 - t", "--g", "t - 2", "--variety", "P1"),
    ("div", "--f", "x^2 - y^2"),
    ("div-on-curve", "--f", "y - 1", "--curve", "x"),
    ("cycle-check", "--component", "x | y", "--component", "y | 1/x"),
    ("tame-certify", "--component", "x | y", "--component", "y | 1/x",
     "--f", "y", "--g", "x"),
    ("complex-check", "--f", "x - 3", "--g", "y - x^2"),
    ("weil-check", "--f", "t - 1", "--g", "t - 5"),
    ("tangent2", "--f", "x + eps", "--g", "y + eps"),
    ("d-eps", "--f", "x + eps", "--g", "y"),
    ("tangent3", "--curve", "x", "--datum", "1", "--unit", "y",
     "--sign", "+1"),
    ("diagram-check", "--f", "x + eps", "--g", "y + eps"),
    ("tangent-cocycle", "--arc", "x | 1 | 1 + eps*y | +1"),
)

# The README examples with the stdout the README shows for them.
README_JOBS = (
    (("tame", "--f", "x", "--g", "y"),
     "component V(y): x\ncomponent V(x): 1/y\n"),
    (("tame", "--f", "t", "--g", "t - 2", "--variety", "P1"),
     "component 0: -1/2\ncomponent 2: 2\ncomponent INF: -1\n"),
    (("d-eps", "--f", "x + eps", "--g", "y"),
     "arcs:\n  arc(V(x), datum 1, unit y, sign +1)\n"
     "  arc(V(y), datum 0, unit x + eps, sign -1)\n"),
    (("tangent2", "--f", "x + eps", "--g", "y + eps"),
     "form: (1/(x*y))*dx + ((-1)/(x*y))*dy\n"),
    (("cycle-check", "--component", "x | y", "--component", "y | 1/x"),
     "claim: KerDiv\nverdict: pass\n"
     "input components: (y on V(x)) + (1/x on V(y))\n"
     "witness total divisor: 0\nprovenance seed: 0\n"
     "provenance factor tags: proved\n"),
)

_CERTIFICATE_COMMANDS = {"cycle-check", "tame-certify", "complex-check",
                         "weil-check", "diagram-check", "tangent-cocycle"}


def cli_jobs(seed):
    """One round of CLI jobs as (argv, expected stdout or None).

    Structured jobs carry ``--seed <seed>``, which only reorders the shears
    tried, so every verdict is fixed; the seed also shuffles the round.
    """
    jobs = [(job + ("--format", "structured", "--seed", str(seed)), None)
            for job in STRUCTURED_JOBS]
    jobs += list(README_JOBS)
    random.Random(seed).shuffle(jobs)
    return jobs


def check_cli(argv, expected, returncode, stdout):
    """Exit 0; README jobs byte for byte; certificates pass."""
    if returncode != 0:
        return False
    if expected is not None:
        return stdout == expected.encode()
    if argv[0] in _CERTIFICATE_COMMANDS:
        return b"\nverdict: pass\n" in stdout
    return True
