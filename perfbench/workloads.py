"""The benchmark's workloads: fixed lists of ``dt4`` command lines.

Each workload is one pass over its invocations; a run repeats passes for
the requested number of seconds.  The seed only fixes the order of the
invocations inside each pass, so every seed runs the same work and the
program sees nothing but the generated argv.  Why each workload exists is
written next to it and in README.md.
"""

import random
import re

WORKLOADS = {
    # Most of the time is multivariate gcd inside EqScalar
    # canonicalisation; no q-series, no residues.  Target of the
    # factored-denominator work (ROADMAP item 3).
    "symbolic": {
        "why": "fully symbolic localize on four presets; gcd in EqScalar "
               "canonicalisation dominates, no q-series or residues",
        "presets": ("plane", "quadric", "hirzebruch2", "hirzebruch3"),
        "invocations": (
            ("localize", "--surface", "plane", "--divisor", "H=2",
             "--n1", "1", "--n2", "1"),
            ("localize", "--surface", "quadric", "--divisor", "A=1,B=1",
             "--n1", "1", "--n2", "0"),
            ("localize", "--surface", "hirzebruch2", "--divisor", "C0=1,F=2",
             "--n1", "1", "--n2", "0"),
            ("localize", "--surface", "hirzebruch3", "--divisor", "C0=1,F=3",
             "--n1", "0", "--n2", "1"),
            ("localize", "--surface", "plane", "--divisor", "H=1",
             "--n1", "1", "--n2", "0", "--audit"),
        ),
    },
    # The sp-residue path: Laurent expansion and polynomials carrying sp,
    # which the symbolic workload never reaches.
    "residue": {
        "why": "mochizuki --n 1 on all presets; Laurent expansion and "
               "residues in sp, a path symbolic never takes",
        "presets": ("plane", "quadric", "hirzebruch1", "hirzebruch2",
                    "hirzebruch3"),
        "invocations": (
            ("mochizuki", "--surface", "plane", "--divisor", "H=0",
             "--n", "1"),
            ("mochizuki", "--surface", "plane", "--divisor", "H=0",
             "--split1", "H=1", "--n", "1"),
            ("mochizuki", "--surface", "quadric", "--divisor", "A=1",
             "--n", "1"),
            ("mochizuki", "--surface", "hirzebruch1", "--divisor", "F=1",
             "--n", "1"),
            ("mochizuki", "--surface", "hirzebruch2", "--divisor", "F=1",
             "--n", "1"),
            ("mochizuki", "--surface", "hirzebruch3", "--divisor", "F=1",
             "--n", "1"),
        ),
    },
    # 29 small sums per fit on the exact parameter line, disjoint-union
    # surfaces, exact elimination; one process pool per sum under --jobs 2
    # and the same kind of sums serially, so the pool's cost shows.
    "battery": {
        "why": "two universality fits, one with a process pool per sum; "
               "line specialisation, union surfaces, exact elimination",
        "presets": ("plane", "quadric", "hirzebruch1", "hirzebruch2",
                    "hirzebruch3"),
        "invocations": (
            ("fit", "--n1", "1", "--n2", "0", "--degree-bound", "1",
             "--jobs", "2"),
            ("fit", "--n1", "0", "--n2", "1", "--degree-bound", "1"),
        ),
    },
    # Control: q-series products and short commands where interpreter
    # start and import dominate.  Localization changes must not move it,
    # and work moved into import shows here first.
    "series": {
        "why": "q-series products plus short commands dominated by start-up;"
               " the control that localization changes must not move",
        "presets": ("plane", "quadric"),
        "invocations": (
            ("zseries", "--order", "80"),
            ("zseries", "--order", "10"),
            ("zseries", "--order", "30"),
            ("chamber", "--k", "1", "--r", "2", "--delta", "1",
             "--t", "1", "--u", "1"),
            ("chamber", "--k", "2", "--r", "2", "--delta", "3/2",
             "--t", "1", "--u", "2"),
            ("fixedloci", "--m", "1", "--n", "6"),
            ("fixedloci", "--m", "2", "--n", "5"),
            ("localize", "--chi-numbers", "2,2,2,0,0"),
            ("localize", "--chi-numbers", "3,1,0,1,1"),
            ("localize", "--surface", "quadric", "--chi-numbers", "1,1,1,0,0"),
        ),
    },
}


def invocation_id(argv):
    """File-name-safe identifier of one command line."""
    return re.sub(r"[^A-Za-z0-9.=_-]+", "_", "_".join(argv))


def pass_order(name, seed, pass_index):
    """Invocations of one pass, shuffled by the seed and the pass index."""
    order = list(WORKLOADS[name]["invocations"])
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order
