"""Record the reference report of every workload invocation.

    python3 perfbench/record.py [--check]

Run from the root of a dt4 checkout.  Each invocation runs once as
``python -m dt4.cli``; it must exit 0 and pass every check in its report.
Every fully symbolic ``localize`` value is also recomputed through the
rational-point (``eps``) route of the library, an independent
specialisation of the chart parameters; the printed symbolic value and
that route must agree exactly at one point (s, e1, e2), so the references
are not merely frozen from the code under test.  With ``--check`` nothing
is written and a differing reference is an error.
"""

import argparse
import ast
import json
import operator
import os
import sys
from fractions import Fraction

import run
from workloads import WORKLOADS, invocation_id

sys.path.insert(0, os.path.join(run.ROOT, "src"))

# a point where no chart weight of the presets degenerates, and a value
# of s at which both routes are compared as plain rationals
EPS_POINT = (Fraction(3, 7), Fraction(-5, 11))
S_POINT = Fraction(13, 17)

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow}


def evaluate_printed(text, values):
    """Exact value of a printed rational function at named Fractions."""
    def ev(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return values[node.id]
        raise ValueError(f"unexpected term in {text!r}")
    return ev(ast.parse(text.replace("^", "**"), mode="eval").body)


def eps_route_value(argv):
    """A fully symbolic ``localize`` recomputed at EPS_POINT, then at s."""
    from dt4.cli import build_parser
    from dt4.localize import PrefactorData, typeII_component_integral
    from dt4.surfaces import from_preset
    args = build_parser().parse_args(list(argv))
    model = from_preset(args.surface)
    pre = PrefactorData.from_model(model, args.divisor,
                                   variant=args.prefactor_variant,
                                   alpha_pair=args.alpha_pair)
    value = typeII_component_integral(model, args.divisor, n1=args.n1,
                                      n2=args.n2, prefactor=pre,
                                      eps=EPS_POINT)
    return value.specialize({"s": S_POINT}).as_fraction()


def symbolic_value_at_point(text):
    e1, e2 = EPS_POINT
    return evaluate_printed(text, {"s": S_POINT, "sp": Fraction(0),
                                   "e1": e1, "e2": e2})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored references only")
    args = parser.parse_args(argv)
    os.makedirs(run.OUT, exist_ok=True)
    os.makedirs(run.REFS, exist_ok=True)
    refs = run.References(run.REFS)
    bad = 0
    for name, spec in WORKLOADS.items():
        for argv_ in spec["invocations"]:
            inv = invocation_id(argv_)
            res = run.run_process([sys.executable, "-m", "dt4.cli", *argv_],
                                  3600)
            if args.check:
                why = run.failure(inv, res, refs)
            elif res.code != 0:
                why = f"exit {res.code}"
            elif not all(c["pass"] for c in json.loads(res.stdout)["checks"]):
                why = "a check failed"
            else:
                why = None
            if why is None and name == "symbolic":
                value = json.loads(res.stdout)["results"]["value"]
                if eps_route_value(argv_) != symbolic_value_at_point(value):
                    why = "eps route disagrees with the symbolic value"
            if why is not None:
                bad += 1
                print(f"FAIL {inv}: {why}")
                continue
            if not args.check:
                with open(os.path.join(run.REFS, inv + ".json"), "wb") as fh:
                    fh.write(res.stdout)
            print(f"ok   {inv} ({res.wall:.2f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
