"""Command-line surface for the localization pipelines.

Every subcommand prints one JSON report on stdout; tables for humans go
to stderr under --pretty.  The report's ``parameters`` echo every parsed
argument except the run controls --jobs, --audit and --pretty.  Runs are
fully deterministic, so identical invocations produce byte-identical
reports.  Exit status is 0 exactly when every check listed in the report
passed, 1 on a domain error (any ``ValueError``, reported as the JSON
error object), 2 on a usage error.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from . import _HOME, __getattr__ as _public


def _bind(*names):
    """Bind public dt4 names (``dt4._HOME``) as globals of this module
    when a command runs, so it imports only the modules it needs.  A name
    that is already bound, for instance by a tracer that wrapped it, is
    kept."""
    scope = globals()
    for name in names:
        if name not in scope:
            scope[name] = _public(name)


def __getattr__(name):
    """``cli.NAME`` for a public name no command has bound yet (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


# -- argument parsing helpers ----------------------------------------------

def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _divisor(text):
    """Parse ``NAME=INT[,NAME=INT...]`` into a divisor mapping."""
    out = {}
    if not text.strip():
        return out
    for part in text.split(","):
        name, sep, coeff = part.partition("=")
        if not sep or not name.strip():
            raise argparse.ArgumentTypeError(
                f"divisor term {part!r} is not NAME=INT")
        try:
            out[name.strip()] = out.get(name.strip(), 0) + int(coeff)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"divisor coefficient {coeff!r} is not an integer")
    return out


def _int_at_least(text, lo):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < lo:
        raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
    return n


def _jobs(text):
    """Worker count: a positive integer, capped at the CPU count."""
    return min(_int_at_least(text, 1), os.cpu_count() or 1)


def _nonnegative(text):
    """A degree bound or a geometric genus: a nonnegative integer."""
    return _int_at_least(text, 0)


def _chi_numbers(text):
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            "expected CHI_L2,CHI_L,CHI_LINV,D_SQ,D_C1 (five integers)")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("chi numbers must be integers")


def _series_line(entries):
    terms = [f"[{e['coefficient']}] q^{e['exponent_num']}" for e in entries]
    return " + ".join(terms) if terms else "0"


# -- subcommands -----------------------------------------------------------
# Each returns (results, checks, pretty lines); ``main`` writes the report.

_SERIES_LABELS = {"typeI_series": "non-nested series",
                  "typeI_closed_form": "closed-form route",
                  "difference": "difference",
                  "typeII_conjecture_series": "nested conjecture"}


def cmd_zseries(args):
    _bind("z_typeI_series", "z_typeI_closed_form",
          "z_typeII_conjecture_series")
    lhs = z_typeI_series(args.order)
    rhs = z_typeI_closed_form(args.order)
    conj = z_typeII_conjecture_series(args.order)
    series = {"typeI_series": lhs, "typeI_closed_form": rhs,
              "difference": lhs - rhs, "typeII_conjecture_series": conj}
    # each series is serialised once; checks and tables read the entries
    results = {key: s.to_json_entries() for key, s in series.items()}
    checks = [("typeI-series-identity", not results["difference"]),
              ("typeII-conjecture-odd-vanishing",
               all(e["exponent_num"] % 2 == 0
                   for e in results["typeII_conjecture_series"]))]
    pretty = [f"  {label:<20}{_series_line(results[key])}"
              for key, label in _SERIES_LABELS.items()]
    results["truncation_order"] = str(lhs.truncation_order)
    return results, checks, pretty


def cmd_chamber(args):
    _bind("EllipticSurface", "Polarization", "in_stable_chamber", "is_ample",
          "wall_threshold")
    surface = EllipticSurface(args.k)
    threshold = wall_threshold(surface, args.r, args.delta)
    ample = (args.t > 0 and args.u > 0
             and is_ample(Polarization(args.t, args.u), surface))
    results = {"ample": ample, "threshold": str(threshold),
               "in_chamber": None}
    if ample:
        results["in_chamber"] = in_stable_chamber(
            Polarization(args.t, args.u), surface, args.r, args.delta)
    else:
        results["note"] = "polarization is outside the ample cone"
    pretty = [f"  ample        {ample}",
              f"  threshold    {threshold}",
              f"  in chamber   {results['in_chamber']}"]
    return results, [], pretty


def cmd_fixedloci(args):
    _bind("enumerate_typeII_K3")
    comps = enumerate_typeII_K3(args.m, args.n)
    points = 2 * args.n - 3
    results = {
        "typeII_components": comps,
        "component_count": len(comps),
        "all_vanish": all(c["vanishes"] for c in comps),
        "typeI_locus": {
            "kind": "hilbert_scheme_of_points",
            "num_points": points,
            "empty": points < 0,
            "description": ("deformation equivalent to the Hilbert scheme "
                            f"of {points} points on the surface"),
        },
    }
    pretty = [f"  {len(comps)} nested component(s) at twist m={args.m}, "
              f"charge n={args.n}"]
    for j in comps:
        pretty.append(f"    b={j['b']} (n1,n2)=({j['n1']},{j['n2']}) "
                      f"alpha=({j['alpha']['a']},{j['alpha']['b']}) "
                      f"vanishes={j['vanishes']}")
    pretty.append(f"  non-nested locus: {points}-point Hilbert scheme"
                  if points >= 0 else "  non-nested locus: empty")
    return results, [], pretty


def cmd_localize(args):
    _bind("FactoredScalar", "PrefactorData", "from_preset",
          "pure_s_monomial", "typeII_component_integral")
    audit_rows = [] if args.audit else None
    model = from_preset(args.surface)
    variant = {"variant": args.prefactor_variant,
               "alpha_pair": args.alpha_pair}
    if args.chi_numbers is not None:
        pre = PrefactorData.from_numbers(*args.chi_numbers, **variant)
    else:
        pre = PrefactorData.from_model(model, args.divisor, **variant)
    value = typeII_component_integral(
        model, args.divisor, n1=args.n1, n2=args.n2, prefactor=pre,
        jobs=args.jobs,
        audit=audit_rows.append if audit_rows is not None else None)
    # ratio against the leading nested-conjecture coefficient (1/4) 1/s
    ratio = value * FactoredScalar.const(4) * FactoredScalar.var("s")
    mono = pure_s_monomial(ratio)
    ratio_block = {"value": str(ratio), "pure_s_monomial": mono is not None}
    if mono is not None:
        coeff, expo = mono
        ratio_block["coefficient"] = str(coeff)
        ratio_block["s_exponent"] = expo
    results = {"value": str(value), "prefactor": str(pre.value()),
               "conjecture_leading_ratio": ratio_block}
    if audit_rows is not None:
        results["audit"] = audit_rows
    pretty = [f"  value      {results['value']}",
              f"  prefactor  {results['prefactor']}",
              f"  ratio to (1/4)/s: {ratio_block['value']} "
              f"(pure s-monomial: {mono is not None})"]
    return results, [], pretty


def cmd_mochizuki(args):
    _bind("from_preset", "mochizuki_coefficient", "split_budget")
    audit_rows = [] if args.audit else None
    model = from_preset(args.surface)
    budget = split_budget(model, args.split1, args.split2, args.n)
    value = mochizuki_coefficient(
        model, args.split1, args.split2, args.divisor, args.n, args.pg,
        jobs=args.jobs,
        audit=audit_rows.append if audit_rows is not None else None)
    results = {"value": str(value), "split_budget": budget,
               "empty_split_range": budget < 0}
    if audit_rows is not None:
        results["audit"] = audit_rows
    pretty = [f"  coefficient  {results['value']}",
              f"  length budget after pairing: {budget}"]
    return results, [], pretty


def cmd_fit(args):
    _bind("universal", "exact_str")
    configs = universal.battery_configs()
    # fail before any integral when the monomials outnumber the samples
    universal.fit_basis(len(configs) - 1, args.degree_bound)
    samples = universal.typeII_samples(configs, args.n1, args.n2,
                                       jobs=args.jobs)
    train, held = samples[:-1], samples[-1]
    poly = universal.fit_universal(train, args.degree_bound)
    predicted = poly.evaluate(held[0])
    held_ok = predicted == held[1]
    held_model, held_div = configs[-1]
    results = {
        "polynomial": poly.to_json(),
        "sample_count": len(train),
        "held_out": {"surface": held_model.name, "divisor": held_div,
                     "value": exact_str(held[1]),
                     "predicted": exact_str(predicted)},
        "k3_point_value": exact_str(poly.evaluate(universal.K3_POINT)),
    }
    if args.audit:
        results["audit"] = [
            {"surface": model.name, "divisor": div, "value": exact_str(val)}
            for (model, div), (_, val) in zip(configs, samples)]
    # K3_POINT has no twist slot, so this check cannot fail; the frozen
    # reports keep it until a check against the K3 series replaces it
    checks = [("fit-held-out-exact", held_ok), ("fit-k3-m-independent", True)]
    pretty = [f"  fitted {len(poly.terms)} term(s) from {len(train)} samples"]
    for exps, coeff in sorted(poly.terms.items()):
        pretty.append(f"    {universal._monomial_name(exps):<16} "
                      f"{exact_str(coeff)}")
    pretty.append(f"  held-out ({held_model.name}, {held_div}): "
                  f"{'reproduced' if held_ok else 'MISMATCH'}")
    return results, checks, pretty


# -- parser ----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="dt4",
        description="Exact rank-two localization pipelines with JSON reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true",
                       help="also print tables to stderr")

    p = sub.add_parser("zseries", help="series identities and the nested "
                                       "conjecture expansion")
    p.add_argument("--order", type=int, default=10,
                   help="largest q exponent to keep (default 10)")
    common(p)
    p.set_defaults(func=cmd_zseries)

    p = sub.add_parser("chamber", help="ample cone, wall threshold, chamber "
                                       "membership")
    p.add_argument("--k", type=int, required=True,
                   help="fiber multiple of the canonical class")
    p.add_argument("--r", type=int, required=True, help="sheaf rank")
    p.add_argument("--delta", type=_fraction, required=True,
                   help="discriminant (rational)")
    p.add_argument("--t", type=_fraction, required=True,
                   help="section coefficient of the polarization")
    p.add_argument("--u", type=_fraction, required=True,
                   help="fiber coefficient of the polarization")
    # argparse takes only plain negative numbers for values; Python 3.11
    # reads "--t -1/2" as --t without its value
    p._negative_number_matcher = re.compile(
        p._negative_number_matcher.pattern + r"|^-\d+/\d+$")
    common(p)
    p.set_defaults(func=cmd_chamber)

    p = sub.add_parser("fixedloci", help="fixed-locus components at a fiber "
                                         "twist and charge")
    p.add_argument("--m", type=int, required=True, help="fiber twist")
    p.add_argument("--n", type=int, required=True, help="total charge")
    common(p)
    p.set_defaults(func=cmd_fixedloci)

    p = sub.add_parser("localize", help="nested-component integral over a "
                                        "toric model")
    p.add_argument("--surface", default="plane", help="preset name")
    p.add_argument("--divisor", type=_divisor, default={},
                   help="bundle divisor as NAME=INT[,NAME=INT...]")
    p.add_argument("--n1", type=int, default=0)
    p.add_argument("--n2", type=int, default=0)
    p.add_argument("--prefactor-variant", choices=("product", "typeIIB"),
                   default="product")
    p.add_argument("--alpha-pair", type=int, default=0,
                   help="twist pairing entering the typeIIB variant")
    p.add_argument("--chi-numbers", type=_chi_numbers, default=None,
                   metavar="CHI_L2,CHI_L,CHI_LINV,D_SQ,D_C1",
                   help="override the prefactor with explicit numbers")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--audit", action="store_true",
                   help="record every fixed-point term in the report")
    common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("mochizuki", help="wall-crossing coefficient for a "
                                         "rank-two splitting")
    p.add_argument("--surface", default="plane", help="preset name")
    p.add_argument("--divisor", type=_divisor, default={},
                   help="twisting divisor as NAME=INT[,NAME=INT...]")
    p.add_argument("--split1", type=_divisor, default={},
                   help="first splitting divisor")
    p.add_argument("--split2", type=_divisor, default={},
                   help="second splitting divisor")
    p.add_argument("--n", type=int, required=True, help="total charge")
    p.add_argument("--pg", type=_nonnegative, default=0,
                   help="geometric genus entering the residue weight")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--audit", action="store_true",
                   help="record every fixed-point term in the report")
    common(p)
    p.set_defaults(func=cmd_mochizuki)

    p = sub.add_parser("fit", help="fit the universal point-class polynomial "
                                   "over the toric battery")
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--n2", type=int, default=0)
    p.add_argument("--degree-bound", type=_nonnegative, default=1)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--audit", action="store_true",
                   help="record every battery sample in the report")
    common(p)
    p.set_defaults(func=cmd_fit)
    return parser


# argparse destinations that steer a run without changing its answer
_RUN_CONTROLS = ("command", "func", "jobs", "audit", "pretty")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse parses "--flag=--" into [] instead of refusing it; no flag
    # takes a list
    for name, v in vars(args).items():
        if isinstance(v, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected "
                         "one argument")
    # exact values outgrow Python's int/str digit limit; argv integers
    # above were still parsed under it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parameters = {name: str(v) if isinstance(v, Fraction) else v
                  for name, v in vars(args).items()
                  if name not in _RUN_CONTROLS and v is not None}
    # "deterministic" states a contract, not a switch: no randomness
    # enters any pipeline, so reruns are byte-identical
    report = {"tool": "dt4", "command": args.command, "parameters": parameters,
              "deterministic": True}
    try:
        results, checks, pretty = args.func(args)
    except ValueError as exc:
        name = type(exc).__name__
        report["error"] = {"type": name, "message": str(exc)}
        pretty, code = [f"  error ({name}): {exc}"], 1
    else:
        report["results"] = results
        report["checks"] = [{"id": cid, "pass": ok} for cid, ok in checks]
        pretty += [f"  check {cid}: {'pass' if ok else 'FAIL'}"
                   for cid, ok in checks]
        code = 0 if all(ok for _, ok in checks) else 1
    # a report can run to 16 MB: write it in blocks of encoder chunks
    # rather than build it as one string
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
    while block := "".join(islice(chunks, 65536)):
        sys.stdout.write(block)
    sys.stdout.write("\n")
    if args.pretty:
        for line in pretty:
            print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
