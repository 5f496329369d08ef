"""Command-line surface for the localization pipelines.

Every subcommand prints one JSON report on stdout; tables for humans go
to stderr under --pretty.  Runs are fully deterministic, so identical
invocations produce byte-identical reports.  Exit status is 0 exactly
when every check listed in the report passed, 1 on a domain error, 2 on
a usage error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from fractions import Fraction

# Name a command calls -> dt4 module that defines it (a module maps to
# itself).  A command binds its names as globals of this module when it
# runs, so it imports only the modules it needs.  A name that is already
# bound, for instance by a tracer that wrapped it, is kept.
_HOME = {
    "DEFAULT_REGISTRY": "eqalg",
    "PrefactorData": "localize", "mochizuki_coefficient": "localize",
    "pure_s_monomial": "localize", "typeII_component_integral": "localize",
    "EllipticSurface": "moduli", "Polarization": "moduli",
    "enumerate_typeII_K3": "moduli", "in_stable_chamber": "moduli",
    "is_ample": "moduli", "wall_threshold": "moduli",
    "z_typeI_closed_form": "moduli", "z_typeI_series": "moduli",
    "z_typeII_conjecture_series": "moduli",
    "from_preset": "surfaces",
    "universal": "universal",
}


def _bind(*names):
    scope = globals()
    for name in names:
        if name not in scope:
            home = _HOME[name]
            module = importlib.import_module(f".{home}", __package__)
            scope[name] = module if name == home else getattr(module, name)


def __getattr__(name):
    """``cli.NAME`` for a name no command has bound yet (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


FIT_FIELDS = ("D_sq", "D_c1", "c1_sq", "c2")


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


def _degree_bound(text):
    """Total degree of the fitted polynomial: a nonnegative integer."""
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


def _series_line(series):
    terms = []
    for entry in series.to_json_entries():
        num, den = entry["exponent_num"], entry["exponent_den"]
        e = f"{num}" if den == 1 else f"{num}/{den}"
        terms.append(f"[{entry['coefficient']}] q^{e}")
    return " + ".join(terms) if terms else "0"


def _series_is_zero(series):
    return not series.to_json_entries()


# -- report plumbing -------------------------------------------------------

def _write_report(args, params, **body):
    """Print the JSON report of a run.  ``deterministic`` is a statement of
    contract, not a switch: no randomness enters any pipeline, so reruns
    are byte-identical."""
    report = {"tool": "dt4", "command": args.command, "parameters": params,
              "deterministic": True, **body}
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _emit(args, params, results, checks, pretty_lines):
    _write_report(args, params, results=results,
                  checks=[{"id": cid, "pass": ok} for cid, ok in checks])
    if args.pretty:
        for line in pretty_lines:
            print(line, file=sys.stderr)
        for cid, ok in checks:
            print(f"  check {cid}: {'pass' if ok else 'FAIL'}",
                  file=sys.stderr)
    return 0 if all(ok for _, ok in checks) else 1


def _emit_error(args, params, exc):
    _write_report(args, params, error={"type": type(exc).__name__,
                                       "message": str(exc)})
    if args.pretty:
        print(f"  error ({type(exc).__name__}): {exc}", file=sys.stderr)
    return 1


# -- subcommands -----------------------------------------------------------

def cmd_zseries(args):
    _bind("z_typeI_series", "z_typeI_closed_form",
          "z_typeII_conjecture_series")
    params = {"order": args.order}
    try:
        lhs = z_typeI_series(args.order)
        rhs = z_typeI_closed_form(args.order)
        diff = lhs - rhs
        conj = z_typeII_conjecture_series(args.order)
    except ValueError as exc:
        return _emit_error(args, params, exc)
    odd_ok = all(e["exponent_den"] == 1 for e in conj.to_json_entries())
    checks = [("typeI-series-identity", _series_is_zero(diff)),
              ("typeII-conjecture-odd-vanishing", odd_ok)]
    results = {
        "typeI_series": lhs.to_json_entries(),
        "typeI_closed_form": rhs.to_json_entries(),
        "difference": diff.to_json_entries(),
        "typeII_conjecture_series": conj.to_json_entries(),
        "truncation_order": str(lhs.truncation_order),
    }
    pretty = [f"  non-nested series   {_series_line(lhs)}",
              f"  closed-form route   {_series_line(rhs)}",
              f"  difference          {_series_line(diff)}",
              f"  nested conjecture   {_series_line(conj)}"]
    return _emit(args, params, results, checks, pretty)


def cmd_chamber(args):
    _bind("EllipticSurface", "Polarization", "in_stable_chamber", "is_ample",
          "wall_threshold")
    params = {"k": args.k, "r": args.r, "delta": str(args.delta),
              "t": str(args.t), "u": str(args.u)}
    try:
        surface = EllipticSurface(args.k)
        threshold = wall_threshold(surface, args.r, args.delta)
        ample = (args.t > 0 and args.u > 0
                 and is_ample(Polarization(args.t, args.u), surface))
        in_chamber = None
        note = None
        if ample:
            h = Polarization(args.t, args.u)
            in_chamber = in_stable_chamber(h, surface, args.r, args.delta)
        else:
            note = "polarization is outside the ample cone"
    except ValueError as exc:
        return _emit_error(args, params, exc)
    results = {"ample": ample, "threshold": str(threshold),
               "in_chamber": in_chamber}
    if note:
        results["note"] = note
    pretty = [f"  ample        {ample}",
              f"  threshold    {threshold}",
              f"  in chamber   {in_chamber}"]
    return _emit(args, params, results, checks=[], pretty_lines=pretty)


def cmd_fixedloci(args):
    _bind("enumerate_typeII_K3")
    params = {"m": args.m, "n": args.n}
    try:
        comps = enumerate_typeII_K3(args.m, args.n)
    except ValueError as exc:
        return _emit_error(args, params, exc)
    points = 2 * args.n - 3
    results = {
        "typeII_components": [c.to_json() for c in comps],
        "component_count": len(comps),
        "all_vanish": all(c.vanishes for c in comps),
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
    for c in comps:
        j = c.to_json()
        pretty.append(f"    b={j['b']} (n1,n2)=({j['n1']},{j['n2']}) "
                      f"alpha=({j['alpha']['a']},{j['alpha']['b']}) "
                      f"vanishes={j['vanishes']}")
    pretty.append(f"  non-nested locus: {points}-point Hilbert scheme"
                  if points >= 0 else "  non-nested locus: empty")
    return _emit(args, params, results, checks=[], pretty_lines=pretty)


def cmd_localize(args):
    _bind("DEFAULT_REGISTRY", "PrefactorData", "from_preset",
          "pure_s_monomial", "typeII_component_integral")
    params = {"surface": args.surface, "divisor": dict(sorted(args.divisor.items())),
              "n1": args.n1, "n2": args.n2,
              "prefactor_variant": args.prefactor_variant,
              "alpha_pair": args.alpha_pair}
    if args.chi_numbers is not None:
        params["chi_numbers"] = list(args.chi_numbers)
    audit_rows = [] if args.audit else None
    try:
        model = from_preset(args.surface)
        if args.chi_numbers is not None:
            pre = PrefactorData.from_numbers(*args.chi_numbers,
                                             variant=args.prefactor_variant,
                                             alpha_pair=args.alpha_pair)
        else:
            pre = PrefactorData.from_model(model, args.divisor,
                                           variant=args.prefactor_variant,
                                           alpha_pair=args.alpha_pair)
        value = typeII_component_integral(
            model, args.divisor, n1=args.n1, n2=args.n2, prefactor=pre,
            jobs=args.jobs,
            audit=audit_rows.append if audit_rows is not None else None)
    except ValueError as exc:
        return _emit_error(args, params, exc)
    # ratio against the leading nested-conjecture coefficient (1/4) 1/s
    ratio = value * DEFAULT_REGISTRY.const(4) * DEFAULT_REGISTRY.var("s")
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
    return _emit(args, params, results, checks=[], pretty_lines=pretty)


def cmd_mochizuki(args):
    _bind("from_preset", "mochizuki_coefficient")
    params = {"surface": args.surface,
              "divisor": dict(sorted(args.divisor.items())),
              "split1": dict(sorted(args.split1.items())),
              "split2": dict(sorted(args.split2.items())),
              "n": args.n, "pg": args.pg}
    audit_rows = [] if args.audit else None
    try:
        model = from_preset(args.surface)
        budget = args.n - model.pair(model.check_divisor(args.split1),
                                     model.check_divisor(args.split2))
        value = mochizuki_coefficient(
            model, args.split1, args.split2, args.divisor, args.n, args.pg,
            jobs=args.jobs,
            audit=audit_rows.append if audit_rows is not None else None)
    except ValueError as exc:
        return _emit_error(args, params, exc)
    results = {"value": str(value), "split_budget": budget,
               "empty_split_range": budget < 0}
    if audit_rows is not None:
        results["audit"] = audit_rows
    pretty = [f"  coefficient  {results['value']}",
              f"  length budget after pairing: {budget}"]
    return _emit(args, params, results, checks=[], pretty_lines=pretty)


def cmd_fit(args):
    _bind("universal")
    params = {"n1": args.n1, "n2": args.n2, "degree_bound": args.degree_bound}
    try:
        configs = universal.battery_configs()
        # fail before any integral when the monomials outnumber the samples
        universal.fit_basis(len(configs) - 1, args.degree_bound, FIT_FIELDS)
        samples = universal.typeII_samples(configs, args.n1, args.n2,
                                           jobs=args.jobs)
        train, held = samples[:-1], samples[-1]
        poly = universal.fit_universal(train, args.degree_bound, FIT_FIELDS)
    except ValueError as exc:
        return _emit_error(args, params, exc)
    exact_str = universal.exact_str
    predicted = poly.evaluate(held[0])
    held_ok = predicted == held[1]
    k3_values = [poly.evaluate(universal.ChernNumbers.k3_point(m))
                 for m in (0, 1, 3)]
    k3_ok = all(v == k3_values[0] for v in k3_values)
    held_model, held_div = configs[-1]
    results = {
        "polynomial": poly.to_json(),
        "sample_count": len(train),
        "held_out": {"surface": held_model.name,
                     "divisor": dict(sorted(held_div.items())),
                     "value": exact_str(held[1]),
                     "predicted": exact_str(predicted)},
        "k3_point_value": exact_str(k3_values[0]),
    }
    if args.audit:
        results["audit"] = [
            {"surface": model.name, "divisor": dict(sorted(div.items())),
             "value": exact_str(val)}
            for (model, div), (_, val) in zip(configs, samples)]
    checks = [("fit-held-out-exact", held_ok),
              ("fit-k3-m-independent", k3_ok)]
    pretty = [f"  fitted {len(poly.terms)} term(s) from {len(train)} samples"]
    for exps, coeff in sorted(poly.terms.items()):
        pretty.append(f"    {universal._monomial_name(exps):<16} "
                      f"{exact_str(coeff)}")
    pretty.append(f"  held-out ({held_model.name}, {dict(sorted(held_div.items()))}): "
                  f"{'reproduced' if held_ok else 'MISMATCH'}")
    return _emit(args, params, results, checks, pretty)


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
    p.add_argument("--pg", type=int, default=0,
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
    p.add_argument("--degree-bound", type=_degree_bound, default=1)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--audit", action="store_true",
                   help="record every battery sample in the report")
    common(p)
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # exact values outgrow Python's int/str digit limit; argv integers
    # above were still parsed under it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
