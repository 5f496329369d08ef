"""Outside-in layer trace of one ``dt4`` invocation.

Run as ``python tracer.py INVOCATION_ID DT4_ARGS...`` with ``src`` on
``PYTHONPATH``.  It rebinds the names that dt4's callers look up (for
example ``dt4.eqalg.gcd`` or ``dt4.cli.typeII_component_integral``) to
timing wrappers, then calls ``dt4.cli.main(argv)`` in this process.  The
report goes to stdout unchanged; the trace goes to stderr as one JSON
line, after the run ends.

Coarse layer boundaries record spans (name, start, end, parent,
invocation id).  Hot leaves (gcd, EqScalar arithmetic, characters, Chern
and Euler classes, residues, q-series products) only count calls and
accumulate inclusive time, because a span per call would cost more than
the call.  Work inside pool workers (``--jobs`` > 1) happens in forked
processes whose counters are never sent back, so it is not traced; the
parent sees it only as ``localize.pool`` wall time.
"""

import json
import sys
import time

now = time.perf_counter

# localize functions counted together as localize.characters
CHARACTERS = ("tangent_character", "twisted_tangent_character",
              "difference_character", "tautological_character",
              "chi_character")


class Tracer:
    """Spans and counters of one invocation, kept in memory."""

    def __init__(self, invocation):
        self.invocation = invocation
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.calls = {}
        self.seconds = {}
        self.extra = {}
        self.pair_sizes = []

    def count(self, name, n=1):
        self.extra[name] = self.extra.get(name, 0) + n

    def record(self, name, start, end):
        """Add a finished span under the innermost open one."""
        self.spans.append([name, start, end,
                           self.stack[-1] if self.stack else -1])

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            rec = [name, now(), None, parent]
            self.spans.append(rec)
            self.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = now()
                self.stack.pop()
        return wrapper

    def leaf(self, name, fn, on_result=None):
        calls, seconds = self.calls, self.seconds
        calls.setdefault(name, 0)
        seconds.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            t0 = now()
            out = fn(*args, **kwargs)
            seconds[name] += now() - t0
            calls[name] += 1
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def dump(self):
        return {"invocation": self.invocation, "spans": self.spans,
                "calls": self.calls, "seconds": self.seconds,
                "extra": self.extra}


def install(tr):
    """Rebind dt4's looked-up names to tracing wrappers."""
    from dt4 import cli, eqalg, localize, qseries, surfaces, universal
    from dt4.eqalg import EqScalar

    for mod in (cli, universal):
        mod.from_preset = tr.span("surfaces.from_preset", mod.from_preset)
        mod.typeII_component_integral = tr.span(
            "localize.integral", mod.typeII_component_integral)
    cli.mochizuki_coefficient = tr.span("localize.integral",
                                        cli.mochizuki_coefficient)
    for fn in ("z_typeI_series", "z_typeI_closed_form",
               "z_typeII_conjecture_series"):
        setattr(cli, fn, tr.span("moduli." + fn, getattr(cli, fn)))
    for fn in ("battery_configs", "typeII_samples", "fit_universal"):
        setattr(universal, fn, tr.span("universal." + fn,
                                       getattr(universal, fn)))
    surfaces.ToricSurfaceModel.disjoint_union = tr.span(
        "surfaces.disjoint_union", surfaces.ToricSurfaceModel.disjoint_union)

    hilb = localize.hilb_fixed_points

    def hilb_sized(model, n):
        pts = hilb(model, n)
        tr.pair_sizes.append(len(pts))
        return pts
    localize.hilb_fixed_points = tr.span("partitions.hilb_fixed_points",
                                         hilb_sized)

    assemble = tr.span("localize.sum", localize.assemble_sum)

    def assemble_sum(model, n1, n2, term_fn, *args, **kwargs):
        mark = len(tr.pair_sizes)
        out = assemble(model, n1, n2, tr.span("localize.term", term_fn),
                       *args, **kwargs)
        a, b = tr.pair_sizes[mark:mark + 2]
        tr.count("localize.pairs", a * b)
        return out
    localize.assemble_sum = assemble_sum

    pool_cls = localize.Pool

    class TimedPool:
        """Parent-side wall time of one pool, creation to shutdown."""

        def __init__(self, *args, **kwargs):
            self._start = now()
            self._pool = pool_cls(*args, **kwargs)

        def __enter__(self):
            return self._pool.__enter__()

        def __exit__(self, *exc):
            try:
                return self._pool.__exit__(*exc)
            finally:
                tr.record("localize.pool", self._start, now())
    localize.Pool = TimedPool

    for fn in CHARACTERS:
        setattr(localize, fn, tr.leaf("localize.characters",
                                      getattr(localize, fn)))
    localize.chern_part = tr.leaf("eqalg.chern_part", localize.chern_part)
    localize.euler_of_character = tr.leaf("eqalg.euler_of_character",
                                          localize.euler_of_character)
    localize.residue = tr.leaf("eqalg.residue", localize.residue)
    for op, names in (("mul", ("__mul__", "__rmul__")),
                      ("add", ("__add__", "__radd__")),
                      ("div", ("__truediv__", "__rtruediv__"))):
        for attr in names:
            setattr(EqScalar, attr, tr.leaf("eqalg." + op,
                                            getattr(EqScalar, attr)))

    def gcd_result(g):
        if not g.is_one():
            tr.count("poly.gcd.nontrivial")
    eqalg.gcd = tr.leaf("poly.gcd", eqalg.gcd, gcd_result)

    def coeffs(series):
        tr.count("qseries.product_power.coeffs", len(series.units))
    qseries.product_power = tr.leaf("qseries.product_power",
                                    qseries.product_power, coeffs)


def self_times(spans):
    """Span duration minus the part covered by its direct children.

    Children of one span never overlap (one thread), so the covered part
    is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def main(argv):
    invocation, dt4_argv = argv[0], argv[1:]
    tr = Tracer(invocation)
    install(tr)
    from dt4 import cli
    code = tr.span("cli", cli.main)(dt4_argv)
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tr.dump()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
