"""Headroom probes: invocations too slow for any timed workload.

    python3 perfbench/probes.py [--timeout SECONDS]

Run from the root of a dt4 checkout.  Each probe runs once as
``python -m dt4.cli`` under a hard timeout.  A probe that finishes is
recorded with its wall time and exit status; one that does not is recorded
as ``"timeout_s": N``.  The result is one JSON line on stdout.  Probes are
never part of a timed workload; they show when an optimisation makes a
size reachable.
"""

import argparse
import json
import os
import sys

import run

PROBES = (
    ("localize", "--surface", "plane", "--divisor", "H=1",
     "--n1", "2", "--n2", "0"),
    ("mochizuki", "--surface", "plane", "--divisor", "H=1", "--n", "2"),
    ("mochizuki", "--surface", "plane", "--divisor", "H=2", "--n", "1"),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--timeout", type=int, default=300)
    args = parser.parse_args(argv)
    os.makedirs(run.OUT, exist_ok=True)
    load_before = os.getloadavg()
    out = []
    for argv_ in PROBES:
        res = run.run_process([sys.executable, "-m", "dt4.cli", *argv_],
                              args.timeout)
        rec = {"argv": list(argv_)}
        if res.timed_out:
            rec["timeout_s"] = args.timeout
        else:
            rec.update(seconds=res.wall, exit=res.code)
        out.append(rec)
        print(json.dumps(rec), file=sys.stderr)
    print(json.dumps({"probes": out, "stamp": run.stamp(
        loadavg_before=load_before, loadavg_after=os.getloadavg())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
