"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a dt4 checkout.  It checks that every metric of
BENCHMARK.json prints with its unit, that a corrupted reference report
counts as a failure, and that the trace's counts repeat exactly across two
traced runs.  Exit status 0 when all three hold.
"""

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS, invocation_id

SMALL = (("zseries", "--order", "10"),
         ("localize", "--chi-numbers", "2,2,2,0,0"),
         ("localize", "--surface", "hirzebruch3", "--divisor", "C0=1,F=3",
          "--n1", "0", "--n2", "1"))
HARD_END = run.now() + 600


def check_metric_names():
    """Each declared metric is in the result and printed with its unit."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for trace, declared in ((False, spec["end_to_end"]),
                            (True, spec["per_layer"])):
        lines, result = run.run("series", 0, 0, trace)
        text = "\n".join(lines)
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"], m
            assert any(m["name"] in line and m["unit"] in line
                       for line in lines), m["name"]
        assert result["correct"] and result["failed"] == 0, text


def check_corrupted_reference():
    """A reference that differs by one byte makes its invocation fail."""
    refs_dir = os.path.join(run.OUT, "selftest-refs")
    shutil.rmtree(refs_dir, ignore_errors=True)
    shutil.copytree(run.REFS, refs_dir)
    victim = os.path.join(refs_dir, invocation_id(SMALL[0]) + ".json")
    with open(victim, "rb") as fh:
        data = bytearray(fh.read())
    data[data.index(b"1")] = ord("2")
    with open(victim, "wb") as fh:
        fh.write(data)
    try:
        p = run.run_pass(SMALL, False, run.References(refs_dir), HARD_END)
    finally:
        shutil.rmtree(refs_dir)
    assert p.attempted == len(SMALL)
    assert p.failures == [(invocation_id(SMALL[0]),
                           "report differs from reference")], p.failures


def check_counts_repeat():
    """Counts of two traced runs of the same invocations are identical."""
    counts = []
    for _ in range(2):
        p = run.run_pass(SMALL, True, run.References(run.REFS), HARD_END)
        assert not p.failures, p.failures
        m = run.layer_metrics(p)
        counts.append({k: v for k, v in m.items() if run.LAYERS[k] != "s"})
    assert counts[0] == counts[1], counts
    for name in ("poly.gcd.calls", "localize.pairs",
                 "qseries.product_power.calls"):
        assert counts[0][name] > 0, name


def main():
    os.makedirs(run.OUT, exist_ok=True)
    for check in (check_metric_names, check_corrupted_reference,
                  check_counts_repeat):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
