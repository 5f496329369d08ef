"""dt4's benchmark: whole CLI invocations, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dt4 checkout; dt4 is imported from ``src``.

``--trace 0`` measures what users see.  Each invocation is a fresh
``python -m dt4.cli`` process, one at a time (a closed loop with one
client).  Passes over the workload repeat until ``--seconds`` are spent.
Reported: run_s (wall time of a pass), cpu_s (user+sys CPU of a pass from
wait4, pool workers included), setup_s (a fresh process importing dt4.cli
and loading the workload's presets, measured several times) and
peak_rss_mb (largest resident set of any process of a pass).  Timings
are medians over the run.

``--trace 1`` alternates untraced passes with traced ones, in which every
invocation runs under tracer.py, and reports per-layer metrics (medians
over traced passes) plus trace.overhead_s, the traced minus the untraced
median pass time.  End-to-end numbers come only from ``--trace 0``.

Every invocation must exit 0, print a report byte-identical to its stored
reference in refs/ and pass every check listed in it; anything else
counts as failed.  The last stdout line is the JSON result; the lines
before it are a readable summary and a stamp of the machine and commit.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs")
TRACER = os.path.join(HERE, "tracer.py")
sys.path.insert(0, HERE)

from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, invocation_id, pass_order  # noqa: E402

now = time.perf_counter

INVOCATION_TIMEOUT_S = 60
HARD_LIMIT_S = 170          # later invocations get a 1 s timeout
SETUP_REPEATS = 15

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Every per-layer metric the trace yields, with its unit.
LAYERS = {
    "cli.post.s": "s", "cli.report.bytes": "bytes",
    "surfaces.from_preset.s": "s", "surfaces.from_preset.calls": "count",
    "surfaces.disjoint_union.s": "s",
    "partitions.hilb_fixed_points.s": "s", "localize.pairs": "count",
    "localize.characters.s": "s", "localize.characters.calls": "count",
    "localize.term.s": "s", "localize.term.max_s": "s",
    "localize.sum.s": "s",
    "localize.pool.s": "s", "localize.pool.count": "count",
    "eqalg.mul.s": "s", "eqalg.mul.calls": "count",
    "eqalg.add.s": "s", "eqalg.add.calls": "count",
    "eqalg.div.s": "s", "eqalg.div.calls": "count",
    "eqalg.chern_part.s": "s", "eqalg.euler_of_character.s": "s",
    "eqalg.residue.s": "s", "eqalg.residue.calls": "count",
    "poly.gcd.s": "s", "poly.gcd.calls": "count",
    "poly.gcd.nontrivial_ratio": "ratio",
    "qseries.product_power.s": "s", "qseries.product_power.calls": "count",
    "qseries.product_power.coeffs": "count",
    "moduli.z_typeI_series.s": "s", "moduli.z_typeI_closed_form.s": "s",
    "moduli.z_typeII_conjecture_series.s": "s",
    "universal.battery_configs.s": "s", "universal.typeII_samples.s": "s",
    "universal.fit_universal.s": "s",
    "trace.overhead_s": "s",
}

# The subset in the result line: counts, and times that every workload
# makes nonzero.  A time whose layer a workload never enters would read
# 0.0 on every run; those stay in the printed table only.
REPORTED_LAYERS = (
    "cli.post.s", "cli.report.bytes",
    "surfaces.from_preset.s", "surfaces.from_preset.calls",
    "partitions.hilb_fixed_points.s", "localize.pairs",
    "localize.characters.s", "localize.characters.calls",
    "localize.term.s", "localize.term.max_s", "localize.sum.s",
    "localize.pool.count",
    "eqalg.mul.s", "eqalg.mul.calls", "eqalg.add.s", "eqalg.add.calls",
    "eqalg.div.s", "eqalg.div.calls", "eqalg.residue.calls",
    "poly.gcd.s", "poly.gcd.calls", "poly.gcd.nontrivial_ratio",
    "qseries.product_power.calls", "qseries.product_power.coeffs",
    "trace.overhead_s",
)

# spans whose summed duration is a layer's time
SPAN_TOTALS = ("surfaces.from_preset", "surfaces.disjoint_union",
               "partitions.hilb_fixed_points", "localize.term",
               "localize.pool", "moduli.z_typeI_series",
               "moduli.z_typeI_closed_form", "moduli.z_typeII_conjecture_series",
               "universal.battery_configs", "universal.typeII_samples",
               "universal.fit_universal")
# spans whose self time is a layer's time
SPAN_SELF = {"cli": "cli.post.s", "localize.sum": "localize.sum.s"}


def child_env():
    env = dict(os.environ)
    env.pop("DT4_PRESET_DIR", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


ENV = child_env()


class Result:
    """Outcome of one child process."""

    def __init__(self, code, stdout, stderr, wall, cpu, rss_kb, timed_out):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall, self.cpu, self.rss_kb = wall, cpu, rss_kb
        self.timed_out = timed_out


def run_process(cmd, timeout):
    """Run ``cmd`` to completion; wall, CPU and peak RSS from wait4.

    The child leads its own process group, so a timeout kills its pool
    workers too.  The child is left a zombie until the timer can no longer
    fire, so the group id is never reused under the timer.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ENV,
                                cwd=ROOT, start_new_session=True)
        fired = []

        def kill():
            fired.append(True)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        timer = threading.Timer(timeout, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = now() - t0
        timer.cancel()
        timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, out.read(), err.read(), wall,
                      ru.ru_utime + ru.ru_stime, ru.ru_maxrss, bool(fired))


class References:
    """Stored reports, read lazily from one directory."""

    def __init__(self, directory):
        self.directory = directory
        self._cache = {}

    def get(self, inv):
        if inv not in self._cache:
            path = os.path.join(self.directory, inv + ".json")
            try:
                with open(path, "rb") as fh:
                    self._cache[inv] = fh.read()
            except FileNotFoundError:
                self._cache[inv] = None
        return self._cache[inv]


def failure(inv, res, refs):
    """Why an invocation failed, or None when it passed."""
    if res.timed_out:
        return "timeout"
    if res.code != 0:
        return f"exit {res.code}"
    ref = refs.get(inv)
    if ref is None:
        return "no reference"
    if res.stdout != ref:
        return "report differs from reference"
    checks = json.loads(res.stdout).get("checks", [])
    if not all(c["pass"] for c in checks):
        return "a check failed"
    return None


class Pass:
    """One pass over a workload's invocations."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_kb = 0
        self.attempted = 0
        self.failures = []
        self.latencies = []
        self.traces = []
        self.report_bytes = 0


def run_pass(invocations, traced, refs, hard_end):
    p = Pass()
    for argv in invocations:
        inv = invocation_id(argv)
        if traced:
            cmd = [sys.executable, TRACER, inv, *argv]
        else:
            cmd = [sys.executable, "-m", "dt4.cli", *argv]
        timeout = max(1.0, min(INVOCATION_TIMEOUT_S, hard_end - now()))
        res = run_process(cmd, timeout)
        p.attempted += 1
        p.latencies.append((inv, res.wall))
        p.wall += res.wall
        p.cpu += res.cpu
        p.rss_kb = max(p.rss_kb, res.rss_kb)
        p.report_bytes += len(res.stdout)
        why = failure(inv, res, refs)
        if why is None and traced:
            try:
                p.traces.append(json.loads(res.stderr.splitlines()[-1]))
            except (IndexError, ValueError):
                why = "no trace"
        if why is not None:
            p.failures.append((inv, why))
    return p


def measure_setup(workload, repeats=SETUP_REPEATS):
    """Seconds for a fresh process to import dt4.cli and load presets."""
    code = ("import dt4.cli\nfrom dt4.surfaces import from_preset\n"
            f"for name in {WORKLOADS[workload]['presets']!r}:\n"
            "    from_preset(name)\n")
    cmd = [sys.executable, "-c", code]
    run_process(cmd, INVOCATION_TIMEOUT_S)     # fill __pycache__ first
    times = []
    for _ in range(repeats):
        res = run_process(cmd, INVOCATION_TIMEOUT_S)
        if res.code != 0:
            raise RuntimeError("set-up failed: "
                               + res.stderr.decode(errors="replace"))
        times.append(res.wall)
    return times


def layer_metrics(p):
    """Per-layer totals of one traced pass."""
    m = {name: 0 for name in LAYERS if name != "trace.overhead_s"}
    m["cli.report.bytes"] = p.report_bytes
    nontrivial = 0
    for t in p.traces:
        spans = t["spans"]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            if name in SPAN_SELF:
                m[SPAN_SELF[name]] += own
            if name in SPAN_TOTALS:
                m[name + ".s"] += end - start
            if name == "localize.term":
                m["localize.term.max_s"] = max(m["localize.term.max_s"],
                                               end - start)
            elif name == "surfaces.from_preset":
                m["surfaces.from_preset.calls"] += 1
            elif name == "localize.pool":
                m["localize.pool.count"] += 1
        for name, n in t["calls"].items():
            if name + ".calls" in m:
                m[name + ".calls"] += n
        for name, s in t["seconds"].items():
            m[name + ".s"] += s
        extra = t["extra"]
        m["localize.pairs"] += extra.get("localize.pairs", 0)
        m["qseries.product_power.coeffs"] += extra.get(
            "qseries.product_power.coeffs", 0)
        nontrivial += extra.get("poly.gcd.nontrivial", 0)
    calls = sum(t["calls"].get("poly.gcd", 0) for t in p.traces)
    m["poly.gcd.nontrivial_ratio"] = nontrivial / calls if calls else 0.0
    return m


def tail(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def describe(name, values, unit):
    med = statistics.median(values)
    t = tail(values)
    tail_text = (f"p{t[0]} {t[1]:.4f}" if t
                 else "no percentile has 10 samples beyond it")
    return f"  {name:<36} median {med:.4f} {unit:<5} {tail_text}, n={len(values)}"


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return None, None
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(dirty.stdout.strip())


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(**extra):
    """Commit, machine and interpreter a result was measured on."""
    sha, dirty = git_state()
    return {"git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu_model": cpu_model(),
            **extra}


def run(workload, seed, seconds, trace):
    """One run; returns (summary lines, result dict)."""
    start = now()
    hard_end = start + HARD_LIMIT_S
    load_before = os.getloadavg()
    refs = References(REFS)
    lines = []
    setup = measure_setup(workload)
    deadline = now() + seconds
    plain, traced = [], []
    index = 0
    while True:
        plain.append(run_pass(pass_order(workload, seed, index), False,
                              refs, hard_end))
        index += 1
        if trace:
            traced.append(run_pass(pass_order(workload, seed, index), True,
                                   refs, hard_end))
            index += 1
        if now() >= min(deadline, hard_end):
            break
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    lines.append(f"workload {workload}: {WORKLOADS[workload]['why']}")
    lines.append(f"seed {seed}, {len(plain)} untraced and {len(traced)} "
                 f"traced passes, {attempted} invocations, "
                 f"fail_ratio {len(failures) / attempted:.4f} "
                 f"({len(failures)}/{attempted})")
    for inv, why in failures[:10]:
        lines.append(f"  FAILED {inv}: {why}")

    by_invocation = {}
    for p in plain:
        for inv, t in p.latencies:
            by_invocation.setdefault(inv, []).append(t)
    series = {"run_s": [p.wall for p in plain],
              "cpu_s": [p.cpu for p in plain],
              "setup_s": setup,
              "peak_rss_mb": [p.rss_kb / 1024 for p in plain]}
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        layers = {k: (statistics.median if LAYERS[k] == "s"
                      else statistics.median_low)([m[k] for m in per_pass])
                  for k in per_pass[0]}
        layers["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced)
            - statistics.median(series["run_s"]))
        lines.append("per-layer metrics (traced passes, medians; time "
                     "inside pool workers is not traced):")
        for name, unit in LAYERS.items():
            lines.append(f"  {name:<36} {layers[name]:.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": LAYERS[k]}
                   for k in REPORTED_LAYERS}
        write_spans(workload, seed, traced)
    else:
        lines.append("end-to-end metrics (untraced passes):")
        for name, unit in END_TO_END.items():
            lines.append(describe(name, series[name], unit))
        lines.append(describe("(one invocation)",
                              [t for p in plain for _, t in p.latencies], "s"))
        metrics = {k: {"value": statistics.median(series[k]), "unit": u}
                   for k, u in END_TO_END.items()}
    info = stamp(loadavg_before=load_before, loadavg_after=os.getloadavg(),
                 seed=seed, workload=workload, seconds=seconds, trace=trace)
    lines.append(json.dumps({"stamp": info, "samples": series,
                             "invocation_s": by_invocation,
                             "fail_ratio": len(failures) / attempted}))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return lines, result


def write_spans(workload, seed, traced):
    path = os.path.join(OUT, f"spans-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([t for p in traced for t in p.traces], fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "dt4", "cli.py")):
        print(f"dt4 sources not found under {ROOT}/src; run from a dt4 "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    lines, result = run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
