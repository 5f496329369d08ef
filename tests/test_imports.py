"""What ``import dt4.cli`` and each command load, how public names
resolve, and the names perfbench's tracer rebinds.

Every test runs in fresh interpreters: the footprint tests to see a clean
``sys.modules``, the tracer test so that its patches never reach other
tests.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import dt4

SRC = os.path.dirname(os.path.dirname(dt4.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))

# multiprocessing comes with a pool and dt4.universal with fit; the rest never
NOT_AT_IMPORT = ("multiprocessing", "dataclasses", "inspect", "dt4.universal")

FOOTPRINT_SCRIPT = f"""
import json, sys
before = set(sys.modules)
import dt4.cli
loaded = sorted(m for m in {NOT_AT_IMPORT!r}
                if m in sys.modules and m not in before)
import dt4
unresolved = [n for n in dt4.__all__ if not hasattr(dt4, n)]
from dt4 import *
print(json.dumps({{"loaded": loaded, "unresolved": unresolved}}))
"""


def run_python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_footprint():
    got = run_python(FOOTPRINT_SCRIPT)
    assert got == {"loaded": [], "unresolved": []}


# Runs one command through cli.main; prints the dt4 modules then loaded.
COMMAND_SCRIPT = """
import contextlib, io, json, sys
from dt4 import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("dt4."))]))
"""

LOCALIZE_MODULES = ["dt4.cli", "dt4.eqalg", "dt4.localize", "dt4.partitions",
                    "dt4.poly", "dt4.surfaces"]

COMMAND_MODULES = [
    (["chamber", "--k", "1", "--r", "2", "--delta", "1", "--t", "1",
      "--u", "1"], ["dt4.cli", "dt4.moduli"]),
    (["fixedloci", "--m", "1", "--n", "6"], ["dt4.cli", "dt4.moduli"]),
    (["zseries", "--order", "10"], ["dt4.cli", "dt4.poly", "dt4.qseries"]),
    (["localize", "--chi-numbers", "2,2,2,0,0"], LOCALIZE_MODULES),
    (["mochizuki", "--n", "1"], LOCALIZE_MODULES),
    (["fit", "--n1", "1", "--n2", "0"],
     sorted(LOCALIZE_MODULES + ["dt4.universal"])),
]


@pytest.mark.parametrize("argv,modules", COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_its_modules(argv, modules):
    assert run_python(COMMAND_SCRIPT, *argv) == [0, modules]


# Runs one command through cli.main with a pool budget no run reaches;
# prints its exit code and whether multiprocessing was ever imported.
NO_POOL_SCRIPT = """
import contextlib, io, json, os, sys
os.cpu_count = lambda: 2
from dt4 import cli, localize
localize.POOL_BUDGET_S = float("inf")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, "multiprocessing" in sys.modules]))
"""


def test_run_within_the_pool_budget_never_imports_multiprocessing():
    assert run_python(NO_POOL_SCRIPT, "fit", "--n1", "1", "--n2", "0",
                      "--degree-bound", "1", "--jobs", "2") == [0, False]


# Resolves every name of the package table through dt4 and through
# cli.__getattr__, each before its module is imported by name; prints the
# names whose object is not the one the defining module holds.
TABLE_SCRIPT = """
import importlib, json
import dt4
from dt4 import cli
wrong = []
for name, home in dt4._HOME.items():
    via_cli, via_dt4 = cli.__getattr__(name), dt4.__getattr__(name)
    module = importlib.import_module("dt4." + home)
    want = module if name == home else getattr(module, name)
    if via_cli is not want or via_dt4 is not want:
        wrong.append(name)
print(json.dumps(wrong))
"""


def test_package_table_resolves_every_name():
    # every name a command binds comes from the package table
    with open(os.path.join(os.path.dirname(dt4.__file__), "cli.py")) as f:
        tree = ast.parse(f.read())
    bound = {arg.value for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_bind"
             for arg in node.args if isinstance(arg, ast.Constant)}
    assert "z_typeI_closed_form" in bound       # the scan sees the calls
    assert bound <= set(dt4._HOME)
    assert run_python(TABLE_SCRIPT) == []


# Runs COMMANDS through cli.main, with the tracer installed when argv[2]
# is "1"; prints each command's exit code, report, span names and the
# tracer's call counts.
TRACED_SCRIPT = """
import contextlib, importlib.util, io, json, os, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
os.cpu_count = lambda: 2        # --jobs 2 makes a pool on any machine
from dt4 import localize
localize.POOL_BUDGET_S = 0      # however short the run
tr = tracer.Tracer("t")
if sys.argv[2] == "1":
    tracer.install(tr)
from dt4 import cli
out = []
for argv in json.loads(sys.argv[3]):
    mark, calls = len(tr.spans), dict(tr.calls)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, buf.getvalue(),
                sorted({s[0] for s in tr.spans[mark:]}),
                {k: v - calls.get(k, 0) for k, v in tr.calls.items()}])
print(json.dumps(out))
"""

# (argv, spans it must record, its localize.characters count or None);
# a character that called another by name would be counted twice.  TypeII
# terms build their characters in the chart layer, never through the
# public character functions, so localize counts none.
COMMANDS = [
    (["localize", "--surface", "plane", "--divisor", "H=1", "--n1", "1",
      "--n2", "0"], {"surfaces.from_preset", "localize.integral"}, 0),
    (["mochizuki", "--n", "1"], {"surfaces.from_preset", "localize.integral"},
     33),
    # its integrals run in pool workers, whose spans stay there
    (["fit", "--n1", "1", "--n2", "0", "--degree-bound", "1", "--jobs", "2"],
     {"surfaces.from_preset", "universal.fit_universal", "localize.pool"},
     None),
    (["zseries", "--order", "10"], {"moduli.z_typeI_series"}, None),
    (["chamber", "--k", "1", "--r", "2", "--delta", "1", "--t", "1",
      "--u", "1"], set(), None),
    (["fixedloci", "--m", "1", "--n", "6"], set(), None),
]


def test_tracer_rebinds_what_commands_call():
    argvs = json.dumps([argv for argv, _, _ in COMMANDS])
    plain = run_python(TRACED_SCRIPT, TRACER, "0", argvs)
    traced = run_python(TRACED_SCRIPT, TRACER, "1", argvs)
    for (argv, spans, characters), (code, out, none, _), \
            (tcode, tout, names, calls) in zip(COMMANDS, plain, traced):
        assert code == tcode == 0, argv
        assert tout == out, argv
        assert none == []
        # a name imported inside a function would escape the tracer
        assert spans <= set(names), (argv, names)
        if characters is not None:
            assert calls["localize.characters"] == characters, argv


# README's library example prints the q^0 coefficient of s times the
# non-nested series, then the one-point plane integral at (e1, e2) = (1, -2)
README_EXAMPLE_OUTPUT = """\
24
(-21*s^5 - 342*s^4 - 2047*s^3 - 6258*s^2 - 11936*s - 10896)/\
(32*s^14 + 576*s^13 + 3424*s^12 + 5696*s^11 - 12288*s^10 - 35840*s^9)
"""


def test_readme_library_example():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == README_EXAMPLE_OUTPUT
