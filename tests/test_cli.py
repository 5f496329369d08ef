"""JSON command-line surface: determinism, exit codes, audit plumbing."""

import json
import os
import subprocess
import sys

import pytest

import dt4
from dt4 import cli, localize, universal

from test_surfaces import inconsistent_presets, packaged_preset


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_zseries_identity(capsys):
    code, report, _ = run_json(capsys, ["zseries", "--order", "6"])
    assert code == 0
    assert report["command"] == "zseries"
    assert report["deterministic"] is True
    checks = {c["id"]: c["pass"] for c in report["checks"]}
    assert checks == {"typeI-series-identity": True,
                      "typeII-conjecture-odd-vanishing": True}
    assert report["results"]["difference"] == []
    spots = {(e["exponent_num"], e["exponent_den"]): e["coefficient"]
             for e in report["results"]["typeI_series"]}
    assert spots[(0, 1)] == "(24)/(s)"
    assert spots[(1, 1)] == "(3200)/(s)"


def test_zseries_minimal_and_invalid(capsys):
    code, report, _ = run_json(capsys, ["zseries", "--order", "0"])
    assert code == 0
    code, report, _ = run_json(capsys, ["zseries", "--order", "-5"])
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    with pytest.raises(SystemExit) as exc:
        cli.main(["zseries", "--order", "x"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, ["zseries", "--order", "5"])
    _, out2, _ = run(capsys, ["zseries", "--order", "5"])
    assert out1 == out2
    _, f1, _ = run(capsys, ["fixedloci", "--m", "3", "--n", "2"])
    _, f2, _ = run(capsys, ["fixedloci", "--m", "3", "--n", "2"])
    assert f1 == f2


def test_pretty_streams(capsys):
    code, out, err = run(capsys, ["zseries", "--order", "3", "--pretty"])
    assert code == 0
    json.loads(out)  # stdout stays pure JSON
    assert "non-nested series" in err
    assert "check typeI-series-identity: pass" in err
    # without the flag stderr is silent
    _, _, quiet = run(capsys, ["zseries", "--order", "3"])
    assert quiet == ""


def test_chamber_reports(capsys):
    code, report, _ = run_json(capsys, ["chamber", "--k", "0", "--r", "2",
                                        "--delta", "1", "--t", "1",
                                        "--u", "10"])
    assert code == 0
    assert report["results"] == {"ample": True, "threshold": "1/9",
                                 "in_chamber": True}
    code, report, _ = run_json(capsys, ["chamber", "--k", "0", "--r", "2",
                                        "--delta", "1", "--t", "1",
                                        "--u", "9"])
    assert report["results"]["in_chamber"] is False


def test_chamber_non_ample_flagged(capsys):
    code, report, _ = run_json(capsys, ["chamber", "--k", "0", "--r", "2",
                                        "--delta", "1", "--t", "0",
                                        "--u", "9"])
    assert code == 0
    assert report["results"]["ample"] is False
    assert report["results"]["in_chamber"] is None
    assert "ample" in report["results"]["note"]


def test_chamber_rational_flags(capsys):
    code, report, _ = run_json(capsys, ["chamber", "--k", "0", "--r", "2",
                                        "--delta", "1/2", "--t", "1/10",
                                        "--u", "2"])
    assert code == 0
    assert report["results"]["threshold"] == "1/5"


def test_chamber_domain_error(capsys):
    code, report, _ = run_json(capsys, ["chamber", "--k", "0", "--r", "0",
                                        "--delta", "1", "--t", "1",
                                        "--u", "10"])
    assert code == 1 and report["error"]["type"] == "ValueError"


def test_fixedloci(capsys):
    code, report, _ = run_json(capsys, ["fixedloci", "--m", "1", "--n", "2"])
    assert code == 0
    assert report["results"]["component_count"] == 2
    assert report["results"]["all_vanish"] is False
    assert report["results"]["typeI_locus"]["num_points"] == 1
    assert report["results"]["typeI_locus"]["empty"] is False

    code, report, _ = run_json(capsys, ["fixedloci", "--m", "2", "--n", "3"])
    assert report["results"]["all_vanish"] is True

    code, report, _ = run_json(capsys, ["fixedloci", "--m", "1", "--n", "0"])
    assert report["results"]["component_count"] == 1
    assert report["results"]["typeII_components"][0]["n1"] == 0
    assert report["results"]["typeI_locus"]["empty"] is True

    code, report, _ = run_json(capsys, ["fixedloci", "--m", "0", "--n", "0"])
    assert code == 1 and report["error"]["type"] == "ValueError"


def test_localize_trivial_is_prefactor(capsys):
    code, report, _ = run_json(capsys, ["localize", "--surface", "plane",
                                        "--divisor", "H=1"])
    assert code == 0
    assert report["results"]["value"] == report["results"]["prefactor"]
    assert report["results"]["value"] == "(1)/(64*s^9)"


def test_localize_k3_numbers_ratio(capsys):
    code, report, _ = run_json(capsys, ["localize", "--chi-numbers",
                                        "2,2,2,0,0"])
    assert code == 0
    assert report["results"]["value"] == "(1)/(4*s^2)"
    ratio = report["results"]["conjecture_leading_ratio"]
    assert ratio["pure_s_monomial"] is True
    assert ratio["s_exponent"] == -1


def test_localize_audit(capsys):
    code, report, _ = run_json(capsys, ["localize", "--surface", "plane",
                                        "--divisor", "H=1", "--n1", "1",
                                        "--audit"])
    assert code == 0
    assert len(report["results"]["audit"]) == 3
    assert all("fixed_point" in row and "term" in row
               for row in report["results"]["audit"])


def test_localize_bad_inputs(capsys):
    code, report, _ = run_json(capsys, ["localize", "--surface", "banana"])
    assert code == 1 and report["error"]["type"] == "ValueError"
    with pytest.raises(SystemExit) as exc:
        cli.main(["localize", "--divisor", "H"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["localize", "--chi-numbers", "1,2"])
    capsys.readouterr()


@pytest.mark.parametrize("name", [
    os.path.join(os.path.dirname(dt4.__file__), "presets", "plane"),
    "../presets/plane"], ids=["absolute", "relative"])
def test_surface_is_a_preset_name_not_a_path(name, capsys):
    # both paths lead to a real preset file; only DT4_PRESET_DIR adds presets
    for argv in (["localize", "--n1", "1"], ["mochizuki", "--n", "1"]):
        code, report, _ = run_json(capsys, argv + ["--surface", name])
        assert code == 1
        assert report["error"] == {"type": "ValueError", "message":
                                   f"unknown surface preset: {name}"}


def test_localize_variant_flag(capsys):
    base = run_json(capsys, ["localize", "--surface", "quadric",
                             "--divisor", "A=1,B=1"])[1]
    flipped = run_json(capsys, ["localize", "--surface", "quadric",
                                "--divisor", "A=1,B=1",
                                "--prefactor-variant", "typeIIB",
                                "--alpha-pair", "1"])[1]
    assert base["results"]["value"] != flipped["results"]["value"]


def test_mochizuki_empty_range(capsys):
    code, report, _ = run_json(capsys, ["mochizuki", "--surface", "plane",
                                        "--split1", "H=1", "--split2", "H=1",
                                        "--n", "0"])
    assert code == 0
    assert report["results"]["value"] == "0"
    assert report["results"]["empty_split_range"] is True


def test_mochizuki_value_and_audit(capsys):
    code, report, _ = run_json(capsys, ["mochizuki", "--surface", "plane",
                                        "--n", "1", "--audit"])
    assert code == 0
    assert report["results"]["value"] == \
        "(-9*s^2 - 3*e1^2 + 3*e1*e2 - 3*e2^2)/(s^3)"
    assert report["results"]["audit"]


@pytest.mark.parametrize("audit", [[], ["--audit"]])
def test_mochizuki_jobs_start_one_pool(audit, capsys, monkeypatch):
    argv = ["mochizuki", "--surface", "plane", "--divisor", "H=0",
            "--n", "2"] + audit
    code, serial, _ = run(capsys, argv + ["--jobs", "1"])
    assert code == 0
    pools = []
    pool = localize.Pool

    def counted_pool(processes):
        pools.append(processes)
        return pool(processes)
    monkeypatch.setattr(localize, "Pool", counted_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, parallel, _ = run(capsys, argv + ["--jobs", "2"])
    assert code == 0
    # all three splittings (2,0), (1,1), (0,2) share one pool
    assert pools == [2]
    assert parallel == serial


def test_fit_command(capsys):
    code, report, _ = run_json(capsys, ["fit", "--n1", "1", "--n2", "0",
                                        "--degree-bound", "1"])
    assert code == 0
    checks = {c["id"]: c["pass"] for c in report["checks"]}
    assert checks == {"fit-held-out-exact": True, "fit-k3-m-independent": True}
    terms = {t["monomial"]: t["coefficient"]
             for t in report["results"]["polynomial"]["terms"]}
    assert terms == {"c1_sq": "-4", "D_c1": "-2"}
    assert report["results"]["held_out"]["value"] == \
        report["results"]["held_out"]["predicted"]


def test_fit_rank_deficient_named_error(capsys):
    code, report, _ = run_json(capsys, ["fit", "--n1", "1", "--n2", "0",
                                        "--degree-bound", "3"])
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert "underdetermined" in report["error"]["message"]


def test_fit_underdetermined_fails_before_integrating(capsys, monkeypatch):
    def no_samples(*args, **kwargs):
        raise AssertionError("battery integrated for an underdetermined fit")
    monkeypatch.setattr(universal, "typeII_samples", no_samples)
    code, report, _ = run_json(capsys, ["fit", "--n1", "1", "--n2", "1",
                                        "--degree-bound", "3"])
    assert code == 1
    assert report["error"]["message"].startswith(
        "fit underdetermined: 28 samples for 35 monomials (1, c2, ")


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 0)])
def test_degree_two_fit_reports_are_golden(n1, n2, capsys):
    # reports of the four-variable route (typeII_component_integral on
    # EPS_LINE, specialised at its origin), kept byte for byte
    code, out, _ = run(capsys, ["fit", "--n1", str(n1), "--n2", str(n2),
                                "--degree-bound", "2", "--audit"])
    assert code == 0
    path = os.path.join(DATA, f"fit_n1_{n1}_n2_{n2}_degree_2_audit.json")
    with open(path, encoding="utf-8") as fh:
        assert out == fh.read()


def test_fit_audit(capsys):
    code, report, _ = run_json(capsys, ["fit", "--n1", "0", "--n2", "0",
                                        "--degree-bound", "1", "--audit"])
    assert code == 0
    assert len(report["results"]["audit"]) == 29
    assert all(row["value"] == "1" for row in report["results"]["audit"])


@pytest.mark.parametrize("command", [["localize"], ["mochizuki", "--n", "1"],
                                     ["fit"]])
def test_jobs_validation(command, capsys, monkeypatch):
    parser = cli.build_parser()
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(command + ["--jobs", bad])
        assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    # only parsed, never run: no worker is started here
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert parser.parse_args(command + ["--jobs", "1"]).jobs == 1
    assert parser.parse_args(command + ["--jobs", "100000"]).jobs == 2


def test_fit_degree_bound_validation(capsys):
    # rejected while parsing, before any battery integral runs
    for bad in ("-1", "-7", "one"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--degree-bound", bad])
        assert exc.value.code == 2
        assert "--degree-bound" in capsys.readouterr().err
    parser = cli.build_parser()
    assert parser.parse_args(["fit", "--degree-bound", "0"]).degree_bound == 0


def run_process(args, timeout=120):
    """Run a fresh Python interpreter, with this dt4 importable."""
    src = os.path.dirname(os.path.dirname(dt4.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_exact_value_longer_than_the_int_str_limit():
    # 2^chi(2H) in the prefactor has over 6,000 digits; Python refuses to
    # print integers above 4,300 digits unless the CLI lifts that limit
    proc = run_process(["-m", "dt4.cli", "localize", "--divisor", "H=100",
                        "--n1", "0"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(json.loads(proc.stdout)["results"]["value"]) > 4300


@pytest.mark.parametrize("argv", [
    ["--divisor", "H=99999999999999999999"],
    ["--chi-numbers", "100001,0,0,0,0"],
    ["--surface", "quadric", "--chi-numbers=-100001,1,1,0,0"]],
    ids=["divisor", "chi-numbers", "negative"])
def test_prefactor_size_is_a_domain_error(argv):
    # 2^chi(2L) is held exactly, so |chi(2L)| > 100,000 is refused before
    # any power is taken; a 20-digit divisor makes chi(2L) about 2e40
    proc = run_process(["-m", "dt4.cli", "localize", "--n1", "0"] + argv,
                       timeout=10)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("prefactor too large: |chi(2L)| = ")


def test_prefactor_at_the_size_bound_prints(capsys):
    code, report, _ = run_json(capsys, ["localize", "--chi-numbers",
                                        "100000,0,0,0,0"])
    assert code == 0
    # (1)/(2^100000 s^100000), 2^100000 having 30,103 digits
    value = report["results"]["value"]
    assert value.startswith("(1)/(") and value.endswith("*s^100000)")
    digits = value[5:-len("*s^100000)")]
    assert len(digits) == 30103 and digits.isdigit()
    assert digits[-9:] == str(pow(2, 100000, 10 ** 9))


# sets the start method before dt4 runs, as a user's own script would
START_METHOD_SCRIPT = ("import multiprocessing, sys\n"
                       "multiprocessing.set_start_method(sys.argv[1])\n"
                       "from dt4.cli import main\n"
                       "sys.exit(main(sys.argv[2:]))\n")


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
@pytest.mark.parametrize("command", [
    ["localize", "--surface", "plane", "--divisor", "H=2", "--n1", "1",
     "--n2", "1"],
    ["mochizuki", "--n", "1"],
    ["fit", "--n1", "1", "--n2", "0", "--degree-bound", "1"]])
def test_jobs_under_every_start_method(command, method, capsys):
    code, serial, _ = run(capsys, command + ["--jobs", "1"])
    assert code == 0
    # two workers (fewer if the machine has fewer CPUs)
    proc = run_process(["-c", START_METHOD_SCRIPT, method] + command
                       + ["--jobs", "2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == serial


def test_malformed_preset_is_a_domain_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    cases = [("plane", blob) for blob in (
        '{"name": "plane"}', '[1, 2]',
        '{"name": "plane", "fixed_points": 3, "bundles": {},'
        ' "chern": {}, "pairing": {}, "canonical": {},'
        ' "fan": {"rays": [], "cones": [], "ray_coeffs": {}}}')]
    # a preset that disagrees with its fan must not load as another surface
    cases += [(name, json.dumps(data))
              for name, data in inconsistent_presets()]
    divisors = {"plane": "H=1", "quadric": "A=1,B=1"}
    for name, blob in cases:
        (tmp_path / f"{name}.json").write_text(blob)
        code, report, err = run_json(capsys, [
            "localize", "--surface", name, "--divisor", divisors[name],
            "--n1", "1"])
        assert code == 1
        assert report["error"]["type"] == "ValueError"
        assert "malformed preset" in report["error"]["message"]
        assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "undecodable", "not-json"])
def test_unreadable_preset_is_a_domain_error(kind, capsys, tmp_path,
                                             monkeypatch):
    path = tmp_path / "plane.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{" if kind == "undecodable" else b"{")
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    for argv in (["localize", "--surface", "plane", "--n1", "1"],
                 ["mochizuki", "--surface", "plane", "--n", "1"]):
        code, report, err = run_json(capsys, argv)
        assert code == 1
        assert report["error"]["type"] == "ValueError"
        assert report["error"]["message"].startswith(
            "malformed preset: plane is not readable JSON")
        assert "Traceback" not in err


def test_preset_without_charts_is_a_domain_error(capsys, tmp_path,
                                                 monkeypatch):
    # consistent with its empty fan, but no surface: nothing to localize on
    empty = {"name": "plane", "fixed_points": [], "bundles": {},
             "chern": {"c1_sq": 0, "c2": 0, "chi_O": 0}, "pairing": {},
             "canonical": {},
             "fan": {"rays": [], "cones": [], "ray_coeffs": {}}}
    (tmp_path / "plane.json").write_text(json.dumps(empty))
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    code, report, err = run_json(capsys, ["localize", "--surface", "plane",
                                          "--n1", "1"])
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": "fan of plane has 0 rays, fewer than three"}
    assert "Traceback" not in err


@pytest.mark.parametrize("section,entry", [
    ("pairing", {"H": {"H": "1"}}),
    ("pairing", {"H": {"H": 1.0}}),
    ("pairing", {"H": {"H": 1}, "X": {"H": 0}}),
    ("pairing", {"H": {"H": 1, "X": 0}}),
    ("chern", {"c1_sq": 9, "c2": 3, "chi_O": "1"}),
    ("chern", {"c1_sq": 9, "c2": True, "chi_O": 1}),
    ("canonical", {"H": 1.5}),
    ("canonical", {"H": -3, "X": 1}),
])
def test_ill_typed_preset_values_are_domain_errors(section, entry, capsys,
                                                   tmp_path, monkeypatch):
    data = packaged_preset("plane")
    data[section] = entry
    (tmp_path / "plane.json").write_text(json.dumps(data))
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    code, report, err = run_json(capsys, ["localize", "--surface", "plane",
                                          "--divisor", "H=1", "--n1", "1"])
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"].startswith("malformed preset")
    assert "Traceback" not in err
