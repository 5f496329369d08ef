"""JSON command-line surface: determinism, exit codes, audit plumbing."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import dt4
from dt4 import cli, localize, universal
from dt4.moduli import MAX_K3_COMPONENTS, enumerate_typeII_K3
from dt4.qseries import MAX_K3_ORDER, _k3_order

from oracles import colored_counts, diagonal_log, validate_model
from test_surfaces import bad_fan_presets, packaged_preset


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


def test_odd_power_in_the_conjecture_series_fails_its_check(capsys,
                                                            monkeypatch):
    # the conjecture series has only even powers of q; a q^1 term must
    # fail the check even though its exponent is an integer
    def odd(order):
        return dt4.QSeries({-2: 1, 1: 5}, order + 1)
    monkeypatch.setattr(cli, "z_typeII_conjecture_series", odd)
    code, report, _ = run_json(capsys, ["zseries", "--order", "3"])
    assert code == 1
    checks = {c["id"]: c["pass"] for c in report["checks"]}
    assert checks == {"typeI-series-identity": True,
                      "typeII-conjecture-odd-vanishing": False}


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, ["zseries", "--order", "5"])
    _, out2, _ = run(capsys, ["zseries", "--order", "5"])
    assert out1 == out2
    _, f1, _ = run(capsys, ["fixedloci", "--m", "3", "--n", "2"])
    _, f2, _ = run(capsys, ["fixedloci", "--m", "3", "--n", "2"])
    assert f1 == f2


# one quick run of each subcommand, every flag that enters the report set,
# and the parameters block each report must echo
EVERY_COMMAND = [
    (["zseries", "--order", "3"], {"order": 3}),
    (["chamber", "--k", "0", "--r", "2", "--delta", "3/2", "--t", "1/10",
      "--u", "2"],
     {"k": 0, "r": 2, "delta": "3/2", "t": "1/10", "u": "2"}),
    (["fixedloci", "--m", "1", "--n", "2"], {"m": 1, "n": 2}),
    (["localize", "--surface", "quadric", "--divisor", "B=1,A=1", "--n1",
      "1", "--n2", "0", "--prefactor-variant", "typeIIB", "--alpha-pair",
      "1", "--jobs", "1", "--audit"],
     {"surface": "quadric", "divisor": {"A": 1, "B": 1}, "n1": 1, "n2": 0,
      "prefactor_variant": "typeIIB", "alpha_pair": 1}),
    (["localize", "--chi-numbers", "2,2,2,0,0", "--n2", "0"],
     {"surface": "plane", "divisor": {}, "n1": 0, "n2": 0,
      "prefactor_variant": "product", "alpha_pair": 0,
      "chi_numbers": [2, 2, 2, 0, 0]}),
    (["mochizuki", "--surface", "quadric", "--divisor", "B=1,A=1",
      "--split1", "B=1", "--split2", "A=1", "--n", "1", "--pg", "1",
      "--jobs", "1", "--audit"],
     {"surface": "quadric", "divisor": {"A": 1, "B": 1}, "split1": {"B": 1},
      "split2": {"A": 1}, "n": 1, "pg": 1}),
    (["fit", "--n1", "0", "--n2", "0", "--degree-bound", "0", "--jobs", "1",
      "--audit"],
     {"n1": 0, "n2": 0, "degree_bound": 0}),
]


def test_pretty_streams(capsys):
    for argv, _ in EVERY_COMMAND:
        code, out, quiet = run(capsys, argv)
        assert code == 0, argv
        # without the flag stderr is silent
        assert quiet == "", argv
        pretty_code, pretty_out, err = run(capsys, argv + ["--pretty"])
        # stdout stays the same JSON report, tables go to stderr
        assert (pretty_code, pretty_out) == (code, out), argv
        assert err, argv
    _, _, err = run(capsys, ["zseries", "--order", "3", "--pretty"])
    assert "non-nested series" in err
    assert "check typeI-series-identity: pass" in err


@pytest.mark.parametrize("argv,parameters", EVERY_COMMAND,
                         ids=[" ".join(argv[:2]) for argv, _ in EVERY_COMMAND])
def test_parameters_echo_the_parsed_arguments(argv, parameters, capsys):
    code, out, _ = run(capsys, argv + ["--pretty"])
    assert code == 0
    report = json.loads(out)
    # --jobs, --audit and --pretty steer the run and are not echoed
    assert report["parameters"] == parameters
    for name, value in parameters.items():
        if isinstance(value, dict):
            assert list(report["parameters"][name]) == sorted(value)


def test_late_value_error_is_the_error_object(capsys, monkeypatch):
    # raised after the integral, outside the preset and sum code paths
    def refuse(ratio):
        raise ValueError("no monomial today")
    monkeypatch.setattr(cli, "pure_s_monomial", refuse)
    code, out, err = run(capsys, ["localize", "--divisor", "H=1",
                                  "--pretty"])
    assert code == 1
    report = json.loads(out)
    assert report["error"] == {"type": "ValueError",
                               "message": "no monomial today"}
    assert "results" not in report and "checks" not in report
    assert report["parameters"]["divisor"] == {"H": 1}
    assert err == "  error (ValueError): no monomial today\n"


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


def test_chamber_negative_rational_flags(capsys):
    # "-1/2" as its own argument is the flag's value, not an unknown option
    code, report, _ = run_json(capsys, ["chamber", "--k", "0", "--r", "2",
                                        "--delta", "-1/2", "--t", "-1/2",
                                        "--u", "-3/4"])
    assert code == 1
    assert report["parameters"] == {"k": 0, "r": 2, "delta": "-1/2",
                                    "t": "-1/2", "u": "-3/4"}
    assert report["error"]["message"] == "discriminant must be nonnegative"
    code, report, _ = run_json(capsys, ["chamber", "--k", "0", "--r", "2",
                                        "--delta", "1", "--t", "-1/2",
                                        "--u", "1"])
    assert code == 0
    assert report["results"]["ample"] is False


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

    # one component per b at n = 0, and m = 2 MAX - 1 has MAX values of b
    assert len(enumerate_typeII_K3(2 * MAX_K3_COMPONENTS - 1, 0)) == \
        MAX_K3_COMPONENTS


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


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool started, on a two-CPU machine and with
    a pool budget of 0, so that the real pool starts before the first
    task."""
    started = []
    pool = localize.Pool

    def counted_pool(processes):
        started.append(processes)
        return pool(processes)
    monkeypatch.setattr(localize, "Pool", counted_pool)
    monkeypatch.setattr(localize, "POOL_BUDGET_S", 0)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    return started


@pytest.mark.parametrize("audit", [[], ["--audit"]])
def test_mochizuki_jobs_start_one_pool(audit, capsys, pools):
    argv = ["mochizuki", "--surface", "plane", "--divisor", "H=0",
            "--n", "2"] + audit
    code, serial, _ = run(capsys, argv + ["--jobs", "1"])
    assert code == 0
    code, parallel, _ = run(capsys, argv + ["--jobs", "2"])
    assert code == 0
    # all three splittings (2,0), (1,1), (0,2) share one pool
    assert pools == [2]
    assert parallel == serial


def test_one_pair_starts_no_pool(capsys, pools):
    argv = ["localize", "--surface", "plane", "--divisor", "H=1", "--n1",
            "0", "--n2", "0"]
    code, serial, _ = run(capsys, argv + ["--jobs", "1"])
    assert code == 0
    assert run(capsys, argv + ["--jobs", "2"]) == (0, serial, "")
    assert pools == []


def refuse_sample(model, L, n1, n2):
    raise ValueError("no sample today")


@pytest.mark.parametrize("budget, started", [(float("inf"), []), (0, [2])])
def test_value_error_in_either_phase_is_the_error_object(
        budget, started, capsys, monkeypatch, pools):
    # raised by the caller's own tasks, or by the pool's workers
    monkeypatch.setattr(localize, "POOL_BUDGET_S", budget)
    monkeypatch.setattr(universal, "_typeII_sample", refuse_sample)
    code, out, _ = run(capsys, ["fit", "--n1", "1", "--n2", "0",
                                "--degree-bound", "1", "--jobs", "2"])
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "no sample today"}
    assert pools == started


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
    assert report["error"]["message"] == (
        "fit underdetermined: 28 samples for 35 monomials at degree bound 3")


def test_fit_at_a_huge_degree_bound_refuses_at_once(capsys):
    # the monomials are counted, not built: C(10^6 + 4, 4) of them
    start = time.perf_counter()
    code, report, _ = run_json(capsys, ["fit", "--degree-bound", "1000000"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"] == (
        "fit underdetermined: 28 samples for 41667083334791668750001 "
        "monomials at degree bound 1000000")


@pytest.mark.parametrize("argv,message", [
    ("localize --surface plane --divisor H=1 --n1 12 --n2 12",
     "61905424 fixed-point pairs, above the maximum 2000000"),
    ("mochizuki --surface plane --divisor H=0 --split1 H=8 --split2 H=-8 "
     "--n 0", "the Hilbert scheme of 64 points on 3 charts has at least "),
    ("fit --n1 40", "the Hilbert scheme of 40 points on 3 charts has at "
     "least "),
    ("fit --n1 12 --n2 12",
     "61905424 fixed-point pairs, above the maximum 2000000")],
    ids=["localize", "mochizuki", "fit", "fit_pairs"])
def test_enumerations_above_their_maximum_refuse_at_once(argv, message,
                                                         capsys):
    # each ended in a MemoryError traceback under a limited address space
    start = time.perf_counter()
    code, report, _ = run_json(capsys, argv.split())
    assert time.perf_counter() - start < 1
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"].startswith(message)


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
    results = json.loads(out)["results"]
    # at K3 the nested series is prod_j (1 - (q1 q2)^j)^-24
    assert results["k3_point_value"] == str(
        colored_counts(24, n1)[n1] if n1 == n2 else 0)
    if (n1, n2) == (1, 1):
        # the first diagonal cell is the first log coefficient
        terms = {t["monomial"]: t["coefficient"]
                 for t in results["polynomial"]["terms"]}
        assert (terms["D_sq"], terms["c2"]) == tuple(
            map(dt4.exact_str, diagonal_log(1)))


def test_localize_audit_report_is_golden(capsys):
    # one row per fixed-point pair; the rows of non-nested pairs print "0"
    code, out, _ = run(capsys, ["localize", "--surface", "plane", "--divisor",
                                "H=1", "--n1", "1", "--n2", "1", "--audit"])
    assert code == 0
    path = os.path.join(DATA, "localize_plane_H1_n1_1_n2_1_audit.json")
    with open(path, encoding="utf-8") as fh:
        assert out == fh.read()
    rows = json.loads(out)["results"]["audit"]
    assert len(rows) == 9 and sum(row["term"] == "0" for row in rows) == 6


def test_localize_audit_report_on_larger_fixed_points_is_golden(capsys):
    # fixed points of two boxes: the partitions (2) and (1, 1) on one chart,
    # and one box on each of two charts
    code, out, _ = run(capsys, ["localize", "--surface", "plane", "--divisor",
                                "H=1", "--n1", "2", "--n2", "0", "--audit"])
    assert code == 0
    path = os.path.join(DATA, "localize_plane_H1_n1_2_n2_0_audit.json")
    with open(path, encoding="utf-8") as fh:
        assert out == fh.read()
    rows = json.loads(out)["results"]["audit"]
    points = [row["fixed_point"][0] for row in rows]
    assert [[2], [], []] in points and [[1, 1], [], []] in points
    assert [[1], [1], []] in points


def test_mochizuki_audit_report_is_golden(capsys):
    # the residue route's per-term printing: one sp-residue per fixed-point
    # pair of the three point splittings of a split budget of 2
    code, out, _ = run(capsys, ["mochizuki", "--surface", "hirzebruch1",
                                "--divisor", "C0=1", "--split1", "F=1",
                                "--split2", "C0=-1,F=1", "--n", "1",
                                "--pg", "1", "--audit"])
    assert code == 0
    path = os.path.join(DATA, "mochizuki_hirzebruch1_C0_1_n_1_pg_1_audit.json")
    with open(path, encoding="utf-8") as fh:
        assert out == fh.read()
    results = json.loads(out)["results"]
    assert results["split_budget"] == 2 and len(results["audit"]) == 44


def test_fixedloci_pretty_report_is_golden(capsys):
    # vanishing rows at b = 1, 2 and the middle b = 3, where n1 >= n2
    code, out, err = run(capsys, ["fixedloci", "--m", "5", "--n", "3",
                                  "--pretty"])
    assert code == 0
    for text, name in ((out, "json"), (err, "txt")):
        path = os.path.join(DATA, f"fixedloci_m_5_n_3_pretty.{name}")
        with open(path, encoding="utf-8") as fh:
            assert text == fh.read()


def test_zseries_pretty_report_is_golden(capsys):
    # the three series, their difference and both checks, kept byte for
    # byte on stdout and stderr
    code, out, err = run(capsys, ["zseries", "--order", "7", "--pretty"])
    assert code == 0
    for text, name in ((out, "json"), (err, "txt")):
        path = os.path.join(DATA, f"zseries_order_7_pretty.{name}")
        with open(path, encoding="utf-8") as fh:
            assert text == fh.read()


@pytest.mark.parametrize("order,digest", [
    (-1, "a54f0e39269bb7615e06cf6a8cf81bc6524a28db06fc3a4ef8ab921a48eeb928"),
    (0, "bc8b88149b83db121f91e14a31b5727e1da8a7d448d6ab7cbae47118d5443a05"),
    (1000, "230880f091419b1d95aa5e29b543e823facbae05df218be585c3dac81e63961f")],
    ids=["minus-one", "zero", "maximum"])
def test_zseries_reports_keep_their_digests(order, digest, capsys):
    # the smallest windows and the largest one; the order-1000 report is
    # 583,509 bytes
    code, out, _ = run(capsys, ["zseries", "--order", str(order)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_fixedloci_report_written_in_blocks_keeps_its_digest(capsys):
    # 6,311 rows: over 200,000 encoder chunks, so several blocks
    code, out, _ = run(capsys, ["fixedloci", "--m", "601", "--n", "20"])
    assert code == 0
    assert len(out) == 1_019_745
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "135d2da3fbbbf20b7f29623b510e6486b55ad5d62ee44650af6d7e32768b3702")


def test_fit_audit(capsys):
    code, report, _ = run_json(capsys, ["fit", "--n1", "0", "--n2", "0",
                                        "--degree-bound", "1", "--audit"])
    assert code == 0
    assert len(report["results"]["audit"]) == 29
    assert all(row["value"] == "1" for row in report["results"]["audit"])


@pytest.mark.parametrize("n1,n2", [("-1", "0"), ("-1", "1"), ("1", "-1")])
def test_fit_negative_point_count_is_a_domain_error(n1, n2, capsys):
    code, report, _ = run_json(capsys, ["fit", "--n1", n1, "--n2", n2])
    assert code == 1
    assert report["error"] == {"message": "n must be nonnegative",
                               "type": "ValueError"}


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


def test_pg_validation(capsys):
    # a geometric genus: a negative one is a usage error, not a value
    for bad in ("-1", "-3", "one"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mochizuki", "--n", "1", "--pg", bad])
        assert exc.value.code == 2
        assert "--pg" in capsys.readouterr().err
    parser = cli.build_parser()
    for good in (0, 1):
        assert parser.parse_args(["mochizuki", "--n", "1",
                                  "--pg", str(good)]).pg == good


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


@pytest.mark.parametrize("order", [100_000_000_000, MAX_K3_ORDER + 1],
                         ids=["huge", "maximum-plus-one"])
def test_zseries_order_above_the_maximum_is_a_domain_error(order):
    # the q-series would need order^2 work and memory; refused up front
    start = time.perf_counter()
    proc = run_process(["-m", "dt4.cli", "zseries", "--order", str(order)],
                       timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == {
        "type": "ValueError",
        "message": f"order {order} exceeds the maximum {MAX_K3_ORDER}"}
    assert _k3_order(MAX_K3_ORDER) == MAX_K3_ORDER


@pytest.mark.parametrize("m,n,count", [
    (2 * MAX_K3_COMPONENTS + 1, 0, MAX_K3_COMPONENTS + 1),
    (100_000_000, 3, 200_000_000)], ids=["maximum-plus-one", "huge"])
def test_fixedloci_above_the_maximum_is_a_domain_error(m, n, count):
    # the component count is known in closed form; refused before any
    # component is built
    start = time.perf_counter()
    proc = run_process(["-m", "dt4.cli", "fixedloci", "--m", str(m),
                        "--n", str(n)], timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == {
        "type": "ValueError",
        "message": f"{count} components exceed the maximum "
                   f"{MAX_K3_COMPONENTS}"}


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


# sets the start method before dt4 runs, as a user's own script would, and
# a zero pool budget, so that workers start however short the run
START_METHOD_SCRIPT = ("import multiprocessing, sys\n"
                       "multiprocessing.set_start_method(sys.argv[1])\n"
                       "from dt4 import localize\n"
                       "localize.POOL_BUDGET_S = 0\n"
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
    cases = [
        '{"name": "plane"}', '[1, 2]',
        # the layout that stored the fan under "fan" beside derived copies
        '{"name": "plane", "fixed_points": 3, "bundles": {},'
        ' "chern": {}, "pairing": {}, "canonical": {},'
        ' "fan": {"rays": [], "cones": [], "ray_coeffs": {}}}',
        '{"name": "plane", "rays": [[1, 0], [0, 1], [-1, -1]],'
        ' "ray_coeffs": {"H": [1, 0]}}']
    for blob in cases:
        (tmp_path / "plane.json").write_text(blob)
        code, report, err = run_json(capsys, [
            "localize", "--surface", "plane", "--divisor", "H=1",
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
    # well-typed, but no surface: nothing to localize on
    empty = {"name": "plane", "rays": [], "ray_coeffs": {}}
    (tmp_path / "plane.json").write_text(json.dumps(empty))
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    code, report, err = run_json(capsys, ["localize", "--surface", "plane",
                                          "--n1", "1"])
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": "fan of plane has 0 rays, fewer than three"}
    assert "Traceback" not in err


def test_bad_fans_end_in_the_error_object(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    for data, message in bad_fan_presets():
        name = data["name"]
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
        code, report, err = run_json(capsys, [
            "localize", "--surface", name, "--n1", "1"])
        assert code == 1
        assert report["error"] == {"type": "ValueError", "message": message}
        assert "Traceback" not in err


def test_readme_example_preset_is_the_packaged_one(capsys, tmp_path,
                                                    monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n**Preset files.**", 1)[1]
    blob = section.split("```json\n", 1)[1].split("```", 1)[0]
    name = json.loads(blob)["name"]
    argv = ["localize", "--surface", name, "--divisor", "C0=1,F=2",
            "--n1", "1", "--n2", "1"]
    code, packaged, _ = run(capsys, argv)
    assert code == 0
    (tmp_path / f"{name}.json").write_text(blob)
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    assert run(capsys, argv) == (0, packaged, "")


def test_a_ray_has_exactly_two_coordinates(capsys, tmp_path, monkeypatch):
    data = packaged_preset("quadric")
    data["rays"][0] = [1, 0, 0]
    (tmp_path / "quadric.json").write_text(json.dumps(data))
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    code, report, err = run_json(capsys, ["localize", "--surface", "quadric",
                                          "--divisor", "A=1", "--n1", "0"])
    assert code == 1
    assert report["error"]["message"] == (
        "malformed preset: quadric stores a ray without two coordinates")
    assert "Traceback" not in err


@pytest.mark.parametrize("path,value", [
    (("name",), ["quadric"]),
], ids=["name-list"])
def test_stored_entries_match_in_type_as_well_as_value(path, value, capsys,
                                                       tmp_path,
                                                       monkeypatch):
    # a name that is not a string
    data = packaged_preset("quadric")
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    (tmp_path / "quadric.json").write_text(json.dumps(data))
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    code, report, err = run_json(capsys, ["localize", "--surface", "quadric",
                                          "--divisor", "A=1", "--n1", "1"])
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"].startswith("malformed preset")
    assert "Traceback" not in err


def preset_mutations(blob):
    """(path, kind, copy of ``blob``) for single-entry mutations of every
    entry of a preset: drop it, make it a float or a bool, nest it in a
    list, lengthen or shorten a list, negate an int.  Copies that
    serialize like ``blob`` are left out."""
    def entries(node, path=()):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for k, v in items:
            yield path + (k,), v
            yield from entries(v, path + (k,))

    def variants(v):
        yield "drop", None
        yield "float", float(v) if type(v) is int else 1.5
        yield "bool", True
        yield "nest", [v]
        if isinstance(v, list):
            yield "lengthen", v + (v[-1:] or [0])
            yield "shorten", v[:-1]
        if type(v) is int:
            yield "negate", -v

    for path, v in entries(blob):
        for kind, new in variants(v):
            data = json.loads(json.dumps(blob))
            parent = data
            for k in path[:-1]:
                parent = parent[k]
            if kind == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
            if json.dumps(data) != json.dumps(blob):
                yield path, kind, data


def test_mutated_presets_end_in_the_error_object(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    mutations = list(preset_mutations(packaged_preset("quadric")))
    assert len(mutations) == 120
    loaded = set()
    for path, kind, data in mutations:
        (tmp_path / "quadric.json").write_text(json.dumps(data))
        code, out, err = run(capsys, ["localize", "--surface", "quadric",
                                      "--divisor", "A=1", "--n1", "0"])
        assert "Traceback" not in err
        if code == 0:
            # a mutation that loads is a surface the oracles accept
            validate_model(dt4.from_preset("quadric"))
            loaded.add((path, kind))
        else:
            assert code == 1, (path, kind)
            assert json.loads(out)["error"]["type"] == "ValueError"
    # only a basis divisor replaced by its negative loads
    assert loaded == {(("ray_coeffs", "A", 0), "negate"),
                      (("ray_coeffs", "B", 1), "negate")}


@pytest.mark.parametrize("value", ["1", 1.0, True, [1]],
                         ids=["str", "float", "bool", "list"])
@pytest.mark.parametrize("section,key", [("rays", 0), ("ray_coeffs", "H")])
def test_ill_typed_preset_values_are_domain_errors(section, key, value,
                                                   capsys, tmp_path,
                                                   monkeypatch):
    data = packaged_preset("plane")
    data[section][key][0] = value
    (tmp_path / "plane.json").write_text(json.dumps(data))
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    code, report, err = run_json(capsys, ["localize", "--surface", "plane",
                                          "--divisor", "H=1", "--n1", "1"])
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": f"malformed preset: {section}[{key!r}][0] is {value!r}, "
                   "not an integer"}
    assert "Traceback" not in err


# -- generated command lines -------------------------------------------------

def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# strings no flag parses, or parses into a value no command accepts
MALFORMED = st.sampled_from(["", " ", "x", "1.5", "1e3", "nan", "0x10",
                             "1/0", "=1", "H=", "H=x", "H=1,,", "--", "é"])
FRACTIONS = st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3))
# the basis names of each surface; two names no preset has
SURFACE_BASES = {"plane": ("H",), "quadric": ("A", "B"),
                 "hirzebruch1": ("C0", "F"), "hirzebruch2": ("C0", "F"),
                 "hirzebruch3": ("C0", "F"), "torus": ("H",),
                 "../plane": ("H",)}


def _on_a_surface(divisor_count):
    """A surface name and that many divisors over its basis names and an
    unknown one."""
    def divisors(names):
        return st.lists(st.tuples(st.sampled_from(names + ("Z",)),
                                  st.integers(-2, 2)), max_size=2).map(
            lambda terms: ",".join(f"{k}={v}" for k, v in terms))
    return st.sampled_from(sorted(SURFACE_BASES)).flatmap(
        lambda name: st.tuples(st.just(name), *[divisors(SURFACE_BASES[name])]
                               * divisor_count))


# large splittings whose point budget n - split1.split2 is refused at once,
# or negative, for every drawn n
LARGE_SPLITS = st.sampled_from([
    ("plane", "H=1", "H=8", "H=-8"), ("plane", "", "H=40", "H=-40"),
    ("quadric", "A=1", "A=40", "B=-40"), ("hirzebruch1", "", "F=40", "C0=-40"),
    ("plane", "H=1", "H=40", "H=40"), ("quadric", "", "A=40,B=40", "A=40")])


def _split_budget_at_most_n(drawn):
    """Whether split1.split2 >= 0, so that mochizuki's point budget
    n - split1.split2 stays at most n."""
    name, _, split1, split2 = drawn
    try:
        return dt4.from_preset(name).pair(cli._divisor(split1),
                                          cli._divisor(split2)) >= 0
    except ValueError:      # no preset, or a name outside its basis
        return True


# either n1 + n2 <= 1, so no case integrates more than one point, or a
# point count far above its maximum, refused at once (fit reads n2 > n1 as
# 0 without summing)
LARGE = (40, 10 ** 6, 10 ** 30)
POINTS = st.sampled_from([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
                          if a + b <= 1]
                         + [(n, 0) for n in LARGE] + [(0, n) for n in LARGE]
                         + [(1, 10 ** 6), (10 ** 30, 10 ** 30)]).map(
    lambda ab: tuple(map(str, ab)))
JOBS = _ints(1, 2)

# per subcommand: its valued flags, each drawn from a small hand-set range,
# and its switches; a key of several flags draws their values together
CLI_FLAGS = {
    "zseries": ({"--order": _ints(-2, 12)}, ["--pretty"]),
    "chamber": ({"--k": _ints(-1, 3), "--r": _ints(-1, 3),
                 "--delta": FRACTIONS, "--t": FRACTIONS, "--u": FRACTIONS},
                ["--pretty"]),
    "fixedloci": ({"--m": _ints(-1, 12), "--n": _ints(-1, 1)}, ["--pretty"]),
    "localize": ({"--surface --divisor": _on_a_surface(1),
                  "--n1 --n2": POINTS,
                  "--prefactor-variant": st.sampled_from(["product",
                                                          "typeIIB"]),
                  "--alpha-pair": _ints(-2, 2),
                  "--chi-numbers": st.lists(st.integers(-3, 3), min_size=5,
                                            max_size=5).map(
                      lambda xs: ",".join(map(str, xs))),
                  "--jobs": JOBS}, ["--audit", "--pretty"]),
    "mochizuki": ({"--surface --divisor --split1 --split2": st.one_of(
                   _on_a_surface(3).filter(_split_budget_at_most_n),
                   LARGE_SPLITS),
                   "--n": st.one_of(_ints(-1, 1),
                                    st.sampled_from(LARGE).map(str)),
                   "--pg": _ints(-1, 2),
                   "--jobs": JOBS}, ["--audit", "--pretty"]),
    "fit": ({"--n1 --n2": POINTS, "--degree-bound": _ints(-1, 1),
             "--jobs": JOBS}, ["--audit", "--pretty"]),
}


@st.composite
def command_lines(draw):
    """A subcommand with most of its flags (a required one may be left
    out), and at most one value replaced by a malformed string."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    flags, switches = CLI_FLAGS[command]
    pairs = []
    for flag, values in flags.items():
        if draw(st.integers(0, 7)):         # each flag given 7 times in 8
            names, drawn = flag.split(), draw(values)
            pairs += zip(names, drawn if len(names) > 1 else [drawn])
    if pairs and not draw(st.integers(0, 3)):   # one malformed value in 4
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(MALFORMED))
    argv = [command]
    for name, value in pairs:
        # "--delta=-1/2" and "--delta -1/2" both reach the flag's parser
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv + [s for s in switches if draw(st.booleans())]


def assert_a_report_or_a_usage_error(argv):
    """Run ``argv`` in process: exit 0 or 1 with a report (an error object
    at exit 1), or exit 2 with a usage message, and never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and "usage:" in err.getvalue()
        return
    report = json.loads(out.getvalue())
    assert [] not in report["parameters"].values(), argv
    if code == 1:
        assert set(report["error"]) == {"type", "message"}, argv
    else:
        assert "error" not in report and all(c["pass"]
                                             for c in report["checks"])


@settings(max_examples=150, derandomize=True, deadline=2000)
@given(command_lines())
def test_generated_command_lines_end_in_a_report_or_a_usage_error(argv):
    assert_a_report_or_a_usage_error(argv)


@pytest.mark.parametrize("argv", [
    ["fixedloci", "--m=4", "--n=--"], ["fit", "--jobs=--"],
    ["localize", "--surface=--"], ["localize", "--prefactor-variant=--"],
    ["localize", "--divisor=--"]],
    ids=["int", "jobs", "surface", "choice", "divisor"])
def test_a_double_dash_value_is_no_list(argv):
    # argparse of Python 3.11 parses "--flag=--" into [], which ended in a
    # TypeError, or for --prefactor-variant in a report echoing []
    assert_a_report_or_a_usage_error(argv)
