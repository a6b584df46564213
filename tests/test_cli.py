"""Command line surface: JSON/CSV shapes, exit codes, determinism, the
resource-cap override."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from sympy import factorint

from ffwitness import cli, field
from ffwitness.field import clear_field_cache


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_construct_json_contract():
    code, out, err = run(["construct", "--p", "7", "--k", "1", "--h", "2", "--d", "2"])
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["verified"] is True
    assert rep["cardinality"] == 7
    assert rep["certificate"] == 9
    assert rep["spec"]["alpha"] == 9
    # canonical serialization: sorted keys, two-space indent, trailing newline
    assert out == json.dumps(rep, indent=2, sort_keys=True) + "\n"


def test_construct_deterministic_bytes():
    args = ["construct", "--p", "3", "--k", "1", "--h", "2", "--d", "2"]
    assert run(args)[1] == run(args)[1]


def test_construct_out_file(tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(
        ["construct", "--p", "7", "--k", "1", "--h", "2", "--d", "2", "--out", str(path)]
    )
    assert code == cli.EXIT_OK and out == ""
    assert json.loads(path.read_text())["cardinality"] == 7


def test_construct_bad_divisor_exits_2():
    code, out, err = run(["construct", "--p", "3", "--k", "1", "--h", "2", "--d", "5"])
    assert code == cli.EXIT_BAD_INPUT
    assert "bad input" in err


def test_cap_flag_exits_3():
    clear_field_cache()
    code, out, err = run(
        ["construct", "--p", "3", "--k", "1", "--h", "2", "--d", "2", "--cap-field", "5"]
    )
    assert code == cli.EXIT_CAP
    assert "cap exceeded" in err
    clear_field_cache()


def test_cap_env_overrides_flag(monkeypatch):
    clear_field_cache()
    monkeypatch.setenv("FFWITNESS_CAP", "5")
    code, _, err = run(
        ["construct", "--p", "3", "--k", "1", "--h", "2", "--d", "2",
         "--cap-field", "1000000"]
    )
    assert code == cli.EXIT_CAP
    clear_field_cache()


def test_survey_csv_q7_row():
    code, out, _ = run(["survey", "--q-min", "7", "--q-max", "7", "--format", "csv"])
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == (
        "q,h,d,r,t,t_strict,set_size,m_h,cond1,cond2,cond3,cond4,"
        "guaranteed,certified,floor_log2_qm1,sqrt_q,log2_claim_ok,status"
    )
    assert lines[1] == "7,2,2,3,1,1,7,1,true,true,true,true,true,true,2,2.645751,false,ok"


def test_survey_json_default():
    code, out, _ = run(["survey", "--q-min", "7", "--q-max", "13"])
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    assert [r["q"] for r in rows] == [7, 8, 9, 11, 13]
    assert rows[1]["status"].startswith("skipped")


def test_audit_weil_csv_and_determinism():
    args = ["audit-weil", "--q-list", "7", "--m", "2", "--count", "6", "--format", "csv"]
    code, out, _ = run(args)
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "q,m,f,chi,re,im,abs,bound,applicable,ok"
    assert len(lines) >= 7
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "7" and cells[1] == "2"
        if cells[8] == "true":
            assert cells[9] == "true"
    assert out == run(args)[1]


def test_audit_bounds_csv():
    code, out, _ = run(["audit-bounds", "--q-max", "50", "--format", "csv"])
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "q,m_h,floor_log2_qm1,sqrt_ok,log2_claim_ok"
    assert "17,2,4,true,false" in lines


def test_primitive_json():
    code, out, _ = run(["primitive", "--q", "7", "--n", "2", "--t", "1"])
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["mode"] == "primitive"
    assert rep["n_actual"] == 4
    assert rep["verified"] is True


def test_mn_search_found():
    code, out, _ = run(["mn-search", "--q", "2", "--kk", "2", "--l", "2"])
    assert code == cli.EXIT_OK
    blob = json.loads(out)
    assert blob["found"] is True
    assert blob["witness"]["coeffs"] == [2, 1, 1]


def test_mn_search_absent_is_structured(monkeypatch):
    monkeypatch.setattr(cli, "mn_conjecture_search", lambda *a, **k: None)
    code, out, _ = run(["mn-search", "--q", "2", "--kk", "2", "--l", "2"])
    assert code == cli.EXIT_AUDIT
    blob = json.loads(out)
    assert blob["found"] is False and blob["witness"] is None


def test_ck_check_json():
    code, out, _ = run(["ck-check", "--q-min", "7", "--q-max", "13"])
    assert code == cli.EXIT_OK
    blob = json.loads(out)
    assert blob["all_ok"] is True
    assert [r["q"] for r in blob["results"]] == [7, 9, 11, 13]


def test_hm_check_json():
    code, out, _ = run(["hm-check", "--p-list", "3"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["all_ok"] is True


def test_verify_roundtrip(tmp_path):
    path = tmp_path / "rep.json"
    run(["construct", "--p", "7", "--k", "1", "--h", "2", "--d", "2", "--out", str(path)])
    code, out, _ = run(["verify", str(path)])
    assert code == cli.EXIT_OK
    assert json.loads(out) == {"ok": True, "problems": []}


def test_verify_tampered_exits_1(tmp_path):
    path = tmp_path / "rep.json"
    run(["construct", "--p", "7", "--k", "1", "--h", "2", "--d", "2", "--out", str(path)])
    blob = json.loads(path.read_text())
    blob["cardinality"] = 99
    path.write_text(json.dumps(blob))
    code, out, _ = run(["verify", str(path)])
    assert code == cli.EXIT_AUDIT
    result = json.loads(out)
    assert result["ok"] is False and result["problems"]


# options a subcommand does not read: argparse refuses them with exit 2
UNREAD_OPTIONS = {
    "construct-format": ["construct", "--p", "7", "--k", "1", "--h", "2", "--d", "2", "--format", "csv"],
    "construct-seed": ["construct", "--p", "7", "--k", "1", "--h", "2", "--d", "2", "--seed", "1"],
    "primitive-format": ["primitive", "--q", "7", "--n", "2", "--format", "csv"],
    "mn-search-seed": ["mn-search", "--q", "3", "--kk", "2", "--l", "2", "--seed", "1"],
    "verify-format": ["verify", "rep.json", "--format", "csv"],
    "survey-seed": ["survey", "--q-min", "7", "--q-max", "7", "--seed", "1"],
    "audit-bounds-cap-field": ["audit-bounds", "--q-max", "10", "--cap-field", "100"],
}


@pytest.mark.parametrize("case", sorted(UNREAD_OPTIONS))
def test_an_unread_option_exits_2(case):
    with pytest.raises(SystemExit) as exc:
        run(UNREAD_OPTIONS[case])
    assert exc.value.code == 2


def test_each_subcommand_takes_the_options_it_reads():
    # the shapes the benchmark harness and criterion 12 pass, plus each
    # option on a subcommand that reads it
    ap = cli._build_parser()
    for argv in (
        ["survey", "--q-min", "7", "--q-max", "31", "--h", "2", "--d", "3", "--format", "csv"],
        ["audit-weil", "--q-list", "101", "--m", "2", "--count", "25", "--format", "csv", "--seed", "5"],
        ["construct", "--p", "3", "--k", "4", "--h", "2", "--d", "2", "--cap-field", "100", "--out", "x"],
        ["audit-bounds", "--q-max", "10", "--format", "csv", "--out", "x"],
        ["ck-check", "--format", "csv", "--cap-field", "100"],
        ["hm-check", "--format", "csv", "--cap-field", "100"],
        ["primitive", "--q", "7", "--n", "2", "--cap-field", "100"],
        ["mn-search", "--q", "3", "--kk", "2", "--l", "2", "--cap-field", "100"],
        ["verify", "rep.json", "--cap-field", "100"],
    ):
        ap.parse_args(argv)


def _construct_report(tmp_path):
    path = tmp_path / "rep.json"
    run(["construct", "--p", "7", "--k", "1", "--h", "2", "--d", "2", "--out", str(path)])
    return json.loads(path.read_text())


def _without(blob, key):
    return {k: v for k, v in blob.items() if k != key}


# (argv, report written to the verify path or None): malformed input that
# must exit 2 with one line on stderr
MALFORMED = {
    "survey-d-zero": (["survey", "--q-min", "7", "--q-max", "10", "--d", "0"], None),
    "survey-d-negative": (["survey", "--q-min", "7", "--q-max", "10", "--d", "-3"], None),
    "survey-h-negative": (["survey", "--q-min", "7", "--q-max", "10", "--h", "-1"], None),
    "verify-top-level-list": (["verify"], lambda rep: [rep]),
    "verify-no-spec": (["verify"], lambda rep: _without(rep, "spec")),
    "verify-no-mode": (["verify"], lambda rep: _without(rep, "mode")),
    "verify-spec-not-object": (["verify"], lambda rep: {**rep, "spec": [1, 2]}),
    "verify-spec-no-alpha": (["verify"], lambda rep: {**rep, "spec": _without(rep["spec"], "alpha")}),
    "verify-alpha-string": (["verify"], lambda rep: {**rep, "spec": {**rep["spec"], "alpha": "9"}}),
    "verify-alpha-negative": (["verify"], lambda rep: {**rep, "spec": {**rep["spec"], "alpha": -1}}),
    "verify-e-null": (["verify"], lambda rep: {**rep, "spec": {**rep["spec"], "e": None}}),
    "verify-set-indices-int": (["verify"], lambda rep: {**rep, "set_indices": 7}),
    "verify-big-field-list": (["verify"], lambda rep: {**rep, "big_field": [7, 2]}),
    "verify-p-bool": (["verify"], lambda rep: {**rep, "spec": {**rep["spec"], "p": True}}),
    "verify-unknown-mode": (["verify"], lambda rep: {**rep, "mode": "square"}),
    "construct-h-one": (["construct", "--p", "7", "--k", "1", "--h", "1", "--d", "2"], None),
    "audit-weil-max-degree-zero": (["audit-weil", "--q-list", "7", "--count", "1", "--max-degree", "0"], None),
    "audit-weil-gf2": (["audit-weil", "--q-list", "2", "--m", "1"], None),
    "audit-bounds-h-zero": (["audit-bounds", "--q-max", "10", "--h", "0"], None),
    "primitive-q-not-prime-power": (["primitive", "--q", "6", "--n", "2"], None),
    "mn-search-q-not-prime-power": (["mn-search", "--q", "6", "--kk", "2", "--l", "2"], None),
    "ck-check-q-below-7": (["ck-check", "--q-min", "3", "--q-max", "5"], None),
    "hm-check-even-p": (["hm-check", "--p-list", "4"], None),
    # an all_ok over no field would be vacuous
    "ck-check-reversed-range": (["ck-check", "--q-min", "50", "--q-max", "7"], None),
    "hm-check-empty-p-list": (["hm-check", "--p-list", ""], None),
    "audit-weil-empty-q-list": (["audit-weil", "--q-list", ","], None),
    "audit-weil-count-zero": (["audit-weil", "--q-list", "7", "--count", "0"], None),
    "audit-weil-count-negative": (["audit-weil", "--q-list", "7", "--count", "-1"], None),
    "audit-bounds-no-odd-q": (["audit-bounds", "--q-max", "2"], None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(case, tmp_path):
    argv, make_report = MALFORMED[case]
    if make_report is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make_report(_construct_report(tmp_path))))
        argv = argv + [str(path)]
    code, out, err = run(argv)
    assert code == cli.EXIT_BAD_INPUT, (case, code, err)
    assert out == ""
    assert err.startswith("bad input: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["audit-weil-max-degree-zero", "audit-weil-gf2"])
def test_audit_weil_messages_name_the_option(case):
    _, _, err = run(MALFORMED[case][0])
    assert ("max_degree" if case.endswith("zero") else "q**m") in err


# inputs whose size alone exceeds the cap, rejected before p or q is
# factored and before p**k is formed
OVERSIZED = {
    "construct-huge-p": ["construct", "--p", "1000000000000000003", "--k", "1", "--h", "2", "--d", "2"],
    "construct-huge-k": ["construct", "--p", "3", "--k", "300000000", "--h", "2", "--d", "2"],
    "primitive-huge-q": ["primitive", "--q", "1000000000000000003", "--n", "2"],
    "audit-weil-huge-q": ["audit-weil", "--q-list", "1000000000000000003"],
    "hm-check-huge-p": ["hm-check", "--p-list", "1000000000000000003"],
    "mn-search-huge-l": ["mn-search", "--q", "3", "--kk", "2", "--l", "100000000"],
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_input_exits_3_quickly(case):
    start = time.perf_counter()
    code, out, err = run(OVERSIZED[case])
    assert time.perf_counter() - start < 2
    assert code == cli.EXIT_CAP and out == ""
    assert err.startswith("cap exceeded: ") and err.count("\n") == 1, err


def test_survey_huge_h_records_cap_row_quickly():
    # q**h is never formed: divisibility by d is decided by pow(q, h, d)
    start = time.perf_counter()
    code, out, _ = run(["survey", "--q-min", "7", "--q-max", "7", "--h", "100000000", "--format", "csv"])
    assert time.perf_counter() - start < 2
    assert code == cli.EXIT_OK
    assert out.splitlines()[1].endswith(",cap: field size 7**100000000 exceeds cap 4194304")


def test_survey_far_above_the_cap_records_cap_rows_quickly():
    # prime powers are found by Miller-Rabin and integer roots, and each is
    # refused by the cap before q - 1 is factored
    lo = 10**18
    want = [q for q in range(lo, lo + 11) if len(factorint(q)) == 1]
    start = time.perf_counter()
    code, out, _ = run(["survey", "--q-min", str(lo), "--q-max", str(lo + 10), "--format", "csv"])
    assert time.perf_counter() - start < 2
    assert code == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert want and [int(r["q"]) for r in rows] == want
    assert all(r["status"].startswith("cap: field size") for r in rows)


def test_ck_check_wide_range_reaches_the_cap_at_once():
    # the largest odd prime power of the range, found scanning down from
    # --q-max, is refused by the cap before any row is computed (each row
    # below it costs about q**3: --q-max 2100 took minutes row by row)
    for lo, hi in ((2040, 10**11), (7, 2100), (7, 10**11)):
        top = max(q for q in range(hi - 100, hi + 1) if q % 2 and len(factorint(q)) == 1)
        (p, k), = factorint(top).items()
        start = time.perf_counter()
        code, out, err = run(["ck-check", "--q-min", str(lo), "--q-max", str(hi)])
        assert time.perf_counter() - start < 2, (lo, hi)
        assert code == cli.EXIT_CAP and out == ""
        assert err == f"cap exceeded: field size {p}**{2 * k} exceeds cap {field.DEFAULT_CAP}\n", err


def test_survey_is_byte_identical_under_a_tiny_cache_budget(monkeypatch):
    argv = ["survey", "--q-min", "7", "--q-max", "60", "--h", "2", "--d", "3", "--format", "csv"]
    clear_field_cache()
    want = run(argv)
    monkeypatch.setattr(field, "CACHE_BUDGET", 1 << 16)
    clear_field_cache()
    assert run(argv) == want
    info = field.cache_info()
    assert info["evictions"] > 0
    # the running byte count agrees with a recount of every entry
    assert info["bytes"] == sum(map(field._nbytes, field._CACHE.values()))
    clear_field_cache()


RSS_PROBE = """
import contextlib, io, resource, sys
from ffwitness import cli, field
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base, field.cache_info()["evictions"])
"""


def test_cap_window_survey_memory_is_bounded():
    # GF(2039**2) and GF(2**22) each need 32 MiB of int32 tables; the cache
    # evicts the first before it builds the second, so the growth stays
    # well under the 64 MiB both would hold (a cache that never evicts
    # grows about 66 MiB, this one about 35 MiB)
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = ["survey", "--q-min", "2030", "--q-max", "2048", "--h", "2", "--d", "3", "--format", "csv"]
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", RSS_PROBE, *argv], capture_output=True, text=True, env=env, check=True)
    code, grown_kib, evictions = map(int, out.stdout.split())
    assert code == cli.EXIT_OK
    assert evictions >= 1
    assert grown_kib <= 48 * 1024, f"peak RSS grew {grown_kib} KiB after import"


def test_audit_weil_huge_max_degree_exits_2_quickly():
    # degrees above q**m repeat lower ones and are refused before any draw
    start = time.perf_counter()
    code, out, err = run(["audit-weil", "--q-list", "7", "--count", "5", "--max-degree", "100000000"])
    assert time.perf_counter() - start < 2
    assert code == cli.EXIT_BAD_INPUT and out == ""
    assert err == "bad input: max_degree must be <= q**m = 49, got 100000000\n"


def test_construct_forced_huge_prime_t_finishes_quickly():
    # t = 2**61 - 1 is prime; condition 2 is decided without factoring t
    start = time.perf_counter()
    code, out, _ = run(["construct", "--p", "7", "--k", "1", "--h", "2", "--d", "2", "--t", "2305843009213693951"])
    assert time.perf_counter() - start < 2
    assert code == cli.EXIT_OK
    assert json.loads(out)["conditions"][1] is False


def test_audit_weil_m1_on_a_large_prime_field():
    # GF(131071) embeds in itself by the identity, with no image map to build
    code, out, err = run(["audit-weil", "--q-list", "131071", "--m", "1", "--count", "1"])
    assert code == cli.EXIT_OK, err
    assert [row["q"] for row in json.loads(out)] == [131071]


def test_verify_over_cap_exits_3(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_construct_report(tmp_path)))
    clear_field_cache()
    code, out, err = run(["verify", str(path), "--cap-field", "10"])
    assert code == cli.EXIT_CAP and out == ""
    assert err.startswith("cap exceeded: ")
    clear_field_cache()


# each call of a sequence run in one process, against the same call run alone
# in a fresh one: the parser is built once per process, and no call may leave
# state in it for the next
SEQUENCE_PROBE = """
import contextlib, io, json, sys
from ffwitness import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps([code, out.getvalue()]))
"""

SEQUENCE = [
    ["survey", "--q-min", "7", "--q-max", "13", "--h", "2", "--d", "3", "--format", "csv"],
    ["audit-weil", "--q-list", "7", "--count", "0"],
    ["audit-weil", "--q-list", "7", "--m", "2", "--count", "4", "--format", "csv"],
    ["survey", "--q-min", "7", "--q-max", "13"],
]


def test_one_process_gives_each_call_its_lone_output():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("FFWITNESS_CAP", None)

    def probe(argvs):
        cmd = [sys.executable, "-c", SEQUENCE_PROBE, json.dumps(argvs)]
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout
        return [json.loads(line) for line in out.splitlines()]

    together = probe(SEQUENCE)
    assert [code for code, _ in together] == [0, cli.EXIT_BAD_INPUT, 0, 0]
    assert together == [probe([argv])[0] for argv in SEQUENCE]


def test_cached_parser_still_yields_to_the_cap_variable(monkeypatch):
    argv = ["construct", "--p", "3", "--k", "1", "--h", "2", "--d", "2", "--cap-field", "1000000"]
    monkeypatch.delenv("FFWITNESS_CAP", raising=False)
    assert cli._build_parser() is cli._build_parser()
    clear_field_cache()
    assert run(argv)[0] == cli.EXIT_OK
    monkeypatch.setenv("FFWITNESS_CAP", "5")
    clear_field_cache()
    assert run(argv)[0] == cli.EXIT_CAP
    monkeypatch.delenv("FFWITNESS_CAP")
    clear_field_cache()
    assert run(argv)[0] == cli.EXIT_OK
    clear_field_cache()


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
