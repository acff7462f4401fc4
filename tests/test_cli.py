"""CLI contract: subcommands, JSON I/O, exit codes, determinism."""

import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate, chain
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings, strategies as st

import fbpaths.characters as characters
import fbpaths.cli as cli
from fbpaths import Model, chi
from fbpaths.qpoly import unpack_poly
from fbpaths.cli import main
from helpers import coprime_pairs, step_count

FIXTURES = FsPath(__file__).parent / "fixtures"
ROOT = FsPath(__file__).parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chi_bosonic_golden(capsys):
    code, out, _ = run(capsys, "chi", "bosonic", "--p", "1", "--pp", "3",
                       "--a", "1", "--b", "1", "--c", "2", "--L", "6")
    assert code == 0
    assert out.strip() == '{"9": "1"}'


def test_chi_enumerate_fig1(capsys):
    code, out, _ = run(capsys, "chi", "enumerate", "--p", "3", "--pp", "8",
                       "--a", "2", "--b", "4", "--c", "3", "--L", "14")
    assert code == 0
    poly = json.loads(out)
    assert "24" in poly and int(poly["24"]) >= 1
    assert list(poly) == sorted(poly, key=int)  # ascending exponents


def test_chi_fermionic_forms_agree(capsys):
    outs = []
    for form in ("classical", "modified"):
        code, out, _ = run(capsys, "chi", "fermionic", "--p", "3", "--pp", "8",
                           "--a", "1", "--b", "1", "--L", "8", "--form", form)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_chi_enumerate_winged_with_restriction(capsys):
    code, out, _ = run(capsys, "chi", "enumerate", "--p", "3", "--pp", "8",
                       "--a", "2", "--b", "4", "--e", "0", "--f", "1",
                       "--L", "6", "--with-heights", "6")
    assert code == 0
    json.loads(out)


def test_chi_enumerate_at_large_L_equals_bosonic(capsys):
    args = ("--p", "3", "--pp", "8", "--a", "1", "--b", "2", "--L", "121")
    code, out, _ = run(capsys, "chi", "enumerate", *args)
    assert code == 0
    code, bos, _ = run(capsys, "chi", "bosonic", *args)
    assert code == 0 and out == bos
    assert sum(int(c) for c in json.loads(out).values()) == step_count(8, 1, 2, 121)


@pytest.mark.parametrize("heights", [("--a", "0", "--b", "2"), ("--a", "1", "--b", "8"),
                                     ("--a", "1", "--b", "2", "--with-heights", "9"),
                                     ("--a", "1", "--b", "2", "--with-heights", "3,0"),
                                     ("--a", "0", "--b", "2", "--e", "0", "--f", "1"),
                                     ("--a", "1", "--b", "8", "--e", "1", "--f", "0"),
                                     ("--a", "0", "--b", "2", "--e", "0", "--f", "1",
                                      "--m", "1")])
def test_chi_enumerate_heights_outside_the_grid(capsys, heights):
    code, out, err = run(capsys, "chi", "enumerate", "--p", "3", "--pp", "8",
                         "--L", "5", *heights)
    assert code == 2 and out == ""
    assert "1..p'-1" in err and "Traceback" not in err


def test_chi_enumerate_impossible_tuples_are_zero(capsys):
    # and so are the closed forms, which have no term there
    for route in (("enumerate",), ("bosonic",), ("fermionic", "--form", "classical"),
                  ("fermionic", "--form", "modified")):
        for L in ("4", "-1"):  # wrong parity, negative length
            code, out, _ = run(capsys, "chi", route[0], "--p", "3", "--pp", "8",
                               "--a", "1", "--b", "2", "--L", L, *route[1:])
            assert code == 0 and out.strip() == "{}", (route, L)


def test_chi_closed_forms_golden_at_large_L(capsys):
    # the benchmark's char-large-L tuples: every image of its six endpoint
    # orbits under a <-> b and h -> p'-h, at L = 33 (3,8) or 22 (11,38),
    # one more where parity needs it; the digest of the three closed forms'
    # concatenated output pins its bytes
    orbits = ((3, 8, 1, 2), (3, 8, 1, 3), (3, 8, 2, 3),
              (11, 38, 1, 1), (11, 38, 2, 4), (11, 38, 17, 17))
    routes = (("bosonic",), ("fermionic", "--form", "classical"),
              ("fermionic", "--form", "modified"))
    texts = []
    for p, pp, a0, b0 in orbits:
        L0 = 33 if pp == 8 else 22
        for a, b in sorted({(a0, b0), (b0, a0), (pp - a0, pp - b0), (pp - b0, pp - a0)}):
            L = L0 + (L0 + a - b) % 2
            for route in routes:
                code, out, _ = run(capsys, "chi", route[0], "--p", str(p), "--pp", str(pp),
                                   "--a", str(a), "--b", str(b), "--L", str(L), *route[1:])
                assert code == 0
                texts.append(out)
    assert len(texts) == 60
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == \
        "2dc62e2ff0034ad87c36b0ada548d681e7efd93b6efa3f4c44c91d2c87373b4e"


def test_demos_golden():
    # every demo, in sorted order, each in a fresh interpreter on src/: the
    # digest of their concatenated stdout pins its bytes
    env = {**os.environ, "PYTHONPATH": "src"}
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    out = b"".join(subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                                  capture_output=True, check=True).stdout for demo in demos)
    assert hashlib.sha256(out).hexdigest() == \
        "85ec80461e516d1c65f2376ab9c2e1d8e02db21562b49f215f065fc8d0dab19c"


def test_model_show_golden(capsys):
    code, out, _ = run(capsys, "model", "show", "--p", "11", "--pp", "38")
    assert code == 0
    assert "cf = (3, 2, 5)" in out
    assert "(t_1=2, t_2=4, t_3=9)" in out
    assert "(kappa_0,...,kappa_7) = (1, 2, 3, 4, 7, 10, 17, 24)" in out
    assert "(l_1,...,l_8) = (1, 2, 1, 4, 3, 10, 17, 24)" in out
    assert "(kappatilde_0,...,kappatilde_7) = (1, 1, 1, 1, 2, 3, 5, 7)" in out
    assert "(y_-1,...,y_3) = (0, 1, 3, 7, 38)" in out
    assert "(z_-1,...,z_3) = (1, 0, 1, 2, 11)" in out


def test_model_show_json(capsys):
    code, out, _ = run(capsys, "model", "show", "--p", "3", "--pp", "8",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["interfacial"] == [2, 3, 5, 6]
    assert doc["band_parities"] == [0, 1, 0, 0, 1, 0]


def test_path_weight_and_striking(capsys, tmp_path):
    code, out, _ = run(capsys, "path", "weight", "--variant", "wt",
                       "--input", str(FIXTURES / "fig1.json"))
    assert code == 0 and json.loads(out) == {"weight": 24}
    winged = dict(json.loads((FIXTURES / "fig1.json").read_text()))
    winged["boundary"] = {"e": 0, "f": 1}
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps(winged))
    code, out, _ = run(capsys, "path", "striking", "--input", str(wf))
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == [[2, 1], [0, 1], [1, 2], [1, 1], [1, 0], [2, 1], [0, 1]]
    assert (doc["e"], doc["f"], doc["d"]) == (0, 1, 0)


def test_transform_round_trip(capsys, tmp_path):
    src = {"p": 2, "pp": 5, "heights": [1, 2, 3, 2], "boundary": {"e": 0, "f": 1}}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(src))
    code, out, _ = run(capsys, "transform", "b1", "--input", str(f))
    assert code == 0
    big = json.loads(out)["path"]
    assert (big["p"], big["pp"]) == (2, 7)
    f2 = tmp_path / "big.json"
    f2.write_text(json.dumps(big))
    code, out, _ = run(capsys, "transform", "decompose", "--input", str(f2))
    assert code == 0
    doc = json.loads(out)
    assert doc["path"] == src and doc["k"] == 0 and doc["lambda"] == []


def test_transform_b3_trace(capsys, tmp_path):
    src = {"p": 2, "pp": 5, "heights": [1, 2, 3, 2], "boundary": {"e": 0, "f": 1}}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(src))
    code, out, _ = run(capsys, "transform", "bd", "--input", str(f),
                       "--k", "1", "--lambda", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["trace"]) == 1
    assert "from_index" in doc["trace"][0] and "move" in doc["trace"][0]


def test_mn_solve(capsys):
    code, out, _ = run(capsys, "mn", "solve", "--p", "3", "--pp", "8",
                       "--a", "1", "--b", "1", "--L", "6")
    assert code == 0
    doc = json.loads(out)
    assert {"m": [6, 2, 0], "n": [1, 0, 0]} in doc["solutions"]


def test_verify_identity_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "identity", "--ppmax", "5", "--Lmax", "8")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["failures"] == 0 and summary["records"] > 0


def _wrong_terms(monkeypatch, module, name, bad, extra):
    """Make module.name, a generator of (exponent, keys, sign) terms, yield
    the extra terms too for the arguments `bad`."""
    terms = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: chain(
        terms(*args), extra if args == bad else ()))


def _mismatches(out: str) -> tuple[dict, list[dict]]:
    lines = [json.loads(line) for line in out.strip().splitlines()]
    return lines[-1]["summary"], [r for r in lines[:-1] if not r["equal"]]


def test_verify_identity_reports_a_mismatch(capsys, monkeypatch):
    # a bosonic form wrong by q^k on one tuple must fail the sweep and be
    # named; the error goes in as one more term q^k (no Gaussian) of the
    # bosonic sum, which the sweep packs
    bad, k = (1, 4, 1, 1, 2, 2), 1
    want = chi(Model(1, 4), 1, 1, 2, 2).coeff(k)
    _wrong_terms(monkeypatch, cli, "_bosonic_terms", bad, [(k, (), 1)])
    code, out, _ = run(capsys, "verify", "identity", "--ppmax", "4", "--Lmax", "4")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["summary"]["failures"] >= 1
    rec, = [r for r in lines[:-1]
            if (r["p"], r["pp"], r["a"], r["b"], r["c"], r["L"]) == bad]
    assert not rec["equal"]
    assert rec["mismatch"] == {"forms": ["bosonic", "enumerate"], "exponent": k,
                               "bosonic": want + 1, "enumerate": want}


def test_verify_identity_reports_a_negative_bosonic_coefficient(capsys, monkeypatch):
    # the bosonic coefficient of q^6 made -1: its negative part then
    # exceeds its positive one there, and the difference of the packings
    # borrows from the digit above; the report must still name -1
    bad, k = (2, 5, 2, 2, 3, 8), 6
    want = chi(Model(2, 5), *bad[2:]).coeff(k)
    assert want == 3
    _wrong_terms(monkeypatch, cli, "_bosonic_terms", bad, [(k, (), -1)] * (want + 1))
    code, out, _ = run(capsys, "verify", "identity", "--ppmax", "5", "--Lmax", "8")
    assert code == 1
    summary, wrong = _mismatches(out)
    assert summary["failures"] == 1
    rec, = wrong
    assert (rec["p"], rec["pp"], rec["a"], rec["b"], rec["c"], rec["L"]) == bad
    assert rec["mismatch"] == {"forms": ["bosonic", "enumerate"], "exponent": k,
                               "bosonic": -1, "enumerate": want}


def test_verify_identity_reports_a_wrong_classical_form(capsys, monkeypatch):
    # the classical form off by q^k, through its packed smaller-model tail
    bad, k = (1, 4, 1, 1, 2, 2), 1
    want = chi(Model(1, 4), 1, 1, 2, 2).coeff(k)
    tail = characters._tail_terms
    monkeypatch.setattr(characters, "_tail_terms", lambda system, L: chain(
        tail(system, L), [(k, (), 1)] if (system.tak.p, system.tak.pp, system.a, system.b, L)
        == bad[:4] + bad[5:] else ()))
    code, out, _ = run(capsys, "verify", "identity", "--ppmax", "4", "--Lmax", "4")
    assert code == 1
    summary, wrong = _mismatches(out)
    assert summary["failures"] == 1
    rec, = wrong
    assert (rec["p"], rec["pp"], rec["a"], rec["b"], rec["c"], rec["L"]) == bad
    assert rec["forms"] == sorted(cli.ALL_FORMS)
    assert rec["mismatch"] == {"forms": ["bosonic", "fermionic-classical"], "exponent": k,
                               "bosonic": want, "fermionic-classical": want + 1}


def test_verify_identity_reports_a_fermionic_term_below_q0(capsys, monkeypatch):
    # a fermionic summand moved below q^0 is a mismatch to report, not a
    # negative shift: its record packs every form from its lowest exponent
    bad = (1, 4, 1, 1, 2, 2)
    term = characters._term

    def lowered(system, m_hat, n):
        e, keys, sign = term(system, m_hat, n)
        hit = (system.tak.p, system.tak.pp, system.a, system.b, m_hat[0]) == bad[:4] + bad[5:]
        return e - 5 if hit else e, keys, sign

    monkeypatch.setattr(characters, "_term", lowered)
    code, out, _ = run(capsys, "verify", "identity", "--ppmax", "4", "--Lmax", "4")
    assert code == 1
    summary, wrong = _mismatches(out)
    assert summary["failures"] == 1
    rec, = wrong
    assert (rec["p"], rec["pp"], rec["a"], rec["b"], rec["c"], rec["L"]) == bad
    assert rec["mismatch"] == {"forms": ["bosonic", "fermionic-classical"], "exponent": -4,
                               "bosonic": 0, "fermionic-classical": 1}


def test_verify_identity_packs_only_the_forms_it_compares(capsys, monkeypatch):
    # a sweep without the classical form never builds its tail
    def no_tail(system, L):
        raise RuntimeError("the classical tail was packed")

    monkeypatch.setattr(characters, "_tail_terms", no_tail)
    code, out, _ = run(capsys, "verify", "identity", "--ppmax", "6", "--Lmax", "8",
                       "--forms", "enumerate,fermionic-modified")
    assert code == 0
    summary, wrong = _mismatches(out)
    assert summary["failures"] == 0 and summary["records"] > 0 and wrong == []


def blanked_sha256(report: bytes) -> str:
    """SHA-256 of a sweep report with the summary's wall_time_s blanked."""
    return hashlib.sha256(re.sub(rb'"wall_time_s": [^,}]*', b'"wall_time_s": null',
                                 report)).hexdigest()


def test_verify_identity_report_without_enumeration(capsys, monkeypatch, tmp_path):
    # a sweep of two forms without the transfer, one bosonic coefficient
    # made negative: the report's bytes, wall time aside, are those of a
    # sweep that compares the two forms as polynomials, pinned by digest
    bad, k = (2, 5, 2, 2, 3, 8), 6
    _wrong_terms(monkeypatch, cli, "_bosonic_terms", bad, [(k, (), -1)] * 4)
    report = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "verify", "identity", "--ppmax", "6", "--Lmax", "8",
                     "--forms", "bosonic,fermionic-modified", "--output", str(report))
    assert code == 1
    text = report.read_bytes()
    assert json.loads(text.splitlines()[-1])["summary"]["records"] == 632
    assert blanked_sha256(text) == \
        "5c3e904b87202ef0af187aa81556e8a39a1898395e2995def3724351a61a487d"


@pytest.mark.parametrize("jobs, grid", [
    pytest.param("1", ("8", "12"), id="1"),
    pytest.param("2", ("8", "12"), id="2"),
    pytest.param("1", ("10", "14"), id="ppmax10-Lmax14"),
])
def test_verify_identity_matches_the_benchmark_reference(capsys, monkeypatch, tmp_path, jobs,
                                                         grid):
    # the benchmark's identity-sweep grid, whose record count and report
    # digest perfbench/reference.json pins, and the wider --ppmax 10
    # --Lmax 14 grid of the ROADMAP's sweep targets, pinned here
    ref = {("8", "12"): json.loads((ROOT / "perfbench" / "reference.json").read_text())
           ["identity-sweep"],
           ("10", "14"): {"records": 16140, "sha256":
                          "3184a2423ccdb6d41f244e897bcdc07426799c7330a638454a5177ff8a827b4d"}}[grid]
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(cpus, 2))
    report = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "verify", "identity", "--ppmax", grid[0], "--Lmax", grid[1],
                     "--jobs", jobs, "--output", str(report))
    assert code == 0
    text = report.read_bytes()
    summary = json.loads(text.splitlines()[-1])["summary"]
    assert (summary["records"], summary["failures"]) == (ref["records"], 0)
    assert blanked_sha256(text) == ref["sha256"]


def strip_summary(report: str) -> list[str]:
    return [line for line in report.splitlines() if '"summary"' not in line]


def test_verify_identity_deterministic_and_parallel(capsys):
    grid = ("verify", "identity", "--ppmax", "5", "--Lmax", "9")
    _, out1, _ = run(capsys, *grid)
    _, out2, _ = run(capsys, *grid)
    assert strip_summary(out1) == strip_summary(out2)
    _, out3, _ = run(capsys, *grid, "--jobs", "2")
    assert strip_summary(out1) == strip_summary(out3)
    # tasks are generated in report order, and Pool.imap hands the (p, p', a)
    # blocks back in the order they were sent
    keys = [tuple(json.loads(l)[k] for k in ("pp", "p", "a", "b", "c", "L"))
            for l in strip_summary(out1)]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_verify_identity_streams_its_report(monkeypatch):
    # each (p, p', a) block is written as soon as it is verified, so the
    # first record line goes out before the last record is computed
    events = []
    record = cli._identity_record
    monkeypatch.setattr(cli, "_identity_record", lambda task: events.append("record") or record(task))

    class Report(io.StringIO):
        def write(self, text):
            events.append("write")
            return super().write(text)

    with redirect_stdout(Report()):
        assert main(["verify", "identity", "--ppmax", "5", "--Lmax", "9"]) == 0
    last_record = len(events) - 1 - events[::-1].index("record")
    assert events.index("write") < last_record


def test_verify_identity_calls_a_wrapped_record_function(capsys, monkeypatch):
    # perfbench/traced_cli.py swaps cli._identity_record for a one-argument
    # wrapper: the sweep must call it once per record and report the same bytes
    grid = ("verify", "identity", "--ppmax", "5", "--Lmax", "9")
    _, plain, _ = run(capsys, *grid)
    calls = []
    record = cli._identity_record

    def wrapped(task):
        calls.append(task)
        return record(task)

    monkeypatch.setattr(cli, "_identity_record", wrapped)
    _, traced, _ = run(capsys, *grid)
    assert strip_summary(traced) == strip_summary(plain)
    # each task reaches it extended by its width, base exponent and packed
    # values, one signed int for each of its forms
    assert [c[:7] for c in calls] == list(cli.iter_identity_tasks(5, 9, cli.ALL_FORMS))
    for p, pp, a, b, c, L, forms, width, low, values in calls:
        assert set(values) == set(forms)
        assert all(type(value) is int for value in values.values())
        assert unpack_poly(values["enumerate"], width, low) == chi(Model(p, pp), a, b, c, L)


def test_verify_identity_starts_no_idle_worker(capsys, monkeypatch):
    # p' <= 3 has four (p, p', a) blocks: --jobs 8 starts four workers
    started = []

    class InlinePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, blocks):
            return map(fn, blocks)

    grid = ("verify", "identity", "--ppmax", "3", "--Lmax", "4")
    _, serial, _ = run(capsys, *grid)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    _, pooled, _ = run(capsys, *grid, "--jobs", "8")
    assert started == [4]
    assert strip_summary(pooled) == strip_summary(serial)


@pytest.mark.parametrize("grid", [("--ppmax", "-3"), ("--ppmax", "2"), ("--Lmax", "-2")])
def test_verify_identity_on_an_empty_grid_is_a_usage_error(capsys, tmp_path, grid):
    # a sweep with no task verifies nothing, so it must not exit 0
    report = tmp_path / "report.jsonl"
    code, out, err = run(capsys, "verify", "identity", *grid, "--output", str(report))
    assert code == 2 and out == "" and not report.exists()
    assert "empty" in err and "Traceback" not in err


@pytest.mark.parametrize("route", ["enumerate", "bosonic", "fermionic"])
@pytest.mark.parametrize("L", ["-1", "-3"])
def test_chi_at_negative_length_is_the_zero_polynomial(capsys, route, L):
    # no path has a negative length: all three routes agree on {}
    code, out, err = run(capsys, "chi", route, "--p", "3", "--pp", "8",
                         "--a", "1", "--b", "2", "--L", L)
    assert (code, out, err) == (0, "{}\n", "")


@pytest.mark.parametrize("form", ["classical", "modified"])
@pytest.mark.parametrize("a", ["0", "4"])
@pytest.mark.parametrize("L", ["-1", "0", "1", "2", "3"])
def test_chi_fermionic_rejects_a_non_takahashi_endpoint_at_every_length(capsys, form, a, L):
    # (3,8) has no Takahashi length 0 or 4: the answer must not hinge on L's parity
    code, out, err = run(capsys, "chi", "fermionic", "--p", "3", "--pp", "8", "--a", a,
                         "--b", "2", "--L", L, "--form", form)
    assert code == 2 and out == ""
    assert "is not a Takahashi length" in err and "Traceback" not in err


@pytest.mark.parametrize("forms", ["enumerate,enumerate", "bosonic,enumerate,bosonic"])
def test_verify_identity_rejects_a_repeated_form(capsys, forms):
    code, out, err = run(capsys, "verify", "identity", "--ppmax", "4", "--Lmax", "4",
                         "--forms", forms)
    assert code == 2 and out == ""
    assert "twice" in err and "Traceback" not in err


@pytest.mark.parametrize("forms", ["bosonic", "fermionic-modified", ","])
def test_verify_identity_needs_two_forms(capsys, forms):
    code, out, err = run(capsys, "verify", "identity", "--ppmax", "4", "--Lmax", "4",
                         "--forms", forms)
    assert code == 2 and out == ""
    assert "two or more forms" in err and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-5", str((os.cpu_count() or 1) + 1), "1000000"])
def test_verify_jobs_outside_the_cpu_count(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = run(capsys, "verify", "identity", "--ppmax", "4", "--Lmax", "2",
                         "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs" in err and "Traceback" not in err


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError
    monkeypatch.setattr(cli, "bosonic", no_memory)
    code, out, err = run(capsys, "chi", "bosonic", "--p", "3", "--pp", "8",
                         "--a", "1", "--b", "2", "--L", "1000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory") and "Traceback" not in err


HUGE = "100000000000000000000"


@pytest.mark.parametrize("argv", [
    ("chi", "bosonic", "--p", "2", "--pp", "5", "--a", "1", "--b", "2", "--L", HUGE + "1"),
    ("chi", "enumerate", "--p", "2", "--pp", "5", "--a", "1", "--b", "2", "--c", "3",
     "--L", HUGE + "1"),
    ("chi", "enumerate", "--p", "2", "--pp", "5", "--a", "1", "--b", "1", "--e", "0",
     "--f", "0", "--L", HUGE),
    ("transform", "b2", "--k", HUGE),
    ("transform", "bd", "--k", HUGE),
    ("chi", "fermionic", "--p", "2", "--pp", "5", "--a", "1", "--b", "2", "--L", HUGE + "1"),
    ("chi", "fermionic", "--p", "2", "--pp", "5", "--a", "1", "--b", "2", "--L", HUGE + "1",
     "--form", "modified"),
])
def test_huge_integers_are_a_usage_error(capsys, tmp_path, argv):
    # 1 means a verification mismatch: an integer too large to index, range
    # over or shift by is the caller's error
    winged = tmp_path / "winged.json"
    winged.write_text(json.dumps({"p": 2, "pp": 5, "heights": [1, 2, 3],
                                  "boundary": {"e": 0, "f": 0}}))
    if argv[0] == "transform":
        argv += ("--input", str(winged))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: a number is too large") and "Traceback" not in err


def test_usage_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 3, "pp": 8, "heights": [1, 3],
                               "boundary": {"c": 2}}))
    code, _, err = run(capsys, "path", "weight", "--variant", "wt",
                       "--input", str(bad))
    assert code == 2 and "step" in err
    code, _, err = run(capsys, "chi", "bosonic", "--p", "4", "--pp", "8",
                       "--a", "1", "--b", "1", "--c", "2", "--L", "4")
    assert code == 2 and "coprime" in err
    with pytest.raises(SystemExit) as exc:
        main(["chi", "nonsense"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "mn", "solve", "--p", "11", "--pp", "38",
                     "--a", "5", "--b", "1", "--L", "4")
    assert code == 2  # a outside the Takahashi sets
    for route in ("enumerate", "bosonic", "fermionic"):  # (1,2) has no endpoint c
        code, out, err = run(capsys, "chi", route, "--p", "1", "--pp", "2",
                             "--a", "1", "--b", "1", "--L", "0")
        assert code == 2 and out == "" and "post-segment" in err
    # (3,8), b = 2 is interfacial: the fermionic forms take c = 1 or c = 3 only
    for c, want in (("1", 0), ("3", 0), ("9", 2), ("0", 2), ("-5", 2), ("5", 2)):
        code, out, err = run(capsys, "chi", "fermionic", "--p", "3", "--pp", "8",
                             "--a", "1", "--b", "2", "--L", "4", "--c", c)
        assert code == want, c
        if want:
            assert out == "" and "c = 1 or 3" in err and "Traceback" not in err


@pytest.mark.parametrize("boundary", [5, "c", [3], None, {"c": None},
                                      {"e": [1], "f": 0}, {"c": {}},
                                      {"c": 3.5}, {"e": True, "f": "0"}])
def test_non_object_boundary_is_a_usage_error(capsys, tmp_path, boundary):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 3, "pp": 8, "heights": [2, 3, 4],
                               "boundary": boundary}))
    code, out, err = run(capsys, "path", "weight", "--variant", "wt",
                         "--input", str(bad))
    assert code == 2 and out == ""
    assert "boundary" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("p", 3.0), ("p", "3"),
                                          ("heights", [2.9, 3.2, 4.99]),
                                          ("heights", ["2", "3", "4"])])
def test_non_integer_path_json_is_a_usage_error(capsys, tmp_path, field, value):
    doc = {"p": 3, "pp": 8, "heights": [2, 3, 4], "boundary": {"c": 3}}
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "path", "weight", "--variant", "wt",
                         "--input", str(bad))
    assert code == 2 and out == ""
    assert "integer" in err and "Traceback" not in err


def test_deeply_nested_path_json_is_a_usage_error(capsys, tmp_path):
    # the JSON decoder gives up on deep nesting with a RecursionError
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000)
    for argv in (("path", "weight", "--variant", "wt"), ("path", "striking"),
                 ("transform", "b1")):
        code, out, err = run(capsys, *argv, "--input", str(bad))
        assert code == 2 and out == ""
        assert "nests too deeply" in err and "Traceback" not in err


# -- the exit contract on random input -------------------------------------------

INTS = st.integers(-3, 12).map(str)
MODELS = st.sampled_from(coprime_pairs(12)) | st.tuples(st.integers(-3, 12),
                                                             st.integers(-3, 12))
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=4),
    max_leaves=8)
WALKS = st.builds(lambda h0, steps: list(accumulate([h0, *steps])),
                  st.integers(-3, 12), st.lists(st.sampled_from((-1, 1)), max_size=10))
WINGS = st.integers(0, 1) | st.integers(-3, 12)
PATH_DOCS = st.builds(
    lambda model, heights, boundary: {"p": model[0], "pp": model[1],
                                      "heights": heights, "boundary": boundary},
    MODELS, WALKS | JSON_DOCS,
    st.builds(lambda c: {"c": c}, st.integers(-3, 12))
    | st.builds(lambda e, f: {"e": e, "f": f}, WINGS, WINGS) | JSON_DOCS)


def _winged_path(model, h0, steps, e, f):
    """A winged path in `model`: steps that would leave the grid turn back."""
    p, pp = model
    heights = [1 + h0 % (pp - 1)]
    for step in steps:
        h = heights[-1] + step
        heights.append(h if 0 < h < pp else h - 2 * step)
    return {"p": p, "pp": pp, "heights": heights, "boundary": {"e": e, "f": f}}


WINGED_PATHS = st.builds(_winged_path, st.sampled_from(coprime_pairs(8)),
                         st.integers(0, 12), st.lists(st.sampled_from((-1, 1)), max_size=10),
                         st.integers(0, 1), st.integers(0, 1))
PATH_FILES = st.one_of(WINGED_PATHS.map(json.dumps), PATH_DOCS.map(json.dumps),
                       JSON_DOCS.map(json.dumps), st.text(max_size=8),
                       st.just("[" * 100_000))
COMMA_LISTS = st.lists(INTS | st.text(max_size=3), max_size=4).map(",".join) \
    | st.text(max_size=8)
FORMS = st.lists(st.sampled_from(cli.ALL_FORMS + ("", " junk")), max_size=5).map(",".join) \
    | st.text(max_size=8)


def _command(head, model=False, required=(), **optional):
    """argv strategy: `head`, then --p/--pp from MODELS when `model`, each
    (name, strategy) of `required`, and each optional option absent or
    given a drawn value (a None strategy is a bare flag)."""
    parts = [MODELS.map(lambda m: ("--p", str(m[0]), "--pp", str(m[1])))] if model else []
    parts += [value.map(lambda v, n=name: (f"--{n}", v)) for name, value in required]
    parts += [st.just(()) | (st.just((f"--{name}",)) if value is None
                             else value.map(lambda v, n=name: (f"--{n}", v)))
              for name, value in optional.items()]
    return st.tuples(*parts).map(lambda tails: (*head, *sum(tails, ())))


def _argvs():
    endpoints = dict(model=True, required=[("a", INTS), ("b", INTS), ("L", INTS)])
    chi_opts = dict(c=INTS, format=st.sampled_from(("json", "text", "xml")))
    transforms = ("b1", "b2", "b3", "d", "bd", "decompose")
    return st.one_of(
        _command(("model", "show"), model=True, format=st.sampled_from(("json", "text"))),
        _command(("chi", "enumerate"), **endpoints, **chi_opts, e=WINGS.map(str),
                 f=WINGS.map(str), m=INTS, **{"with-heights": COMMA_LISTS}),
        _command(("chi", "bosonic"), **endpoints, **chi_opts),
        _command(("chi", "fermionic"), **endpoints, **chi_opts, tprime=None,
                 form=st.sampled_from(("classical", "modified"))),
        _command(("path", "weight"), required=[("input", st.just("PATH")),
                                               ("variant", st.sampled_from(("wt", "wtilde")))]),
        _command(("path", "striking"), required=[("input", st.just("PATH"))]),
        st.sampled_from(transforms).flatmap(lambda kind: _command(
            ("transform", kind), required=[("input", st.just("PATH"))], k=INTS,
            direction=st.sampled_from(("B", "BD")), **{"lambda": COMMA_LISTS})),
        _command(("mn", "solve"), **endpoints, tprime=None),
        # a small grid, and --jobs below 2, so no process pool starts
        _command(("verify", "identity"), required=[("ppmax", st.integers(-3, 6).map(str)),
                                                   ("Lmax", st.integers(-3, 6).map(str))],
                 jobs=st.sampled_from(("-1", "0", "1")), forms=FORMS),
    )


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "path.json"


@settings(max_examples=300, deadline=None)
@given(argv=_argvs(), doc=PATH_FILES)
def test_every_command_keeps_the_exit_contract(fuzz_input, argv, doc):
    # 0 = ok, 1 = a verification mismatch, 2 = a usage error; never an
    # escaping exception
    fuzz_input.write_text(doc)
    argv = [str(fuzz_input) if x == "PATH" else x for x in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
