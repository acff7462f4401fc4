"""Fast self-test of the benchmark harness (about a minute).

    python3 -m pytest -q perfbench

It checks the names in BENCHMARK.json, that every workload prints every
metric, that corrupted outputs are counted as failures, that the seed
changes the inputs, and that a directory without the sources is refused.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_prints_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "transform-suite", "--seed", "3", "--seconds", "0",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["paths.path_objects"] > 0 and metrics["transforms.moves"] > 0
    assert metrics["characters.fermionic.busy_s"] == 0


def test_per_layer_names_match_for_every_workload():
    empty = workloads.tracing.merge([])
    assert set(run.per_layer(empty, 1, {})) == {m["name"] for m in SPEC["per_layer"]}


def test_seed_changes_inputs():
    for name in ("char-large-L", "transform-suite"):
        wl = workloads.WORKLOADS[name]
        assert wl.build(1) == wl.build(1)
        assert wl.build(1) != wl.build(2)


def test_corrupted_character_counts_as_failure():
    wl = workloads.WORKLOADS["char-large-L"]
    ops = [(3, 8, 1, 2, 9, route) for route in wl.ROUTES]
    outputs = []
    for op in ops:
        _, code, out = workloads.run_child(wl.argv(op), deadline=time.monotonic() + 170)
        assert code == 0
        outputs.append(out)
    assert wl.check(ops, outputs) == [True, True, True]
    poly = json.loads(outputs[1])
    key = next(iter(poly))
    poly[key] = str(int(poly[key]) + 1)
    bad = [outputs[0], json.dumps(poly).encode(), outputs[2]]
    verdict = wl.check(ops, bad)
    assert verdict == [True, False, True]
    res = workloads.Result()
    res.pass_s, res.op_s = [1.0], [0.3, 0.3, 0.4]
    res.attempted, res.failed = len(verdict), verdict.count(False)
    assert run.end_to_end(res, [0.1], 1.0)["ok_frac"] == pytest.approx(2 / 3)
    # all three wrong in the same way: agreement alone does not pass
    assert wl.check(ops, [json.dumps(poly).encode()] * 3) == [False] * 3


def test_corrupted_identity_report_counts_as_failure():
    wl = workloads.WORKLOADS["identity-sweep"]
    _, code, report = workloads.run_child(wl.argv(2), deadline=time.monotonic() + 170)
    assert code == 0 and wl.check(report)
    assert wl.check(report.replace(b'"wall_time_s": ', b'"wall_time_s": 9'))
    assert not wl.check(report.replace(b'"L": 12', b'"L": 13', 1))
    assert not wl.check(report.replace(b'"equal": true', b'"equal": false', 1))


def test_corrupted_transform_op_counts_as_failure(monkeypatch):
    wl = workloads.WORKLOADS["transform-suite"]
    fb = wl._load()
    ops = [o for o in wl.build(5) if o[0] == "chain"][:50]
    assert all(wl.do_op(op)[0] for op in ops)
    weight = fb.weight_from_striking
    monkeypatch.setattr(fb, "weight_from_striking", lambda ss: weight(ss) + 1)
    assert not any(wl.do_op(op)[0] for op in ops)


def test_refuses_a_directory_without_sources():
    workloads.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "transform-suite", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert proc.stdout == ""
