"""Tests of the benchmark itself: exact counts, worker-count invariance,
output checks and the contract of the runner.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_library()

from workloads import REFERENCE, WORKLOADS, Certify, GeneralPatterns, PcSearch  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics that must repeat exactly for the same seed
EXACT = (".calls", ".probes", ".rounds", ".edges_added", ".steps", ".hit_ratio")


def layer_counts(cls, seed, ops, tmp_path):
    _, attempted, failed, metrics = run.per_layer(cls, seed, ops, span_dir=tmp_path)
    assert failed == 0
    return attempted, {k: v for k, (v, _) in metrics.items() if k.endswith(EXACT)}


@pytest.mark.parametrize("cls,ops", [(Certify, 1), (GeneralPatterns, 1), (PcSearch, 1)])
def test_counts_repeat_exactly(cls, ops, tmp_path):
    first = layer_counts(cls, 5, ops, tmp_path)
    assert first == layer_counts(cls, 5, ops, tmp_path)
    assert first[0] == ops


def test_worker_count_changes_no_attempt_or_output():
    one, two = PcSearch(3, 1), PcSearch(3, 2)
    outs = {wl: [wl.op(i) for i in range(2)] for wl in (one, two)}
    assert [one.units(o) for o in outs[one]] == [two.units(o) for o in outs[two]]
    assert [o.replace('"workers": 1', '"workers": 2') for o in outs[one]] == outs[two]


def test_benchmark_json_names_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    _, _, _, metrics = run.per_layer(Certify, 1, 1, span_dir=tmp_path)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in metrics.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_checks_reject_wrong_outputs():
    pc = PcSearch(PcSearch.default_seed, 1)
    good = REFERENCE[pc.name]["op0"]
    assert pc.check(0, good) == []
    assert pc.check(0, good.replace('"successes": 49', '"successes": 48'))
    cert = Certify(Certify.default_seed, 1)
    ref = REFERENCE[cert.name]
    good = [(a, s, 0) for a, s in zip(ref["added"], ref["op0_steps"])]
    (a, s, _), rest = good[0], good[1:]
    assert cert.check(0, good) == []
    assert cert.check(0, [(a, s + 1, 0), *rest])
    assert cert.check(0, [(a, s, 1), *rest])
    # on other seeds only the label-invariant added-edge counts are compared
    other = Certify(Certify.default_seed + 1, 1)
    assert other.check(0, [(a, s + 1, 0), *rest]) == []
    assert other.check(0, [(a + 1, s, 0), *rest])


def test_default_seed_certify_matches_reference():
    cert = Certify(Certify.default_seed, 1)
    assert cert.check(0, cert.op(0)) == []


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-n30",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
