"""The benchmark's own tests: every workload at toy size through the same
code path as a real run, the output contract, and the checks themselves.

Run from the repository root::

    python -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import scenarios
from repro.dataplane.switch import SoftwareSwitch
from repro.sim import Simulator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = list(run.WORKLOAD_NAMES)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload, seed):
    result = _result(capsys, "--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--size", "small")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(capsys, workload):
    result = _result(capsys, "--workload", workload, "--seconds", "0",
                     "--trace", "1", "--size", "small")
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer")
    share = result["metrics"]["unattributed_share"]["value"]
    assert 0.0 <= share < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_reproduces_pinned_canaries(workload):
    """One full-size repetition of the default seed equals canaries.json."""
    rep = scenarios.Rep()
    scenarios.WORKLOADS[workload](rep, Simulator, run.DEFAULT_SEED,
                                  **scenarios.SIZES["full"][workload])
    assert rep.problems == []
    with open(os.path.join(run.HERE, "canaries.json")) as fh:
        assert rep.canaries == json.load(fh)[workload]


def test_failed_check_marks_run_incorrect(capsys, monkeypatch):
    """A datapath that silently loses packets fails the delivery check,
    and a failed check counts every operation of the run as failed."""
    inject = SoftwareSwitch.inject
    seen = [0]

    def lossy(self, pkt, in_port):
        seen[0] += 1
        if seen[0] % 97:
            inject(self, pkt, in_port)

    monkeypatch.setattr(SoftwareSwitch, "inject", lossy)
    result = _result(capsys, "--workload", "datapath_forward", "--seconds",
                     "0", "--size", "small")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_cohort",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_within_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == WORKLOADS
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    assert all(name.match(n) for n in all_names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS
    assert 1 <= SPEC["run_seconds"] <= 60
