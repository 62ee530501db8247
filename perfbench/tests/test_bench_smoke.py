"""Tiny-size runs of every workload through the benchmark's command line."""

import json
import math
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

from run import REPORTED_TIMES, listed_metrics, run_workload
from workloads import WORKLOADS, Command, SyntheticDynamics

BENCH = Path(__file__).resolve().parents[1]
COMMANDS = {
    "disk-spectrum": ("spectrum", "filter"),
    "synthetic-bath": ("bath",),
    "synthetic-dynamics": ("propagate", "field"),
}


def run_bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke():
    out = run_bench("--workload", "all", "--seed", "3", "--seconds", "0.5", "--size", "smoke")
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def table(lines):
    """{(workload, mode): {metric: unit}} from the printed report."""
    found, current = {}, None
    for line in lines[:-1]:
        if line.startswith("# ") and " seed " in line:
            name, rest = line[2:].split(" seed ", 1)
            current = found.setdefault((name, "trace on" in rest), {})
        elif current is not None and line and not line.startswith(("#", "FAILED")):
            parts = line.split()
            current[parts[0]] = parts[2]
    return found


def test_every_check_passes(smoke):
    result = json.loads(smoke[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(WORKLOADS)
    assert not [line for line in smoke if line.startswith("FAILED")]


def test_every_named_metric_is_printed_with_its_unit(smoke):
    end_to_end, per_layer = listed_metrics()
    result = json.loads(smoke[-1])
    printed = table(smoke)
    for name, commands in COMMANDS.items():
        untraced = {**end_to_end, "failed_frac": "ratio", "cli.checksum_changes": "count"}
        untraced |= {f"{c}{kind}": "s" for c in ("setup", "run", *commands) for kind in ("_s", "_wall_s")}
        untraced["env.probe_s"] = "s"
        traced = {**per_layer, **{t: "s" for t in REPORTED_TIMES}}
        for traced_mode, units in ((False, untraced), (True, traced)):
            found = printed[(name, traced_mode)]
            for metric, unit in units.items():
                assert found.get(metric) == unit, (name, metric)
        for metric, unit in (end_to_end | per_layer).items():
            assert result["metrics"][f"{name}/{metric}"]["unit"] == unit
        assert result["metrics"][f"{name}/run_s"]["value"] > 0


def test_traced_runs_repeat_their_passes(smoke):
    notes = [line for line in smoke if "set-up + median of" in line]
    counts = {int(line.rsplit(" ", 2)[-2]) for line in notes}
    assert notes and min(counts) >= 2, counts


def test_every_listed_count_is_reached_by_some_workload(smoke):
    """A misspelt count would read 0 everywhere instead of failing."""
    _, per_layer = listed_metrics()
    metrics = json.loads(smoke[-1])["metrics"]
    for metric, unit in per_layer.items():
        values = [metrics[f"{name}/{metric}"]["value"] for name in COMMANDS]
        if unit == "s":
            assert min(values) > 0, metric
        elif metric != "cli.checksum_changes":
            assert max(values) > 0, metric


class MissingModelDynamics(SyntheticDynamics):
    """propagate is pointed at a model file that does not exist."""

    def commands(self):
        propagate, field = super().commands()
        missing = str(self.path("missing.json"))
        argv = tuple(missing if a == str(self.model) else a for a in propagate.argv)
        return [Command(propagate.name, argv, propagate.outputs), field]


def test_a_failing_command_is_counted_and_reported():
    end_to_end, _ = listed_metrics()
    report = run_workload(MissingModelDynamics, 5, 0.1, False, "smoke", end_to_end)
    assert report.failed == 1
    assert report.failures and report.failures[0].startswith("propagate: exit")
    result = report.result(end_to_end)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["run_s"]["value"] > 0
    assert report.metrics["failed_frac"][0] == 1 / report.attempted
    assert math.isnan(report.metrics["field_s"][0])
    assert math.isnan(report.metrics["field_wall_s"][0])


def test_single_workload_prints_only_benchmark_metrics():
    out = run_bench(
        "--workload", "synthetic-bath", "--seed", "4", "--seconds", "0.1",
        "--size", "smoke", "--trace", "1",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(listed_metrics()[1])
    assert result["metrics"]["openquantum.solve_calls"]["value"] == 5


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disk-spectrum", "--seed", "1",
         "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
