"""Self-check of the benchmark at minimal sizes.

    python3 -m pytest perfbench -q

Every metric of BENCHMARK.json must print with its unit, the exact counts must
repeat from run to run, the seed argument must reach each workload, and
nothing may fail. The benchmark must also refuse to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-oracle", "mc-tilting", "mc-knn", "fed-cli")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

# counts the program makes, identical on every run of the same code
EXACT = ("density_ratio.eval.rows_per_unit", "density_ratio.fit_tilting.calls",
         "density_ratio.fit_tilting.conv_frac", "density_ratio.fit_tilting.soft_frac",
         "density_ratio.fit_tilting.separated_frac",
         "density_ratio.fit_tilting.noconv_frac", "nuisance.fit_outcome_direct.calls",
         "nuisance.weighted_loss_and_grad.calls", "fedsim.messages",
         "fedsim.transcript_bytes", "fedsim.fedavg.rounds")

# at seed 42 (the fed-cli figures and the oracle probe rows per replication
# do not depend on the replication count --smoke lowers)
SEED_42 = {
    "mc-oracle": {"density_ratio.eval.rows_per_unit": 84_000 / 18_000},
    "fed-cli": {"fedsim.messages": 611, "fedsim.transcript_bytes": 206_714,
                "nuisance.weighted_loss_and_grad.calls": 600},
}


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report
    printed = {}
    for line in report:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = (float(value), unit)
    digest = [ln.split()[-1] for ln in report if ln.startswith("check output_sha256")]
    return result, printed, digest[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_and_seed_reaches_workload(workload):
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    names = ["failed_frac", "cpu_ms_per_rep"] + list(declared)
    if workload == "fed-cli":
        names += [f"{p}_ms.{s}" for p in ("estimate", "replay") for s in ("p50", "tail")]
    digests = []
    for seed in (42, 7):
        result, printed, digest = parse(run(workload, seed, 0))
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name in names:
            assert name in printed and printed[name][1], name
        digests.append(digest)
    assert digests[0] != digests[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    first, second = (parse(run(workload, 42, 1))[0]["metrics"] for _ in range(2))
    assert {k: v["unit"] for k, v in first.items()} == declared
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    for name, value in SEED_42.get(workload, {}).items():
        assert first[name]["value"] == value, name
    assert first["trace.absent_names"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("mc-oracle", 42, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
