"""The pair summary of tools/bench_pairs.py, on made-up pairs (no run.py)."""
import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(base, change, failed=(0, 0), digests=None):
    digests = digests or [("d", "d")] * len(base)
    return [{"base": {"reps_per_s": b, "setup_s": 1.0, "failed": failed[0], "attempted": 10,
                      "digest": db},
             "change": {"reps_per_s": c, "setup_s": 1.2, "failed": failed[1], "attempted": 10,
                        "digest": dc}}
            for b, c, (db, dc) in zip(base, change, digests)]


def test_summary_reads_the_bounds_of_benchmark_json():
    metrics = bench_pairs.end_to_end(ROOT)
    assert set(metrics) == {"setup_s", "reps_per_s", "peak_rss_mb"}
    assert metrics["reps_per_s"] == (True, 0.25) and metrics["setup_s"] == (False, 0.25)


@pytest.mark.parametrize("change, within", [
    ([7.6] * 5, True),     # 24% slower than a base median of 10: inside a 0.25 bound
    ([7.4] * 5, False),    # 26% slower
    ([30.0] * 5, True),
])
def test_within_bound_holds_the_change_median_to_the_bound(change, within):
    metrics = {"reps_per_s": (True, 0.25), "setup_s": (False, 0.15)}
    summary = bench_pairs.summarize(_pairs([9.0, 10.0, 10.0, 11.0, 10.0], change), metrics)
    assert summary["reps_per_s"]["within_bound"] is within
    assert summary["reps_per_s"]["bound"] == 0.25
    # setup 1.0 -> 1.2 is 20% worse, beyond a 0.15 bound for a lower-is-better metric
    assert summary["setup_s"]["within_bound"] is False
    assert summary["setup_s"]["pair_ratio"] == pytest.approx({"q1": 1.2, "median": 1.2, "q3": 1.2})


def test_summary_gives_pair_ratio_quartiles_and_the_gain_rule():
    base = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
    change = [b * 1.1 for b in base]
    summary = bench_pairs.summarize(_pairs(base, change, failed=(1, 2)),
                                    {"reps_per_s": (True, 0.25)})
    s = summary["reps_per_s"]
    # each pair gains 10%, so the ratios agree although the base spreads widely
    assert s["pair_ratio"] == pytest.approx({"q1": 1.1, "median": 1.1, "q3": 1.1})
    assert s["change_better_pairs"] == 10 and s["base_iqr"] == 10.0
    assert s["gain_rule_holds"] is False  # the median gap (1.5) is inside the base's IQR
    assert s["within_bound"] is True
    assert (summary["failed_base"], summary["failed_change"]) == (10, 20)
    assert summary["attempted_change"] == 100


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # a bimodal base: quartiles 0.1425 and 0.1875 about a median of 0.15, an
    # interquartile range of 0.045 > 0.25 x 0.15
    base = [0.14, 0.14, 0.15, 0.15, 0.20, 0.21]
    metrics = {"setup_s": (False, 0.25), "reps_per_s": (True, 0.25)}
    pairs = _pairs([10.0] * 6, [9.0] * 6)
    for p, b in zip(pairs, base):
        p["base"]["setup_s"] = b
    for changed, unresolved in (([0.15] * 6, True),    # inside the spread
                                ([0.13] * 6, False),   # below every base run
                                ([0.22] * 6, True)):   # above every base run: worse
        for p, c in zip(pairs, changed):
            p["change"]["setup_s"] = c
        summary = bench_pairs.summarize(pairs, metrics)
        assert summary["setup_s"]["base_iqr"] == pytest.approx(0.045)
        assert summary["setup_s"]["unresolved"] is unresolved
        # a base without spread always resolves
        assert summary["reps_per_s"]["unresolved"] is False


def test_summary_counts_the_pairs_whose_output_digests_differ():
    metrics = {"reps_per_s": (True, 0.25)}
    same = bench_pairs.summarize(_pairs([10.0] * 4, [11.0] * 4), metrics)
    assert same["outputs_differ_pairs"] == 0
    digests = [("a", "a"), ("b", "c"), ("c", "c"), ("d", "a")]
    moved = bench_pairs.summarize(_pairs([10.0] * 4, [11.0] * 4, digests=digests), metrics)
    assert moved["outputs_differ_pairs"] == 2


def test_run_reads_the_printed_digest(monkeypatch):
    # a stand-in for run.py's stdout: the host line, the checks, the result
    digest = "5b679ed3" + "0" * 56
    stdout = "\n".join([
        'host {"cpus": 2}', "metric reps_per_s 25.1 1/s", f"check output_sha256 {digest}",
        '{"correct": true, "attempted": 8, "failed": 0, '
        '"metrics": {"reps_per_s": {"value": 25.1, "unit": "1/s"}}}'])

    def fake_run(cmd, cwd, capture_output, text):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    host, out = bench_pairs._run(".", "mc-knn", 5001, 1.0, {"reps_per_s": (True, 0.25)})
    assert host == {"cpus": 2}
    assert out == {"reps_per_s": 25.1, "attempted": 8, "failed": 0, "correct": True,
                   "digest": digest}


def test_tied_pairs_count_for_neither_side():
    # peak_rss_mb can tie to the KB: six tied pairs, three better, one worse
    metrics = {"peak_rss_mb": (False, 0.15)}
    base = [42.9] * 10
    change = [42.9] * 6 + [42.8] * 3 + [43.0]
    pairs = _pairs([10.0] * 10, [10.0] * 10)
    for p, b, c in zip(pairs, base, change):
        p["base"]["peak_rss_mb"], p["change"]["peak_rss_mb"] = b, c
    s = bench_pairs.summarize(pairs, metrics)["peak_rss_mb"]
    assert (s["change_better_pairs"], s["base_better_pairs"]) == (3, 1)
    assert s["gain_rule_holds"] is False
    # ties alone favour neither side, so no gain is claimed either way
    tied = bench_pairs.summarize(_pairs([10.0] * 10, [10.0] * 10), {"reps_per_s": (True, 0.25)})
    assert (tied["reps_per_s"]["change_better_pairs"],
            tied["reps_per_s"]["base_better_pairs"]) == (0, 0)
    assert tied["reps_per_s"]["gain_rule_holds"] is False


def test_main_runs_every_workload_and_writes_one_file_each(monkeypatch, tmp_path):
    # run.py is stood in for: the change side reads 1.0 reps/s more
    calls = []

    def fake_run(checkout, workload, seed, seconds, metrics):
        calls.append((workload, seed, checkout))
        value = 11.0 if checkout == "after" else 10.0
        return {"cpus": 2}, {**{m: value for m in metrics}, "attempted": 4, "failed": 0,
                             "correct": True, "digest": "d"}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "end_to_end", lambda checkout: {"reps_per_s": (True, 0.25)})
    monkeypatch.setattr(bench_pairs, "workloads", lambda checkout: ["w1", "w2", "w3"])
    monkeypatch.setattr(bench_pairs, "_commit", lambda checkout: checkout)
    monkeypatch.setattr(bench_pairs, "design_size",
                        lambda checkout: {"src_lines": len(checkout), "all_names": 1})
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--base", "before", "--change", "after", "--workload", "all",
                             "--pairs", "2", "--seed", "7", "--label", "x"]) == 0
    # within a workload the side that runs first alternates, and seeds count up
    assert calls == [(w, seed, side) for w in ("w1", "w2", "w3")
                     for seed, order in ((7, ("before", "after")), (8, ("after", "before")))
                     for side in order]
    for w in ("w1", "w2", "w3"):
        doc = json.loads((tmp_path / f"BENCH_{w}-x.json").read_text())
        assert doc["workload"] == w and doc["label"] == "x" and doc["pairs_run"] == 2
        assert doc["commits"] == {"base": "before", "change": "after"}
        assert doc["summary"]["reps_per_s"]["change_better_pairs"] == 2
        assert doc["summary"]["design"] == {"base": {"src_lines": 6, "all_names": 1},
                                            "change": {"src_lines": 5, "all_names": 1}}

    calls.clear()
    assert bench_pairs.main(["--base", "before", "--change", "after", "--workload", "w3",
                             "--workload", "w1", "--workload", "w3", "--label", "y"]) == 0
    # each workload once, in the order given, for the default 10 pairs
    assert [w for w, _, _ in calls] == ["w3"] * 20 + ["w1"] * 20
    assert sorted(f.name for f in tmp_path.glob("BENCH_*-y.json")) == [
        "BENCH_w1-y.json", "BENCH_w3-y.json"]
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "b", "--change", "a", "--workload", "w9", "--label", "z"])


def test_design_size_counts_source_lines_and_parses_all(tmp_path):
    pkg = tmp_path / "src" / "fedcause"
    pkg.mkdir(parents=True)
    # an __init__ that fails on import: the count must only parse it
    (pkg / "__init__.py").write_text('raise ImportError("not imported")\n'
                                     '__version__ = "0"\n__all__ = [\n    "a", "b",\n    "c"]\n')
    (pkg / "core.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    assert bench_pairs.design_size(tmp_path) == {"src_lines": 8, "all_names": 3}
    # this checkout, against its own files and its package's __all__
    import fedcause
    files = sorted((ROOT / "src" / "fedcause").glob("*.py"))
    assert bench_pairs.design_size(ROOT) == {
        "src_lines": sum(f.read_text().count("\n") for f in files),
        "all_names": len(fedcause.__all__)}
