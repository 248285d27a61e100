"""Alternating before/after benchmark pairs: perfbench/run.py on two checkouts.

    python3 tools/bench_pairs.py --base ../parent --change . --workload mc-tilting \
        --pairs 10 --seconds 28 --seed 5001 --label logistic-blocks

``--workload`` may be given more than once, or as ``all`` for every workload
of the change's BENCHMARK.json; the workloads run one after another. Within
a workload, pair i runs both checkouts at seed ``seed + i``, the base first
in even pairs and the change first in odd ones, so a slow spell of the host
lands on both sides alike. Writes ``BENCH_<workload>-<label>.json`` per
workload in the current directory: the host record that run.py prints (CPU
count and model, Python, numpy), each checkout's commit, and for every pair
each side's end-to-end metrics of the change's BENCHMARK.json with its
failed and attempted counts and the ``check output_sha256`` digest it
printed. The summary (``summarize``) gives, per metric, both sides' medians
and quartiles, the quartiles of the per-pair change/base ratios, the pairs
in which each side was better (a tied pair counts for neither), the base's
interquartile range, whether the gain rule holds (the change better in at
least nine tenths of the pairs run and its median beyond the base's by more
than that range, in the metric's better direction), and whether the change is
within the metric's bound: its median no worse than the base's by more than
the bound's fraction of the base's median. A metric is ``unresolved`` when
the base spreads wider than the bound (its interquartile range above the
bound's fraction of its median), so neither verdict can be read from the
medians, unless every change run beats every base run. ``outputs_differ_pairs`` counts
the pairs whose two sides printed different digests: 0 means the change
left every output unchanged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def end_to_end(checkout: str) -> dict:
    """The end-to-end metrics of checkout's BENCHMARK.json: name -> (whether
    higher is better, bound)."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return {m["name"]: (m["better"] == "higher", m["bound"])
                for m in json.load(fh)["end_to_end"]}


def workloads(checkout: str) -> list:
    """The workload names of checkout's BENCHMARK.json, in its order."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def _commit(checkout: str) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _run(checkout: str, workload: str, seed: int, seconds: float, metrics):
    """(host record, result) of one run.py invocation in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: run.py exited {proc.returncode} in {checkout}")
    host = next(json.loads(ln[5:]) for ln in lines if ln.startswith("host "))
    digest = next(ln.split()[-1] for ln in lines if ln.startswith("check output_sha256 "))
    res = json.loads(lines[-1])
    out = {name: res["metrics"][name]["value"] for name in metrics}
    out.update(attempted=res["attempted"], failed=res["failed"], correct=res["correct"],
               digest=digest)
    return host, out


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(pairs, metrics) -> dict:
    """The summary of pairs, each {"base": {...}, "change": {...}} holding a
    side's metric values, its failed and attempted counts and its output
    digest, for metrics as end_to_end returns them."""
    summary = {}
    for m, (higher, bound) in metrics.items():
        base = [p["base"][m] for p in pairs]
        change = [p["change"][m] for p in pairs]
        better = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        worse = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
        qb, qc = _quartiles(base), _quartiles(change)
        iqr = qb["q3"] - qb["q1"]
        gap = (qc["median"] - qb["median"]) * (1 if higher else -1)
        beats_all = min(change) > max(base) if higher else max(change) < min(base)
        summary[m] = {"better": "higher" if higher else "lower", "bound": bound,
                      "base": qb, "change": qc,
                      "pair_ratio": _quartiles([c / b for b, c in zip(base, change)]),
                      "change_better_pairs": better, "base_better_pairs": worse,
                      "base_iqr": iqr,
                      "gain_rule_holds": 10 * better >= 9 * len(pairs) and gap > iqr,
                      "within_bound": gap >= -bound * qb["median"],
                      "unresolved": iqr > bound * qb["median"] and not beats_all}
    for side in ("base", "change"):
        summary[f"failed_{side}"] = sum(p[side]["failed"] for p in pairs)
        summary[f"attempted_{side}"] = sum(p[side]["attempted"] for p in pairs)
    summary["outputs_differ_pairs"] = sum(p["base"]["digest"] != p["change"]["digest"]
                                          for p in pairs)
    return summary


def bench(sides: dict, workload: str, args, metrics) -> dict:
    """The BENCH document of args.pairs alternating pairs on one workload."""
    pairs, host = [], None
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            host, pair[side] = _run(sides[side], workload, seed, args.seconds, metrics)
        pairs.append(pair)
        print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{m} {pair['base'][m]:.4g} -> {pair['change'][m]:.4g}" for m in metrics)
            + ("" if pair["base"]["digest"] == pair["change"]["digest"] else ", outputs differ"),
            file=sys.stderr)
    return {"label": args.label, "workload": workload, "seconds": args.seconds,
            "pairs_run": args.pairs, "host": host,
            "commits": {side: _commit(path) for side, path in sides.items()},
            "summary": summarize(pairs, metrics), "pairs": pairs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout measured as before")
    ap.add_argument("--change", required=True, help="checkout measured as after")
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload of BENCHMARK.json, or all; may be repeated")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--seed", type=int, default=5001)
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    known = workloads(args.change)
    names = [w for name in args.workload for w in (known if name == "all" else [name])]
    unknown = sorted(set(names) - set(known))
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json names {', '.join(known)}")

    sides = {"base": args.base, "change": args.change}
    metrics = end_to_end(args.change)
    for workload in dict.fromkeys(names):  # each once, in the order given
        doc = bench(sides, workload, args, metrics)
        path = f"BENCH_{workload}-{args.label}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
