"""fedcause benchmark: one workload per invocation.

    python3 perfbench/run.py --workload mc-oracle --seed 42 --seconds 28 --trace 0

Run from the root of a source checkout. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones. Lines before it are the human-readable report: the host
record, every metric by name with its unit, and the correctness checks.

This process imports neither numpy nor fedcause. It runs each set-up sample
and the measured workload in a fresh child process (``--role``), with BLAS and
OpenMP pinned to one thread, so ``setup_s`` and ``peak_rss_mb`` belong to the
workload alone. See perfbench/README.md for what each workload is for.
"""

import time

_T0 = time.perf_counter()  # the child's set-up clock starts before any import

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

from tracer import PER_LAYER, Tracer, pct

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mc-oracle", "mc-tilting", "mc-knn", "fed-cli")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
# fed-cli makes 45 to 75 operations in 28 s; p75 leaves at least 11 above it
TAIL_PCT = 75
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
E2E_UNITS = {"setup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# Child side: runs inside the pinned environment


def _measure(wl, seconds, tracer=None):
    """Closed loop: the next operation starts when the previous one ends, and
    the loop stops at the operation boundary nearest to ``seconds``. Returns
    (wall seconds, process CPU seconds, OpResult) per operation."""
    done = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(done)
        t0, c0 = time.perf_counter(), time.process_time()
        res = wl.op(len(done))
        done.append((time.perf_counter() - t0, time.process_time() - c0, res))
        typical = statistics.median(d for d, _, _ in done)
        if time.perf_counter() - start + typical / 2 >= seconds:
            return done


def _child(args) -> dict:
    import numpy
    import workloads

    workdir = os.path.join(ROOT, ".bench_build", "perfbench", str(os.getpid()))
    os.makedirs(workdir)
    try:
        wl = workloads.make(args.workload, args.seed, workdir, args.smoke)
        wl.setup()
        setup_s = time.perf_counter() - _T0
        if args.role == "setup":
            return {"setup_s": setup_s}
        out = {"setup_s": setup_s, "numpy": numpy.__version__}
        if args.trace:
            half = args.seconds / 2
            plain = _measure(wl, half)
            tracer = Tracer()
            tracer.install()
            try:
                traced = _measure(wl, half, tracer)
            finally:
                tracer.uninstall()
            ops = plain + traced

            def per_unit(done):
                return sum(d for d, _, _ in done) / sum(r.units for _, _, r in done)

            out["metrics"] = tracer.metrics(
                sum(r.units for _, _, r in traced), traced[0][2].units,
                wl.pairs_per_unit, per_unit(traced) / per_unit(plain))
            out["absent"] = tracer.absent
        else:
            ops = _measure(wl, args.seconds)
            units = sum(r.units for _, _, r in ops)
            out["metrics"] = {
                "reps_per_s": units / sum(d for d, _, _ in ops),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            out["cpu_ms_per_rep"] = 1e3 * sum(c for _, c, _ in ops) / units
        out["ops"] = len(ops)
        out["units"] = sum(r.units for _, _, r in ops)
        out["attempted"] = sum(r.attempted for _, _, r in ops)
        out["failed"] = sum(r.failed for _, _, r in ops)
        out["problems"] = sorted({p for _, _, r in ops for p in r.problems})
        out["phases_ms"] = {}
        for _, _, r in ops:
            for k, v in r.phases_ms.items():
                out["phases_ms"].setdefault(k, []).append(v)
        out["digest"] = wl.digest
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Parent side


def _spawn(args, role):
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every child
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {role} child for {args.workload} "
                         f"exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _line(name, value, unit, note=""):
    print(f"metric {name} {value:.6g} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes, for the benchmark's own self-check")
    ap.add_argument("--role", choices=("parent", "setup", "main"), default="parent",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.role != "parent":
        print(json.dumps(_child(args)))
        return 0

    if not os.path.isfile(os.path.join(SRC, "fedcause", "__init__.py")):
        print(f"perfbench: no fedcause sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        setups = [_spawn(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = _spawn(args, "main")
    setups.append(res["setup_s"])

    host = {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": res["numpy"],
            "threads": {k: "1" for k in THREAD_ENV}}
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} ops {res['ops']} units {res['units']}")

    if args.trace:
        metrics = {n: {"value": res["metrics"][n], "unit": u} for n, u, _ in PER_LAYER}
        if res["absent"]:
            print("trace absent " + " ".join(res["absent"]))
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update({n: {"value": v, "unit": E2E_UNITS[n]}
                        for n, v in res["metrics"].items()})
    for n, m in metrics.items():
        note = f"(median of {len(setups)})" if n == "setup_s" else ""
        _line(n, m["value"], m["unit"], note)

    if not args.trace:
        _line("cpu_ms_per_rep", res["cpu_ms_per_rep"], "ms")
        if args.workload == "fed-cli":
            for phase in ("estimate", "replay"):
                vals = res["phases_ms"].get(phase, [])
                if vals:
                    tail = pct(vals, TAIL_PCT)
                    _line(f"{phase}_ms.p50", statistics.median(vals), "ms", f"(n={len(vals)})")
                    _line(f"{phase}_ms.tail", tail, "ms",
                          f"(p{TAIL_PCT}, n={len(vals)}, {sum(v > tail for v in vals)} above)")
        _line("failed_frac", res["failed"] / res["attempted"], "frac",
              f"({res['failed']}/{res['attempted']})")
    print(f"check output_sha256 {res['digest']}")
    for p in res["problems"]:
        print(f"check FAILED {p}")

    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
