"""The benchmark's four closed-loop workloads.

Each workload has ``setup()`` (input build plus one warm-up operation) and
``op()``, one timed operation that checks its own outputs. Import this module
only after the thread-pinning environment is set: it imports numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field, replace

import fedcause.cli as cli
from fedcause import fedsim, harness
from fedcause.synthgen import ShiftConfig

DEFAULT_SEED = 42
DIAL = (1.0, 3.0)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "expected.json")) as _fh:
    # sha256 of each workload's output at DEFAULT_SEED (the output guard)
    EXPECTED = json.load(_fh)


@dataclass
class OpResult:
    units: int              # replications, or 1 for a fed-cli operation
    attempted: int          # results (mc-*: replications x estimators) or operations
    failed: int
    problems: list = field(default_factory=list)   # failed correctness checks
    phases_ms: dict = field(default_factory=dict)  # fed-cli: estimate / replay


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class MonteCarlo:
    """``sweep_kl`` over the dial (1, 3) with one nuisance mode. Operation i is
    one sweep of ``replications`` per dial value at ``sub_seed(seed, i)``, so
    a run averages over fresh site placements instead of repeating one."""

    def __init__(self, name: str, seed: int, workdir: str, smoke: bool):
        mode = name.split("-", 1)[1]
        small = ShiftConfig(site_sizes=(60, 120, 180), n_target=600)
        if mode == "knn":
            # brute-force neighbour counting costs about 51 s per replication at
            # the default design; a quarter of it keeps the probe redundancy
            shift = small if smoke else ShiftConfig(site_sizes=(250, 500, 750),
                                                    n_target=2500)
            reps = 1
        else:
            shift = ShiftConfig()
            reps = 1 if smoke else 20
        # the warm-up runs every code path of an operation; for knn it does so
        # on the small design, since one quarter-size replication takes 3.5 s
        self.warm_shift = small if mode == "knn" else shift
        self.spec = harness.SweepSpec(
            d_kl_grid=DIAL, replications=reps, nuisance_mode=mode,
            meta_weight_mode="vanilla" if mode == "tilting" else "oracle",
            shift=shift)
        self.seed = seed
        self.csv = os.path.join(workdir, "sweep.csv")
        self.units = len(DIAL) * reps
        self.pairs_per_unit = sum(shift.site_sizes) * shift.n_sites
        self.expected = (EXPECTED[name] if seed == DEFAULT_SEED and not smoke
                         else None)
        self.digest = None

    def setup(self) -> None:
        warm = replace(self.spec, d_kl_grid=DIAL[:1], replications=1, placements=1,
                       shift=self.warm_shift)
        harness.sweep_kl(warm, self.seed, self.csv)

    def op(self, i: int) -> OpResult:
        n_results = self.units * len(self.spec.estimators)
        try:
            result = harness.sweep_kl(self.spec, sub_seed(self.seed, i), self.csv)
        except Exception as exc:  # an escaped exception fails every result
            return OpResult(self.units, n_results, n_results, [f"sweep raised {exc!r}"])
        problems = []
        if i == 0:
            self.digest = _sha256(self.csv)
            if self.expected is not None and self.digest != self.expected:
                problems.append(f"csv_sha256: {self.digest} != expected {self.expected}")
        failed = n_results if problems else sum(
            c.n_reps if c.aborted else c.n_fail for c in result.cells.values())
        return OpResult(self.units, n_results, failed, problems)


class FedCli:
    """One federated ``fedcause estimate`` through the CLI, then the read path:
    load the transcript, replay it and audit it. Operation i reads dataset
    i mod ``n_datasets``; the tilting fits cost from 30 to 230 ms depending on
    the dataset, so a run cycles through several."""

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.n_datasets = 1 if smoke else 8
        self.data = [os.path.join(workdir, f"data{j}") for j in range(self.n_datasets)]
        self.log = os.path.join(workdir, "transcript.jsonl")
        shift = ShiftConfig()  # what `fedcause generate` writes by default
        self.units = 1
        self.pairs_per_unit = sum(shift.site_sizes) * shift.n_sites
        self.n_messages = fedsim.expected_message_count(shift.n_sites, 50, 2)
        self.expected = EXPECTED["fed-cli"] if seed == DEFAULT_SEED else None
        self.reports = {}
        self.digest = None

    def setup(self) -> None:
        for j, path in enumerate(self.data):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["generate", "--seed", str(sub_seed(self.seed, j)),
                                 "--out", path])
            if code != 0:
                raise RuntimeError(f"fedcause generate exited {code}")
        self.op(0)

    def op(self, i: int) -> OpResult:
        j = i % self.n_datasets
        argv = ["estimate", "--data", self.data[j], "--estimator", "clb-aipw",
                "--ratio", "tilting", "--federated", "--log", self.log]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        t1 = time.perf_counter()
        phases = {"estimate": 1e3 * (t1 - t0)}
        if code != 0:
            return OpResult(1, 1, 1, [f"estimate exited {code}: {err.getvalue().strip()}"],
                            phases)
        log = fedsim.MessageLog.load(self.log)
        replayed = fedsim.replay(log).to_json()
        violations = fedsim.audit_messages(log)
        phases["replay"] = 1e3 * (time.perf_counter() - t1)

        printed = out.getvalue()
        problems = []
        if printed != replayed + "\n":
            problems.append("replay differs from the printed report")
        if violations:
            problems.append(f"audit: {violations[:3]}")
        if len(log) != self.n_messages:
            problems.append(f"{len(log)} messages, expected {self.n_messages}")
        if j == 0:
            self.digest = hashlib.sha256(printed.encode()).hexdigest()
            if self.expected is not None and self.digest != self.expected:
                problems.append(f"report_sha256: {self.digest} != expected {self.expected}")
        if self.reports.setdefault(j, printed) != printed:
            problems.append(f"dataset {j}: report differs from its first estimate")
        return OpResult(1, 1, int(bool(problems)), problems, phases)


def sub_seed(seed: int, i: int) -> int:
    """Seed of the i-th input of a run; input 0 uses the benchmark seed."""
    return seed + 100_000 * i


def make(name: str, seed: int, workdir: str, smoke: bool = False):
    if name == "fed-cli":
        return FedCli(seed, workdir, smoke)
    return MonteCarlo(name, seed, workdir, smoke)
