"""Outside-in tracer for the fedcause layers.

The tracer changes no line of the package. It rebinds module-level names:
every module global of ``fedcause.*`` that holds a traced function is pointed
at a timing wrapper, so a call made through a caller's own import (for example
``harness.fit_tilting`` or ``cli.read_sites_csv``) is recorded as a span. Three
methods (``RatioModel.eval``, ``MessageLog.save``, ``MessageLog.load``) are
wrapped on their class. A target that no longer resolves is listed in
``absent`` and its metrics read 0; the benchmark keeps running.

Spans keep their parent and the operation id the benchmark loop set when they
started; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter

# (span name, module, attribute path) of every traced callable
TARGETS = (
    ("synthgen.gen_covariate_shift", "synthgen", "gen_covariate_shift"),
    ("density_ratio.fit_tilting", "density_ratio", "fit_tilting"),
    ("density_ratio.oracle_gaussian_ratio", "density_ratio", "oracle_gaussian_ratio"),
    ("density_ratio.RatioModel.eval", "density_ratio", "RatioModel.eval"),
    ("nuisance.pooled_score", "nuisance", "pooled_score"),
    ("nuisance.fit_outcome_direct", "nuisance", "fit_outcome_direct"),
    ("nuisance.crossfit_split", "nuisance", "crossfit_split"),
    ("nuisance.weighted_loss_and_grad", "nuisance", "weighted_loss_and_grad"),
    ("estimators.meta_ipw", "estimators", "meta_ipw"),
    ("estimators.clb_ipw", "estimators", "clb_ipw"),
    ("estimators.decoupled_aipw", "estimators", "decoupled_aipw"),
    ("estimators.clb_combine", "estimators", "clb_combine"),
    ("estimators.aipw_combine", "estimators", "aipw_combine"),
    ("estimators.meta_combine", "estimators", "meta_combine"),
    ("fedsim.suggest_learning_rate", "fedsim", "suggest_learning_rate"),
    ("fedsim.run_algorithm2", "fedsim", "run_algorithm2"),
    ("fedsim.MessageLog.save", "fedsim", "MessageLog.save"),
    ("fedsim.MessageLog.load", "fedsim", "MessageLog.load"),
    ("fedsim.replay", "fedsim", "replay"),
    ("fedsim.audit_messages", "fedsim", "audit_messages"),
    ("core.read_sites_csv", "core", "read_sites_csv"),
    ("core.read_target_csv", "core", "read_target_csv"),
    ("core.validate_dataset", "core", "validate_dataset"),
    ("harness.oracle_meta_site_variances", "harness", "oracle_meta_site_variances"),
    ("harness.run_monte_carlo", "harness", "run_monte_carlo"),
    # one replication of the Monte Carlo loop; private, so it may disappear
    ("harness.rep", "harness", "_run_one_rep"),
    ("cli.main", "cli", "main"),
)

MESSAGE_KINDS = ("publish_ratio_model", "aggregates", "model_params",
                 "gradient_update", "target_mean_term")

# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = (
    ("synthgen.gen_covariate_shift.ms", "ms", "lower"),
    ("density_ratio.fit_tilting.calls", "count", "lower"),
    ("density_ratio.fit_tilting.ms.p50", "ms", "lower"),
    ("density_ratio.fit_tilting.ms.p90", "ms", "lower"),
    ("density_ratio.fit_tilting.ms.conv", "ms", "lower"),
    ("density_ratio.fit_tilting.ms.soft", "ms", "lower"),
    ("density_ratio.fit_tilting.conv_frac", "frac", "higher"),
    ("density_ratio.fit_tilting.soft_frac", "frac", "lower"),
    ("density_ratio.fit_tilting.separated_frac", "frac", "lower"),
    ("density_ratio.fit_tilting.noconv_frac", "frac", "lower"),
    ("density_ratio.eval.rows_per_unit", "rows/unit", "lower"),
    ("density_ratio.eval_knn.ms_per_1k_rows", "ms", "lower"),
    ("density_ratio.eval_tilting.ms_per_1k_rows", "ms", "lower"),
    ("density_ratio.oracle_gaussian_ratio.ms_per_1k_rows", "ms", "lower"),
    ("nuisance.pooled_score.calls", "count", "lower"),
    ("nuisance.pooled_score.self_ms", "ms", "lower"),
    ("nuisance.fit_outcome_direct.calls", "count", "lower"),
    ("nuisance.fit_outcome_direct.ms", "ms", "lower"),
    ("nuisance.crossfit_split.ms", "ms", "lower"),
    ("nuisance.weighted_loss_and_grad.calls", "count", "lower"),
    ("nuisance.weighted_loss_and_grad.ms", "ms", "lower"),
    ("estimators.meta_ipw.self_ms", "ms", "lower"),
    ("estimators.clb_ipw.self_ms", "ms", "lower"),
    ("estimators.decoupled_aipw.self_ms", "ms", "lower"),
    ("estimators.clb_combine.ms", "ms", "lower"),
    ("estimators.aipw_combine.ms", "ms", "lower"),
    ("estimators.meta_combine.ms", "ms", "lower"),
    ("fedsim.suggest_learning_rate.ms", "ms", "lower"),
    ("fedsim.fedavg.rounds", "count", "lower"),
    ("fedsim.run_algorithm2.self_ms", "ms", "lower"),
    ("fedsim.messages", "count", "lower"),
) + tuple((f"fedsim.messages.{k}", "count", "lower") for k in MESSAGE_KINDS) + (
    ("fedsim.transcript_bytes", "B", "lower"),
    ("fedsim.MessageLog.save.ms", "ms", "lower"),
    ("fedsim.MessageLog.load.ms", "ms", "lower"),
    ("fedsim.replay.ms", "ms", "lower"),
    ("fedsim.audit_messages.ms", "ms", "lower"),
    ("core.read_sites_csv.ms", "ms", "lower"),
    ("core.read_target_csv.ms", "ms", "lower"),
    ("core.validate_dataset.ms", "ms", "lower"),
    ("harness.oracle_meta_site_variances.ms", "ms", "lower"),
    ("harness.run_monte_carlo.self_ms", "ms", "lower"),
    ("harness.rep.self_ms", "ms", "lower"),
    ("harness.rep_ms.p50", "ms", "lower"),
    ("harness.rep_ms.p90", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.absent_names", "count", "lower"),
)


def pct(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Span:
    __slots__ = ("name", "parent", "op", "dur", "child", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.dur = self.child = 0.0
        self.info = None

    def under(self, name: str) -> bool:
        s = self.parent
        while s is not None:
            if s.name == name:
                return True
            s = s.parent
        return False


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) < 2 else int(shape[0])


def _note(name, args, kwargs, result, exc):
    """What a span records besides its timing."""
    if name == "density_ratio.RatioModel.eval":
        return (args[0].backend, _rows(args[1] if len(args) > 1 else kwargs["x"]))
    if name == "density_ratio.oracle_gaussian_ratio":
        return _rows(args[3] if len(args) > 3 else kwargs["x"])
    if name == "density_ratio.fit_tilting":
        if exc is not None:
            return "separated" if getattr(exc, "separated", False) else "noconv"
        return "soft" if result.fit_info.get("soft") else "conv"
    if name == "fedsim.MessageLog.save" and exc is None:
        log = args[0]
        rounds = {(m.payload.get("fold"), m.round) for m in log
                  if m.kind == "model_params"}
        return (Counter(m.kind for m in log), len(log), os.path.getsize(args[1]),
                len(rounds))
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.absent = []
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer.stack[-1] if tracer.stack else None, tracer.op)
            tracer.stack.append(span)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.dur = time.perf_counter() - t0
                tracer.stack.pop()
                if span.parent is not None:
                    span.parent.child += span.dur
                span.info = _note(name, args, kwargs, result, exc)
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        mods = {k[len("fedcause."):]: m for k, m in list(sys.modules.items())
                if k.startswith("fedcause.") and m is not None}
        for name, modname, attr in TARGETS:
            mod = mods.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = getattr(owner, "__dict__", {}).get(meth) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if owner_name:
                is_cm = isinstance(raw, classmethod)
                fn = self._wrap(name, raw.__func__ if is_cm else raw)
                setattr(owner, meth, classmethod(fn) if is_cm else fn)
                self._undo.append((owner, meth, raw))
                continue
            # rebind every module's global that holds this function
            wrapped = self._wrap(name, raw)
            for m in mods.values():
                for g, v in list(vars(m).items()):
                    if v is raw:
                        setattr(m, g, wrapped)
                        self._undo.append((m, g, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def metrics(self, n_units: int, units0: int, pairs_per_unit: int,
                overhead: float) -> dict:
        """Per-layer values. Plain ``.ms`` and ``.self_ms`` are per unit of work
        (one replication, or one fed-cli operation) over every traced operation;
        ``.ms.pNN``, ``.ms.conv`` and ``.ms.soft`` are per call. Counts, fractions
        and bytes come from the first traced operation alone (``units0`` units),
        whose inputs are fixed by the seed, so they repeat exactly."""
        by, first = {}, {}
        for s in self.spans:
            by.setdefault(s.name, []).append(s)
            if s.op == 0:
                first.setdefault(s.name, []).append(s)

        def ms(name, self_time=False):
            spans = by.get(name, [])
            return 1e3 * sum(s.dur - (s.child if self_time else 0.0)
                             for s in spans) / n_units

        def calls(name):
            return len(first.get(name, [])) / units0

        def probe_rows(spans):
            # the oracle-weight integration draws are not probes
            return sum(s.info[1] if s.name.endswith(".eval") else s.info
                       for s in spans
                       if not s.under("harness.oracle_meta_site_variances"))

        m = {"synthgen.gen_covariate_shift.ms": ms("synthgen.gen_covariate_shift")}

        fits = by.get("density_ratio.fit_tilting", [])
        m["density_ratio.fit_tilting.calls"] = calls("density_ratio.fit_tilting")
        m["density_ratio.fit_tilting.ms.p50"] = pct([1e3 * s.dur for s in fits], 50)
        m["density_ratio.fit_tilting.ms.p90"] = pct([1e3 * s.dur for s in fits], 90)
        for how in ("conv", "soft"):
            m[f"density_ratio.fit_tilting.ms.{how}"] = pct(
                [1e3 * s.dur for s in fits if s.info == how], 50)
        fits0 = first.get("density_ratio.fit_tilting", [])
        outcomes = Counter(s.info for s in fits0)
        for how in ("conv", "soft", "separated", "noconv"):
            m[f"density_ratio.fit_tilting.{how}_frac"] = (
                outcomes[how] / len(fits0) if fits0 else 0.0)

        m["density_ratio.eval.rows_per_unit"] = probe_rows(
            first.get("density_ratio.RatioModel.eval", [])
            + first.get("density_ratio.oracle_gaussian_ratio", [])
        ) / (units0 * pairs_per_unit)
        evals = by.get("density_ratio.RatioModel.eval", [])
        for label, spans in (
                ("eval_knn", [s for s in evals if s.info[0] == "knn"]),
                ("eval_tilting", [s for s in evals if s.info[0] == "tilting"]),
                ("oracle_gaussian_ratio",
                 by.get("density_ratio.oracle_gaussian_ratio", []))):
            spans = [s for s in spans if not s.under("harness.oracle_meta_site_variances")]
            rows = probe_rows(spans)
            m[f"density_ratio.{label}.ms_per_1k_rows"] = (
                1e6 * sum(s.dur for s in spans) / rows if rows else 0.0)

        m["nuisance.pooled_score.calls"] = calls("nuisance.pooled_score")
        m["nuisance.pooled_score.self_ms"] = ms("nuisance.pooled_score", True)
        m["nuisance.fit_outcome_direct.calls"] = calls("nuisance.fit_outcome_direct")
        m["nuisance.fit_outcome_direct.ms"] = ms("nuisance.fit_outcome_direct")
        m["nuisance.crossfit_split.ms"] = ms("nuisance.crossfit_split")
        m["nuisance.weighted_loss_and_grad.calls"] = calls("nuisance.weighted_loss_and_grad")
        m["nuisance.weighted_loss_and_grad.ms"] = ms("nuisance.weighted_loss_and_grad")
        for est in ("meta_ipw", "clb_ipw", "decoupled_aipw"):
            m[f"estimators.{est}.self_ms"] = ms(f"estimators.{est}", True)
        for comb in ("clb_combine", "aipw_combine", "meta_combine"):
            m[f"estimators.{comb}.ms"] = ms(f"estimators.{comb}")
        m["fedsim.suggest_learning_rate.ms"] = ms("fedsim.suggest_learning_rate")

        saves = [s for s in first.get("fedsim.MessageLog.save", []) if s.info]
        kinds = sum((s.info[0] for s in saves), Counter())
        m["fedsim.fedavg.rounds"] = sum(s.info[3] for s in saves) / units0
        m["fedsim.run_algorithm2.self_ms"] = ms("fedsim.run_algorithm2", True)
        m["fedsim.messages"] = sum(s.info[1] for s in saves) / units0
        for k in MESSAGE_KINDS:
            m[f"fedsim.messages.{k}"] = kinds[k] / units0
        m["fedsim.transcript_bytes"] = sum(s.info[2] for s in saves) / units0
        for name in ("fedsim.MessageLog.save", "fedsim.MessageLog.load", "fedsim.replay",
                     "fedsim.audit_messages", "core.read_sites_csv",
                     "core.read_target_csv", "core.validate_dataset",
                     "harness.oracle_meta_site_variances"):
            m[f"{name}.ms"] = ms(name)
        m["harness.run_monte_carlo.self_ms"] = ms("harness.run_monte_carlo", True)
        m["harness.rep.self_ms"] = ms("harness.rep", True)
        rep_ms = [1e3 * s.dur for s in by.get("harness.rep", [])]
        m["harness.rep_ms.p50"] = pct(rep_ms, 50)
        m["harness.rep_ms.p90"] = pct(rep_ms, 90)
        m["cli.main.self_ms"] = ms("cli.main", True)
        m["trace.overhead_frac"] = overhead
        m["trace.absent_names"] = float(len(self.absent))
        return m
