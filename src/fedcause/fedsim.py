"""Single-process simulator for the two collaborative protocols.

Every exchange is an explicit message with a JSON-serializable payload, so a
run leaves an auditable transcript. The server never sees unit records: sites
publish fitted ratio models and aggregate sums only, and the final report is
assembled purely from parsed messages, which is why ``replay`` on a saved log
reproduces it bitwise.

Protocol one: each site sends its inverse-propensity aggregate sums once and
the server combines them into the pooled estimate.

Protocol two: sites publish per-arm ratio models, the server assembles the
pooled scores, and per fold of a cross-fit plan each site sends its blocks of
the outcome fit's normal equations, from which the server solves both arms'
outcome models exactly; sites then return residualized aggregates per fold.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import EstimateReport, SiteDataset, TargetCovariates
from .density_ratio import RatioModel
from .estimators import (AipwInputs, Excluded, MetaDeltas, SiteAggregates,
                         _crossfit_folds, aipw_combine, clb_combine,
                         clb_site_aggregates)
from .nuisance import (FoldPlan, ScoreTable, assemble_propensity, crossfit_split,
                       outcome_block, score_table, solve_outcome_blocks,
                       zero_outcome_model)

MESSAGE_KINDS = ("publish_ratio_model", "aggregates", "outcome_blocks",
                 "target_mean_term")

_SERVER_KINDS = ("target_mean_term",)


class PrivacyError(RuntimeError):
    """A requested exchange would move unit-level records off a site."""


@dataclass
class SiteMessage:
    """One exchange. ``line`` is the JSON line the receiver parsed, kept when
    the message went over the wire or was loaded from a transcript."""

    sender: Union[str, int]
    kind: str
    round: int
    payload: dict
    line: Optional[str] = field(default=None, compare=False, repr=False)

    def to_json_line(self) -> str:
        return json.dumps({"round": self.round, "from": self.sender,
                           "kind": self.kind, "payload": self.payload})

    @classmethod
    def from_json_line(cls, line: str) -> "SiteMessage":
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("record is not a JSON object")
        for key in ("round", "from", "kind", "payload"):
            if key not in obj:
                raise ValueError(f"record lacks key {key!r}")
        return cls(sender=obj["from"], kind=obj["kind"],
                   round=obj["round"], payload=obj["payload"], line=line)


@dataclass
class MessageLog:
    messages: List[SiteMessage] = field(default_factory=list)

    def post(self, msg: SiteMessage, wire: bool) -> dict:
        """Record msg and return the payload its receiver reads. With wire set
        the message is encoded once and the log keeps the parsed line, so the
        receiver consumes exactly what the transcript holds; JSON round-trips
        finite floats exactly, so this never changes the arithmetic."""
        if wire:
            msg = SiteMessage.from_json_line(msg.to_json_line())
        self.messages.append(msg)
        return msg.payload

    def __iter__(self):
        return iter(self.messages)

    def __len__(self):
        return len(self.messages)

    def by_kind(self, kind: str) -> List[SiteMessage]:
        return [m for m in self.messages if m.kind == kind]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("".join((m.to_json_line() if m.line is None else m.line) + "\n"
                             for m in self.messages))

    @classmethod
    def load(cls, path) -> "MessageLog":
        """Parse a transcript; a malformed record raises ValueError naming its line."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        messages = []
        for i, ln in enumerate(lines, start=1):
            if ln.strip():
                try:
                    messages.append(SiteMessage.from_json_line(ln))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {i}: {exc}") from None
        return cls(messages)


@dataclass(frozen=True)
class FedConfig:
    """Protocol two's round cap per fold. The outcome fit is quadratic and
    takes one round, so every valid cap gives the same run."""

    rounds: int = 50

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


def expected_message_count(n_sites: int, rounds: int, folds: int) -> int:
    """Transcript length of protocol two with training under any round cap:
    each site's publish message, and per fold each site's outcome blocks and
    aggregates plus the server's target term."""
    return n_sites * (2 * folds + 1) + folds


# ---------------------------------------------------------------------------
# The outcome fit: one round of per-site normal equations, both arms at once


def fit_outcome_blocks(sites: Sequence[SiteDataset], table: ScoreTable, psi,
                       include: Dict[int, np.ndarray], fold: int, post):
    """Fit one fold's outcome models in one round: each site posts the
    outcome_block of both arms, and the server sums them in site order and
    solves, the arithmetic of fit_outcome_direct (Wu et al., 2012). The loss
    is quadratic, so the one round is exact. ``post`` records a message and
    returns the payload its receiver consumes. Returns (treated, control).
    """
    received = []
    for s in sites:
        payload = {"fold": fold, "site_id": s.site_id}
        for arm in (1, 0):
            gram, cross = outcome_block(s, table, psi, arm, include.get(s.site_id))
            payload[f"gram{arm}"], payload[f"cross{arm}"] = gram.tolist(), cross.tolist()
        received.append(post(SiteMessage(s.site_id, "outcome_blocks", fold, payload)))
    return tuple(solve_outcome_blocks([(pay[f"gram{arm}"], pay[f"cross{arm}"])
                                       for pay in received], arm, psi)
                 for arm in (1, 0))


# ---------------------------------------------------------------------------
# Server-side report assembly, shared by live runs and replay


def _is_finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


# payload keys the report reads as counts; every other number it reads is a sum
_COUNT_KEYS = {"site_id", "n1", "n0", "n_units", "n_floored", "n_target", "fold"}


def _read_numbers(i: int, kind: str, pay: dict, keys) -> dict:
    """pay, the payload of message i, refused with a ValueError naming the
    message and the key unless each of keys holds a non-negative integer (a
    count) or a finite number (a sum)."""
    for key in keys:
        v, count = pay.get(key), key in _COUNT_KEYS
        if not (_is_count(v) if count else _is_finite_number(v)):
            raise ValueError(f"message {i}: {kind} {key} is {v!r}, not "
                             + ("a non-negative integer" if count else "a finite number"))
    return pay


def _read_aggregates(i: int, pay: dict, cls):
    """The cls (SiteAggregates or MetaDeltas) that aggregates message i holds."""
    return cls.from_payload(_read_numbers(i, "aggregates", pay, [f.name for f in fields(cls)]))


def _check_published(i: int, pay: dict) -> int:
    """The unit count that publish_ratio_model message i announces. Raises
    ValueError naming the message when a count is not a non-negative integer
    or a model slot is missing."""
    _read_numbers(i, "publish_ratio_model", pay, ("n1", "n0"))
    for slot in ("model1", "model0"):
        if slot not in pay:
            raise ValueError(f"message {i}: publish_ratio_model lacks {slot}")
    return pay["n1"] + pay["n0"]


def _check_blocks(i: int, pay: dict, p: Optional[int]) -> int:
    """Refuse outcome_blocks message i unless it holds both arms' normal
    equations in dimension p, which the first block message sets by its
    cross1; return p."""
    if p is None:
        cross = pay.get("cross1")
        if not (isinstance(cross, list) and cross):
            raise ValueError(f"message {i}: outcome_blocks cross1 is not a non-empty list")
        p = len(cross)
    for arm in (1, 0):
        for key, size in ((f"gram{arm}", p * (p + 1) // 2), (f"cross{arm}", p)):
            v = pay.get(key)
            if not (isinstance(v, list) and len(v) == size
                    and all(map(_is_finite_number, v))):
                raise ValueError(f"message {i}: outcome_blocks {key} is not a list "
                                 f"of {size} finite numbers (p = {p})")
    return p


def _check_folds(log: MessageLog) -> None:
    """Protocol two sends, for each fold f = 0, ..., F-1, one target_mean_term
    and one aggregates message per publishing site, F being one more than the
    largest fold any message names, and, when it trains, one outcome_blocks
    message per publishing site; a site's aggregates, unless one of them is
    an exclusion, cover as many units as it published. Published counts,
    folds and block payloads must be well formed. Raises ValueError naming
    the message, the fold or the site of the first violation."""
    sizes = {m.payload["site_id"]: _check_published(i, m.payload)
             for i, m in enumerate(log) if m.kind == "publish_ratio_model"}
    terms, aggs, blocks, covered = Counter(), Counter(), Counter(), Counter()
    excluded = set()
    n_folds, p = 0, None
    for i, m in enumerate(log):
        if m.kind not in ("outcome_blocks", "target_mean_term", "aggregates"):
            continue
        f = _read_numbers(i, m.kind, m.payload, ("fold",))["fold"]
        n_folds = max(n_folds, f + 1)
        if m.kind == "target_mean_term":
            terms[f] += 1
            continue
        k = m.payload["site_id"]
        if k not in sizes:
            raise ValueError(f"fold {f}: site {k} sent {m.kind} but "
                             "published no ratio model")
        if m.kind == "outcome_blocks":
            p = _check_blocks(i, m.payload, p)
            blocks[(f, k)] += 1
            continue
        aggs[(f, k)] += 1
        if "excluded" in m.payload:
            excluded.add(k)
        else:
            covered[k] += int(m.payload.get("n_units", 0))
    for f in range(n_folds):
        if terms[f] != 1:
            raise ValueError(f"fold {f}: {terms[f]} target_mean_term messages; "
                             "protocol two sends exactly one per fold")
        for k in sorted(sizes):
            if blocks and blocks[(f, k)] != 1:
                raise ValueError(f"fold {f}: site {k} sent {blocks[(f, k)]} outcome_blocks "
                                 "messages; a training run sends exactly one per fold")
            if aggs[(f, k)] != 1:
                raise ValueError(f"fold {f}: site {k} sent {aggs[(f, k)]} aggregates "
                                 "messages; protocol two sends exactly one per fold")
    for k in sorted(sizes.keys() - excluded):
        if covered[k] != sizes[k]:
            raise ValueError(f"site {k}: its aggregates over folds 0-{n_folds - 1} "
                             f"cover {covered[k]} units; it published {sizes[k]}")


def _check_one_per_site(log: MessageLog) -> None:
    """Protocol one sends one aggregates message per site; raises ValueError
    naming the first message that repeats a site."""
    seen = set()
    for i, m in enumerate(log):
        if m.kind == "aggregates":
            k = m.payload["site_id"]
            if k in seen:
                raise ValueError(f"message {i}: a second aggregates message from "
                                 f"site {k}; protocol one sends one per site")
            seen.add(k)


def _report_from_log(log: MessageLog, ci_level: float = 0.95,
                     weights: Optional[Dict[int, float]] = None) -> EstimateReport:
    """The report of a transcript: protocol one's (checked by
    _check_one_per_site) when it holds only aggregates, protocol two's
    (checked by _check_folds) when a site published a ratio model or sent
    outcome blocks, or the server sent a target-mean term. A message of an
    unknown kind, with a key outside its schema, or whose sums or counts the
    report reads are malformed, is refused with a ValueError naming it."""
    for i, m in enumerate(log):
        if m.kind not in _SCHEMAS:
            raise ValueError(f"message {i}: unknown kind {m.kind!r}")
        if not isinstance(m.payload, dict):
            raise ValueError(f"message {i}: {m.kind} payload is not an object")
        extra = [key for key in m.payload if key not in _SCHEMAS[m.kind]]
        if extra:
            raise ValueError(f"message {i}: {m.kind} key {extra[0]!r} is outside its schema")
    protocol_two = any(m.kind in ("publish_ratio_model", "outcome_blocks",
                                  "target_mean_term") for m in log)
    if protocol_two:
        _check_folds(log)
    else:
        _check_one_per_site(log)
    agg_msgs = [(i, m) for i, m in enumerate(log) if m.kind == "aggregates"]
    if not agg_msgs:
        raise ValueError("log contains no aggregate messages")
    if not protocol_two:
        aggs = [_read_aggregates(i, m.payload, SiteAggregates) for i, m in agg_msgs]
        return clb_combine(sorted(aggs, key=lambda a: a.site_id), ci_level=ci_level)

    per_fold: Dict[int, list] = {}
    n_pooled = 0
    flavor = "clb"
    for i, m in agg_msgs:
        pay = m.payload
        f = pay["fold"]
        if "excluded" in pay:
            item = Excluded(pay["excluded"])
            flavor = "meta"
        elif "G1" in pay:
            item = _read_aggregates(i, pay, SiteAggregates)
            n_pooled += item.n_units
        else:
            item = _read_aggregates(i, pay, MetaDeltas)
            n_pooled += item.n_units
            flavor = "meta"
        per_fold.setdefault(f, []).append(item)
    if n_pooled <= 0:
        raise ValueError("aggregate messages cover no usable units")

    term_keys = ("value", "target_var", "n_target")
    term_by_fold = {m.payload["fold"]: _read_numbers(i, m.kind, m.payload, term_keys)
                    for i, m in enumerate(log) if m.kind == "target_mean_term"}
    inputs = []
    for f in sorted(per_fold):
        pay = term_by_fold[f]
        inputs.append(AipwInputs(target_mean_term=float(pay["value"]),
                                 target_sq_term=float(pay["target_var"]),
                                 n_target=pay["n_target"],
                                 deltas=per_fold[f],
                                 lambda_hat=pay["n_target"] / n_pooled,
                                 n_pooled=n_pooled, fold=f))
    return aipw_combine(inputs, flavor=flavor, weights=weights, ci_level=ci_level)


def replay(log: MessageLog, ci_level: float = 0.95,
           weights: Optional[Dict[int, float]] = None) -> EstimateReport:
    """Rebuild the estimate from a transcript alone. A live run assembles its
    report through this same parser, so replay matches it bitwise."""
    return _report_from_log(log, ci_level=ci_level, weights=weights)


# ---------------------------------------------------------------------------
# Protocol one: aggregate once, combine once


def run_algorithm1(sites: Sequence[SiteDataset], table: ScoreTable,
                   ci_level: float = 0.95) -> Tuple[EstimateReport, MessageLog]:
    """Pooled IPW over sites that only ever send aggregate sums."""
    log = MessageLog()
    for s in sorted(sites, key=lambda t: t.site_id):
        agg = clb_site_aggregates(s, table)
        log.post(SiteMessage(s.site_id, "aggregates", 0, agg.to_payload()), True)
    return _report_from_log(log, ci_level=ci_level), log


# ---------------------------------------------------------------------------
# Protocol two: publish ratios, train from normal-equation blocks, correct per fold


def run_algorithm2(sites: Sequence[SiteDataset], target: TargetCovariates,
                   ratios: Dict[Tuple[int, int], Optional[RatioModel]],
                   psi_om, cfg: Optional[FedConfig] = None, flavor: str = "clb",
                   F: int = 2, rng=None,
                   weights: Optional[Dict[int, float]] = None,
                   ci_level: float = 0.95, train: bool = True
                   ) -> Tuple[EstimateReport, MessageLog]:
    """Decoupled collaborative estimation as an explicit message exchange.

    ratios maps (site_id, arm) to a fitted selection-side density-ratio model;
    the target covariate table is public input the server already holds.
    cfg caps the training rounds per fold; the outcome fit takes one, so any
    valid cap gives the same run. With train False the outcome models are
    zeros, cross-fitting collapses to a single fold, and no block messages
    flow.
    """
    return _algorithm2_impl(sites, target, ratios, psi_om, flavor, F, rng,
                            weights, ci_level, train, wire=True)


def centralized_algorithm2(sites, target, ratios, psi_om,
                           cfg: Optional[FedConfig] = None, flavor: str = "clb",
                           F: int = 2, rng=None, weights=None,
                           ci_level: float = 0.95, train: bool = True):
    """The same computation with every exchange kept in memory: the reference
    the message-passing run must match bitwise."""
    return _algorithm2_impl(sites, target, ratios, psi_om, flavor, F, rng,
                            weights, ci_level, train, wire=False)


def _algorithm2_impl(sites, target, ratios, psi_om, flavor, F, rng,
                     weights, ci_level, train, wire: bool):
    sites = sorted(sites, key=lambda s: s.site_id)
    if not sites:
        raise ValueError("no sites")
    for pair, model in ratios.items():
        if model is not None and model.backend == "knn":
            raise PrivacyError(
                f"pair {pair}: nearest-neighbour ratio models embed raw unit "
                "records and cannot be published")

    log = MessageLog()

    # Sites publish their per-arm ratio models and arm counts.
    published = {}
    for s in sites:
        n1 = int(np.sum(s.z_vec == 1))
        n0 = s.n - n1
        m1r = ratios.get((s.site_id, 1))
        m0r = ratios.get((s.site_id, 0))
        payload = {"site_id": s.site_id, "n1": n1, "n0": n0,
                   "model1": None if m1r is None else m1r.to_json_obj(),
                   "model0": None if m0r is None else m0r.to_json_obj()}
        published[s.site_id] = log.post(
            SiteMessage(s.site_id, "publish_ratio_model", 0, payload), wire)

    # The server assembles pooled scores from the published models.
    models, counts = {}, {}
    n_published = 0
    for sid in sorted(published):
        pay = published[sid]
        n_published += pay["n1"] + pay["n0"]
        for arm in (1, 0):
            obj = pay[f"model{arm}"]
            if obj is not None:
                models[(sid, arm)] = RatioModel.from_json_obj(obj)
                counts[(sid, arm)] = pay[f"n{arm}"]
    if not models:
        raise ValueError("no ratio models were published")
    table = score_table(sites, assemble_propensity(models, counts, n_published))

    if train:
        fold_plan = crossfit_split(sites, F, rng)

        def fit(train_include, f):
            return fit_outcome_blocks(sites, table, psi_om, train_include, f,
                                      lambda m: log.post(m, wire))
    else:
        fold_plan = FoldPlan(F=1, fold_index={s.site_id: np.zeros(s.n, dtype=int)
                                              for s in sites})
        zeros = (zero_outcome_model(1, psi_om, sites[0].d),
                 zero_outcome_model(0, psi_om, sites[0].d))

        def fit(train_include, f):
            return zeros

    for f, mean, var, corrections in _crossfit_folds(sites, target, table, fold_plan,
                                                     psi_om, fit, (flavor,)):
        log.post(SiteMessage("server", "target_mean_term", f,
                             {"fold": f, "value": mean, "target_var": var,
                              "n_target": int(target.n)}), wire)
        for s, res in zip(sites, corrections[flavor]):
            if isinstance(res, Excluded):
                payload = {"fold": f, "site_id": s.site_id, "excluded": res.reason}
            else:
                payload = {"fold": f, **res.to_payload()}
            log.post(SiteMessage(s.site_id, "aggregates", f, payload), wire)

    # the server reads only the parsed log, so replay is exact
    return _report_from_log(log, ci_level=ci_level, weights=weights), log


# ---------------------------------------------------------------------------
# Transcript auditing


_AGG_KEYS = {f.name for f in fields(SiteAggregates)} | {"fold"}
_META_KEYS = {f.name for f in fields(MetaDeltas)} | {"fold"}
_EXCL_KEYS = {"site_id", "fold", "excluded"}
_MODEL_KEYS = {"backend", "gamma", "beta", "psi"}
# longest array a payload may carry before it looks like unit records
AUDIT_MAX_LEN = 64

_SCHEMAS = {
    "publish_ratio_model": {"site_id", "n1", "n0", "model1", "model0"},
    "aggregates": _AGG_KEYS | _META_KEYS | _EXCL_KEYS,
    "outcome_blocks": {"fold", "site_id", "gram1", "cross1", "gram0", "cross0"},
    "target_mean_term": {"fold", "value", "target_var", "n_target"},
}


def _scan_payload(value, path: str, out: List[str]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _scan_payload(v, f"{path}.{k}", out)
    elif isinstance(value, (list, tuple)):
        if len(value) > AUDIT_MAX_LEN:
            out.append(f"{path}: array of length {len(value)} exceeds cap {AUDIT_MAX_LEN}")
        for v in value:
            if isinstance(v, (list, tuple, dict)):
                out.append(f"{path}: nested array shaped like raw records")
                break
    elif isinstance(value, str) and len(value) > 256:
        out.append(f"{path}: string of length {len(value)} exceeds cap 256")


def audit_messages(log: MessageLog) -> List[str]:
    """Static checks that a transcript stays within the aggregate-only schema:
    known kinds, expected senders, whitelisted keys, no long or nested arrays.
    Returns the list of violations, empty when the log is clean."""
    violations: List[str] = []
    for i, m in enumerate(log):
        where = f"message {i} ({m.kind!r} from {m.sender!r})"
        allowed = _SCHEMAS.get(m.kind)
        if allowed is None:
            violations.append(f"{where}: unknown kind")
            continue
        if m.kind in _SERVER_KINDS:
            if m.sender != "server":
                violations.append(f"{where}: must come from the server")
        else:
            if not isinstance(m.sender, int):
                violations.append(f"{where}: must come from a site")
        if not isinstance(m.payload, dict):
            violations.append(f"{where}: payload is not an object")
            continue
        for key in m.payload:
            if key not in allowed:
                violations.append(f"{where}: unexpected key {key!r}")
        if m.kind == "publish_ratio_model":
            for slot in ("model1", "model0"):
                obj = m.payload.get(slot)
                if obj is None:
                    continue
                if not isinstance(obj, dict):
                    violations.append(f"{where}: {slot} is not an object")
                    continue
                for key in obj:
                    if key not in _MODEL_KEYS:
                        violations.append(f"{where}: unexpected model key {key!r}")
        _scan_payload(m.payload, where, violations)
    return violations
