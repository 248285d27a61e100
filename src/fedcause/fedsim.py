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
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import EstimateReport, SiteDataset, TargetCovariates
from .density_ratio import FEATURE_MAP_NAMES, FeatureMap, RatioModel
from .estimators import (AipwInputs, Excluded, MetaDeltas, SiteAggregates,
                         _crossfit_folds, aipw_combine, clb_combine,
                         clb_site_aggregates)
from .nuisance import (ScoreTable, assemble_propensity, crossfit_split, outcome_block,
                       score_table, solve_outcome_blocks)

# The wire format. Per message kind: its sender ("site" or "server") and its
# payload variants, each a map from key to field type:
#   count     an integer from 0 to 2**53, which a float holds exactly
#   sum       a number that float() holds as a finite value
#   sum+      a finite number >= 0
#   vector    a list of p finite numbers; the transcript's first cross1 sets p <= AUDIT_MAX_LEN
#   triangle  a list of p(p + 1)/2 finite numbers, an upper triangle by rows
#   model     a _model_obj object, 1 to AUDIT_MAX_LEN finite coefficients, or null
#   reason    a string of at most AUDIT_MAX_CHARS characters
# The caps keep unit records off the wire. docs/spec-schema.md gives the same
# tables, and a test holds the two equal.
AUDIT_MAX_LEN, AUDIT_MAX_CHARS = 64, 256

SCHEMA = {
    "publish_ratio_model": ("site", {"models": {
        "site_id": "count", "n1": "count", "n0": "count",
        "model1": "model", "model0": "model"}}),
    "aggregates": ("site", {
        "sums": {"site_id": "count", "G1": "sum", "G0": "sum", "N1": "sum+", "N0": "sum+",
                 "w2_1": "sum+", "w2y_1": "sum", "w2y2_1": "sum+", "w2_0": "sum+",
                 "w2y_0": "sum", "w2y2_0": "sum+", "n_units": "count", "n_floored": "count"},
        # protocol two's clb sums: its correction centres at 0, so w2_z and w2y_z go
        "fold_sums": {"fold": "count", "site_id": "count", "G1": "sum", "G0": "sum",
                      "N1": "sum+", "N0": "sum+", "w2y2_1": "sum+", "w2y2_0": "sum+",
                      "n_units": "count", "n_floored": "count"},
        "deltas": {"fold": "count", "site_id": "count", "d1": "sum", "d0": "sum",
                   "n1_hat": "sum+", "n0_hat": "sum+", "s2_1": "sum+", "s2_0": "sum+",
                   "n_units": "count"},
        "exclusion": {"fold": "count", "site_id": "count", "excluded": "reason"}}),
    "outcome_blocks": ("site", {"blocks": {
        "fold": "count", "site_id": "count", "cross1": "vector", "gram1": "triangle",
        "cross0": "vector", "gram0": "triangle"}}),
    "target_mean_term": ("server", {"term": {
        "fold": "count", "value": "sum", "target_var": "sum+", "n_target": "count"}}),
}

MESSAGE_KINDS = tuple(SCHEMA)


class PrivacyError(RuntimeError):
    """A requested exchange would move unit-level records off a site."""


@dataclass
class SiteMessage:
    """One exchange. ``line`` is the JSON line the receiver parsed, kept when
    the message was posted or loaded from a transcript."""

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

    def post(self, msg: SiteMessage) -> dict:
        """Record msg and return the payload its receiver reads. The message is
        encoded once and the log keeps the parsed line, so the receiver
        consumes exactly what the transcript holds; JSON round-trips finite
        floats exactly, so this never changes the arithmetic."""
        msg = SiteMessage.from_json_line(msg.to_json_line())
        self.messages.append(msg)
        return msg.payload

    def __iter__(self):
        return iter(self.messages)

    def __len__(self):
        return len(self.messages)

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


def expected_message_count(n_sites: int, rounds: int, folds: int) -> int:
    """Transcript length of protocol two: each site's publish message, and per
    fold each site's outcome blocks and aggregates plus the server's target
    term. rounds is ignored: the outcome fit is exact in one round per fold."""
    return n_sites * (2 * folds + 1) + folds


# ---------------------------------------------------------------------------
# The outcome fit: one round of per-site normal equations, both arms at once


def fit_outcome_blocks(sites: Sequence[SiteDataset], table: ScoreTable, psi,
                       include: Dict[int, np.ndarray], fold: int, log: MessageLog):
    """Fit one fold's outcome models in one round: each site posts the
    outcome_block of both arms to log, and the server sums the payloads it
    receives in site order and solves, the arithmetic of fit_outcome_direct
    (Wu et al., 2012). The loss is quadratic, so the one round is exact.
    Returns the coefficients (theta1, theta0) of the treated and control arms.
    """
    received = []
    for s in sites:
        payload = {"fold": fold, "site_id": s.site_id}
        for arm in (1, 0):
            gram, cross = outcome_block(s, table, psi, arm, include.get(s.site_id))
            payload[f"gram{arm}"], payload[f"cross{arm}"] = gram.tolist(), cross.tolist()
        received.append(log.post(SiteMessage(s.site_id, "outcome_blocks", fold, payload)))
    return tuple(solve_outcome_blocks([(pay[f"gram{arm}"], pay[f"cross{arm}"])
                                       for pay in received], arm)
                 for arm in (1, 0))


# ---------------------------------------------------------------------------
# Reading transcripts through the schema: the report (live and replayed), the audit


def _is_finite_number(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(float(v))
    except OverflowError:  # an integer beyond the largest float
        return False


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= 2 ** 53


def _shown(v) -> str:
    """v in a fault: a list or an object by its length only, a string over
    AUDIT_MAX_CHARS characters by its length and an integer of more digits by its bits."""
    if isinstance(v, int) and abs(v) >= 10 ** AUDIT_MAX_CHARS:
        return f"an integer of {v.bit_length()} bits"
    what = {list: "a list", dict: "an object", str: "a string"}.get(type(v))
    short = what is None or what == "a string" and len(v) <= AUDIT_MAX_CHARS
    return repr(v) if short else f"{what} of length {len(v)}"


# each scalar field type: its test, and what a value that fails it is not
_SCALARS = {"count": (_is_count, "an integer from 0 to 2**53"),
            "sum": (_is_finite_number, "a finite number"),
            "sum+": (lambda v: _is_finite_number(v) and v >= 0, "a finite number >= 0"),
            "reason": (lambda v: isinstance(v, str) and len(v) <= AUDIT_MAX_CHARS,
                       f"a string of at most {AUDIT_MAX_CHARS} characters")}


def _model_obj(model: RatioModel) -> dict:
    """The published object of a tilting or factored model: backend, gamma,
    beta (factored only), psi."""
    obj = {"backend": model.backend, "gamma": [float(v) for v in model.gamma]}
    if model.backend == "factored":
        obj["beta"] = [float(v) for v in model.beta]
    obj["psi"] = model.psi.name
    return obj


def _read_model(obj) -> Tuple[Optional[RatioModel], List[str]]:
    """The RatioModel a published model object states (None for null), and
    its faults, each phrased to follow the name of its slot."""
    if obj is None:
        return None, []
    if not isinstance(obj, dict):
        return None, [f"is {_shown(obj)}, not a model object or null"]
    coef_keys = ("gamma", "beta") if obj.get("backend") == "factored" else ("gamma",)
    faults = [f"has unexpected model key {_shown(k)}" for k in obj
              if k not in ("backend", "psi") + coef_keys]
    for key, names in (("backend", ("tilting", "factored")), ("psi", FEATURE_MAP_NAMES)):
        if obj.get(key) not in names:
            faults.append(f"{key} is {_shown(obj.get(key))}, not one of {', '.join(names)}")
    coefs = [obj.get(k) for k in coef_keys]
    if not all(isinstance(c, list) and 0 < len(c) == len(coefs[0]) <= AUDIT_MAX_LEN
               and all(map(_is_finite_number, c)) for c in coefs):
        faults.append(f"gamma and beta are not equally long lists of 1 to {AUDIT_MAX_LEN} "
                      "finite numbers")
    if faults:
        return None, faults
    gamma, *beta = (np.asarray(c, dtype=float) for c in coefs)
    return RatioModel(obj["backend"], gamma, FeatureMap(obj["psi"]), *beta), []


def _read_log(log: MessageLog):
    """Read each message i of log through SCHEMA, yielding (i, message,
    variant, values, extra, faults). The variant leaves the fewest payload
    keys outside, then misses the fewest, and is not sums in protocol two's
    log (one holding any known kind but aggregates); values holds each key
    whose value has its field type (a model as a RatioModel); extra lists the
    keys outside the variant; each fault is a text that names its key. The
    sender must be the site_id (or "server"), and the round the fold (or 0 without one)."""
    p = None
    two = any(m.kind in MESSAGE_KINDS and m.kind != "aggregates" for m in log)
    for i, m in enumerate(log):
        kind, pay = m.kind, m.payload
        known = isinstance(kind, str) and kind in SCHEMA
        if not known or not isinstance(pay, dict):
            yield i, m, None, {}, [], [f"{kind} payload is not an object" if known
                                      else f"unknown kind {_shown(kind)}"]
            continue
        sender, variants = SCHEMA[kind]
        variant = min((v for v in variants if not (two and v == "sums")), key=lambda v: (
            len(pay.keys() - variants[v].keys()), len(variants[v].keys() - pay.keys())))
        spec, values, faults = variants[variant], {}, []
        for key, typ in spec.items():
            v = pay.get(key)
            if typ == "model":
                if key not in pay:
                    faults.append(f"{kind} lacks {key}")
                    continue
                model, bad = _read_model(v)
                faults += [f"{kind} {key} {b}" for b in bad]
                if not bad:
                    values[key] = model
            elif typ in ("vector", "triangle"):
                if p is None and typ == "vector":
                    if not (isinstance(v, list) and v):
                        faults.append(f"{kind} {key} is not a non-empty list")
                        continue
                    if len(v) > AUDIT_MAX_LEN:
                        faults.append(f"{kind} {key} holds {len(v)} numbers; p is at most "
                                      f"{AUDIT_MAX_LEN}")
                        continue
                    p = len(v)  # the transcript's first cross1 sets p
                if p is not None:
                    size = p if typ == "vector" else p * (p + 1) // 2
                    if isinstance(v, list) and len(v) == size and all(map(_is_finite_number, v)):
                        values[key] = v
                    else:
                        faults.append(f"{kind} {key} is not a list of {size} finite "
                                      f"numbers (p = {p})")
            else:
                ok, want = _SCALARS[typ]
                if ok(v):
                    values[key] = v
                else:
                    faults.append(f"{kind} {key} is {_shown(v)}, not {want}")
        by = "server" if sender == "server" else values.get("site_id")
        if by is not None and not (type(m.sender) is type(by) and m.sender == by):
            faults.append(f"{kind} from is {_shown(m.sender)}, not {by!r}")
        fold = values.get("fold", None if "fold" in pay else 0)  # None: a faulty fold
        if fold is not None and not (type(m.round) is int and m.round == fold):
            faults.append(f"{kind} round is {_shown(m.round)}, not "
                          + (f"its fold {fold}" if "fold" in pay else "0, as it names no fold"))
        yield i, m, variant, values, [k for k in pay if k not in spec], faults


def _refuse(i: int, m: SiteMessage, extra, faults) -> None:
    """Raise a ValueError naming message i and each key outside its schema, or its first fault."""
    if extra:
        also = f", as are {', '.join(map(_shown, extra[1:]))}" if extra[1:] else ""
        raise ValueError(f"message {i}: {m.kind} key {_shown(extra[0])} is outside its "
                         f"schema{also}")
    if faults:
        raise ValueError(f"message {i}: {faults[0]}")


def _check_folds(reads) -> None:
    """Protocol two sends, for each fold f = 0, ..., F-1, one target_mean_term
    and, per publishing site, one outcome_blocks and one aggregates message,
    F being one more than the largest fold any message names; every
    target_mean_term gives the same n_target; a site's aggregates, unless one
    of them is an exclusion, cover as many units as it published. Raises
    ValueError naming the message, the fold or the site of the first
    violation."""
    sizes = {v["site_id"]: v["n1"] + v["n0"] for _, kind, _, v in reads
             if kind == "publish_ratio_model"}
    terms, sent, covered = Counter(), Counter(), Counter()
    excluded = set()
    n_folds = 0
    first_term = None
    for i, kind, variant, v in reads:
        if kind == "publish_ratio_model":
            continue
        f = v["fold"]
        n_folds = max(n_folds, f + 1)
        if kind == "target_mean_term":
            terms[f] += 1
            first_term = first_term or (i, v["n_target"])
            if v["n_target"] != first_term[1]:
                raise ValueError(f"message {i}: target_mean_term n_target is {v['n_target']}, "
                                 f"but message {first_term[0]} gives {first_term[1]}; "
                                 "the folds share one target sample")
            continue
        k = v["site_id"]
        if k not in sizes:
            raise ValueError(f"fold {f}: site {k} sent {kind} but published no ratio model")
        sent[(kind, f, k)] += 1
        if variant == "exclusion":
            excluded.add(k)
        elif kind == "aggregates":
            covered[k] += v["n_units"]
    for f in range(n_folds):
        if terms[f] != 1:
            raise ValueError(f"fold {f}: {terms[f]} target_mean_term messages; "
                             "protocol two sends exactly one per fold")
        for k in sorted(sizes):
            for kind in ("outcome_blocks", "aggregates"):
                if sent[(kind, f, k)] != 1:
                    raise ValueError(f"fold {f}: site {k} sent {sent[(kind, f, k)]} {kind} "
                                     "messages; protocol two sends exactly one per fold")
    for k in sorted(sizes.keys() - excluded):
        if covered[k] != sizes[k]:
            raise ValueError(f"site {k}: its aggregates over folds 0-{n_folds - 1} "
                             f"cover {covered[k]} units; it published {sizes[k]}")


def replay(log: MessageLog, ci_level: float = 0.95,
           weights: Optional[Dict[int, float]] = None) -> EstimateReport:
    """Rebuild the estimate from a transcript alone. A live run assembles its
    report here too, so replay matches it bitwise.

    Every message is read through SCHEMA before any rule that spans messages.
    A transcript holds one aggregate variant: protocol one's sums, or
    protocol two's fold_sums (clb) or meta deltas and exclusions. It is
    protocol one's, sums sent once per site, when it holds only aggregates,
    and protocol two's (_check_folds) otherwise. Each refusal is a ValueError
    naming the message and its key, the fold or the site."""
    reads = []
    for i, m, variant, values, extra, faults in _read_log(log):
        _refuse(i, m, extra, faults)
        reads.append((i, m.kind, variant, values))
    aggs = [(i, variant, v) for i, kind, variant, v in reads if kind == "aggregates"]
    protocol_two = len(aggs) < len(reads)
    # protocol one's hold sums, protocol two's what its first aggregates hold
    family = {"deltas": "deltas or exclusions", "exclusion": "deltas or exclusions"}
    held = family.get(aggs[0][1], aggs[0][1]) if protocol_two and aggs else "sums"
    for i, variant, _ in aggs:
        if family.get(variant, variant) != held:
            raise ValueError(f"message {i}: aggregates holds {variant}, but this transcript's "
                             f"aggregates hold {held}")
    clb = held != "deltas or exclusions"
    # a site publishes once, and sends protocol one's aggregates once
    first = {}
    for i, kind, _, v in reads:
        if ((kind == "publish_ratio_model" or not protocol_two)
                and first.setdefault((kind, v["site_id"]), i) != i):
            raise ValueError(f"message {i}: a second {kind} message from site "
                             f"{v['site_id']}; a site sends one per transcript")
    if protocol_two:
        _check_folds(reads)
    if not aggs:
        raise ValueError("log contains no aggregate messages")
    if not protocol_two:
        return clb_combine([SiteAggregates(**v) for _, _, v in aggs], ci_level=ci_level)

    per_fold: Dict[int, dict] = {}
    for _, variant, v in aggs:
        item = (Excluded(v["excluded"]) if variant == "exclusion" else
                (SiteAggregates if clb else MetaDeltas)(**{k: v[k] for k in v if k != "fold"}))
        per_fold.setdefault(v["fold"], {})[v["site_id"]] = item
    # every published unit counts, an excluded site's too, as in decoupled_aipw
    n_pooled = sum(v["n1"] + v["n0"] for _, kind, _, v in reads
                   if kind == "publish_ratio_model")
    terms = {v["fold"]: v for _, kind, _, v in reads if kind == "target_mean_term"}
    inputs = [AipwInputs(target_mean_term=float(t["value"]),
                         target_sq_term=float(t["target_var"]), n_target=t["n_target"],
                         deltas=per_fold[f], n_pooled=n_pooled, fold=f)
              for f, t in sorted(terms.items())]
    return aipw_combine(inputs, flavor="clb" if clb else "meta", weights=weights,
                        ci_level=ci_level)


def audit_messages(log: MessageLog) -> List[str]:
    """Static checks that a transcript keeps to the wire schema: one violation
    per key outside its variant and per fault that reading it through SCHEMA
    finds, a payload shaped like unit records among them, since the field
    types cap every list and string. Empty when the log is clean."""
    violations: List[str] = []
    for i, m, _, _, extra, faults in _read_log(log):
        where = f"message {i} ({_shown(m.kind)} from {_shown(m.sender)})"
        violations += [f"{where}: unexpected key {_shown(k)}" for k in extra]
        violations += [f"{where}: {fault}" for fault in faults]
    return violations


# ---------------------------------------------------------------------------
# Protocol one: aggregate once, combine once


def run_algorithm1(sites: Sequence[SiteDataset], table: ScoreTable,
                   ci_level: float = 0.95) -> Tuple[EstimateReport, MessageLog]:
    """Pooled IPW over sites that only ever send aggregate sums."""
    log = MessageLog()
    for s in sorted(sites, key=lambda t: t.site_id):
        agg = clb_site_aggregates(s, table)
        log.post(SiteMessage(s.site_id, "aggregates", 0, asdict(agg)))
    return replay(log, ci_level=ci_level), log


# ---------------------------------------------------------------------------
# Protocol two: publish ratios, train from normal-equation blocks, correct per fold


def run_algorithm2(sites: Sequence[SiteDataset], target: TargetCovariates,
                   ratios: Dict[Tuple[int, int], Optional[RatioModel]],
                   psi_om, flavor: str = "clb", F: int = 2, rng=None,
                   weights: Optional[Dict[int, float]] = None,
                   ci_level: float = 0.95) -> Tuple[EstimateReport, MessageLog]:
    """Decoupled collaborative estimation as an explicit message exchange.

    ratios maps (site_id, arm) to a fitted selection-side density-ratio model;
    the target covariate table is public input the server already holds.
    Each fold of crossfit_split(sites, F, rng) fits its outcome models exactly
    in one round of block messages. Every message goes over the wire, and the
    report is read from the parsed log alone, so it is bitwise decoupled_aipw
    on the published scores with the same folds, and replay gives it again.
    """
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
    for s in sites:
        n1 = int(np.sum(s.z_vec == 1))
        payload = {"site_id": s.site_id, "n1": n1, "n0": s.n - n1}
        for arm in (1, 0):
            model = ratios.get((s.site_id, arm))
            payload[f"model{arm}"] = None if model is None else _model_obj(model)
        log.post(SiteMessage(s.site_id, "publish_ratio_model", 0, payload))

    # The server reads the published models through the wire schema, sizes
    # their coefficients by the target it holds, and assembles pooled scores.
    models, counts = {}, {}
    n_published = 0
    for i, m, _, pay, extra, faults in _read_log(log):
        _refuse(i, m, extra, faults)
        n_published += pay["n1"] + pay["n0"]
        for arm in (1, 0):
            model = pay[f"model{arm}"]
            if model is not None:
                if len(model.gamma) != model.psi.output_dim(target.d):
                    raise ValueError(f"message {i}: {m.kind} model{arm} has {len(model.gamma)} "
                                     f"coefficients; psi {model.psi.name} on d = {target.d} "
                                     f"needs {model.psi.output_dim(target.d)}")
                models[(pay["site_id"], arm)] = model
                counts[(pay["site_id"], arm)] = pay[f"n{arm}"]
    if not models:
        raise ValueError("no ratio models were published")
    table = score_table(sites, assemble_propensity(models, counts, n_published))

    def fit(train_include, f):
        return fit_outcome_blocks(sites, table, psi_om, train_include, f, log)

    # a site sends the keys of its flavour's variant only
    spec = SCHEMA["aggregates"][1]["fold_sums" if flavor == "clb" else "deltas"]
    for f, mean, var, corrections in _crossfit_folds(sites, target, table,
                                                     crossfit_split(sites, F, rng),
                                                     psi_om, fit, (flavor,)):
        log.post(SiteMessage("server", "target_mean_term", f,
                             {"fold": f, "value": mean, "target_var": var,
                              "n_target": int(target.n)}))
        for k, res in corrections[flavor].items():
            if isinstance(res, Excluded):
                payload = {"fold": f, "site_id": k, "excluded": res.reason}
            else:
                payload = {key: v for key, v in {"fold": f, **asdict(res)}.items()
                           if key in spec}
            log.post(SiteMessage(k, "aggregates", f, payload))

    # the server reads only the parsed log, so replay is exact
    return replay(log, ci_level=ci_level, weights=weights), log
