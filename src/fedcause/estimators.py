"""The four estimators: per-site Meta-IPW with precision-weighted combination,
pooled CLB-IPW from site aggregates, and the decoupled AIPW variants of both,
all in Hajek form with plug-in variances and normal-quantile intervals.

Hajek normalization makes every estimate invariant to the one shared constant
left unidentified in assembled propensity sets; the plug-in variances are
self-normalized for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import EstimateReport, SiteDataset, TargetCovariates
from .density_ratio import FeatureMap
from .nuisance import FoldPlan, ScoreTable, crossfit_split, fit_outcome_direct


class OverlapError(RuntimeError):
    """An arm is empty across every site: pooled scores cannot be formed."""


class AllSitesExcludedError(RuntimeError):
    """Every site was excluded from the per-site combination."""


@dataclass(frozen=True)
class Excluded:
    reason: str


class _Payload:
    """Message payload of a dataclass: its fields, in declaration order; a
    field the payload omits takes its default."""

    def to_payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, obj: dict):
        return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})


@dataclass
class SiteAggregates(_Payload):
    """Un-normalized IPW sums G and estimated arm sizes N for one site, plus
    the squared-weight moments needed to rebuild the plug-in variance after
    the across-site combination."""

    site_id: int
    G1: float = 0.0
    G0: float = 0.0
    N1: float = 0.0
    N0: float = 0.0
    w2_1: float = 0.0
    w2y_1: float = 0.0
    w2y2_1: float = 0.0
    w2_0: float = 0.0
    w2y_0: float = 0.0
    w2y2_0: float = 0.0
    n_units: int = 0
    n_floored: int = 0


@dataclass
class MetaDeltas(_Payload):
    """Per-site Hajek residual means and their variance moments, one arm each,
    computed with the site's own scores."""

    site_id: int
    d1: float
    d0: float
    n1_hat: float
    n0_hat: float
    s2_1: float
    s2_0: float
    n_units: int = 0


@dataclass
class AipwInputs:
    """Everything the decoupled combination needs for one cross-fit fold;
    deltas maps each site id to the site's residual terms."""

    target_mean_term: float
    target_sq_term: float
    n_target: int
    deltas: dict
    n_pooled: int
    fold: int = 0


def gaussian_interval(tau: float, var_hat: float, n_effective: float, level: float):
    """Normal-quantile interval tau +/- z * sqrt(var_hat / n_effective)."""
    if not (0.0 < level < 1.0):
        raise ValueError("ci_level must lie in (0, 1)")
    half = NormalDist().inv_cdf((1.0 + level) / 2.0) * float(np.sqrt(var_hat / n_effective))
    return tau - half, tau + half


# ---------------------------------------------------------------------------
# Meta: per-site Hajek estimates combined with precision weights


def _own_arm_sums(frame, values: np.ndarray, idx: np.ndarray, centred: bool):
    """(n_hat, mean, square sum) of values v over the units idx under their
    own-score weights w: sum w and sum w v / sum w from the rows of one array
    (as _clb_aggregate_arrays), then sum (w (v - mean))^2 when centred, else
    sum (w v)^2."""
    sums = np.empty((2, len(idx)))
    w, wv = sums
    w[:] = frame.own_weight[idx]
    v = values[idx]
    np.multiply(w, v, out=wv)
    n_hat, total = np.add.reduce(sums, axis=1).tolist()
    mean = total / n_hat
    dev = w * (v - mean) if centred else wv
    return n_hat, mean, float(np.square(dev, out=dev).sum())


def _meta_deltas(site: SiteDataset, values: np.ndarray, table: ScoreTable,
                 keep: Optional[np.ndarray], centred: bool):
    """The per-site kernel of both Meta flavours: per arm, the Hajek mean of
    values over the units keep marks (all when None) under the site's own
    scores and its square sum (_own_arm_sums), as MetaDeltas; or Excluded
    when an arm's score model, units or positive scores are missing."""
    if not (table.has(site.site_id, 1) and table.has(site.site_id, 0)):
        return Excluded("missing arm score model")
    frame = table.frames[site.site_id]
    out = {}
    n_units = 0
    for arm in (1, 0):
        idx = frame.units(arm, keep)
        if not len(idx):
            return Excluded(f"no arm-{arm} units")
        if frame.own_bad[idx].any():
            return Excluded(f"non-positive arm-{arm} score")
        out[arm] = _own_arm_sums(frame, values, idx, centred)
        n_units += len(idx)
    (n1_hat, d1, s2_1), (n0_hat, d0, s2_0) = out[1], out[0]
    return MetaDeltas(site_id=site.site_id, d1=d1, d0=d0, n1_hat=n1_hat, n0_hat=n0_hat,
                      s2_1=s2_1, s2_0=s2_0, n_units=n_units)


def _meta_contrast(d):
    """(tau_k, var_k) = (d1 - d0, s2_1 / n1_hat^2 + s2_0 / n0_hat^2) of
    MetaDeltas; an Excluded passes through."""
    if isinstance(d, Excluded):
        return d
    return d.d1 - d.d0, d.s2_1 / d.n1_hat ** 2 + d.s2_0 / d.n0_hat ** 2


def meta_ipw_site(site: SiteDataset, table: ScoreTable):
    """Hajek IPW contrast on one site with its own scores, from its frame.

    Returns (tau_k, var_k) or Excluded. var_k is the self-normalized plug-in
    squared standard error sum_w^2 (y - mu_hat)^2 / (sum_w)^2 per arm, so it
    shares the Hajek form's indifference to the unknown scale constant.
    """
    return _meta_contrast(_meta_deltas(site, site.y_vec, table, None, True))


def _meta_weighted(results: Dict[int, Union[Tuple[float, float], Excluded]],
                   weights: Optional[Dict[int, float]]):
    """(tau, var, diagnostics) of per-site (tau_k, var_k) results, summed in
    ascending site order. weights None weighs each included site by 1/var_k
    and gives var = 1 / sum(1/var_k); a map {site_id: w} renormalizes w over
    the included sites (a missing id weighs 0) and gives var =
    sum(w_tilde^2 var_k). Diagnostics name each site, with its weight or the
    reason it was excluded."""
    included = [(sid, float(res[0]), float(res[1])) for sid, res in sorted(results.items())
                if not isinstance(res, Excluded)]
    if not included:
        raise AllSitesExcludedError("all sites excluded from the Meta combination")
    if weights is None:
        raw = {sid: 1.0 / max(var, 1e-300) for sid, _, var in included}
    else:
        raw = {sid: float(weights.get(sid, 0.0)) for sid, _, _ in included}
        if any(w < 0 for w in raw.values()) or sum(raw.values()) <= 0:
            raise ValueError("fixed weights must be non-negative and not all zero")
    total = sum(raw.values())
    eta = {sid: w / total for sid, w in raw.items()}
    tau = sum(eta[sid] * tk for sid, tk, _ in included)
    var = (1.0 / total if weights is None
           else sum(eta[sid] ** 2 * vk for sid, _, vk in included))
    diagnostics = [(sid, False, res.reason) if isinstance(res, Excluded)
                   else (sid, True, f"weight={eta[sid]:.6g}")
                   for sid, res in sorted(results.items())]
    return tau, var, diagnostics


def meta_combine(site_results: Dict[int, Union[Tuple[float, float], Excluded]],
                 weights: Optional[Dict[int, float]] = None,
                 ci_level: float = 0.95) -> EstimateReport:
    """Combine per-site (tau_k, var_k) results under inverse-variance weights
    (weights None) or the given {site_id: w} (_meta_weighted). Excluded sites
    appear in the diagnostics with their reason. n_effective is 1: var_hat is
    already the squared standard error."""
    tau, var_hat, diagnostics = _meta_weighted(site_results, weights)
    lo, hi = gaussian_interval(tau, var_hat, 1.0, ci_level)
    return EstimateReport(estimator_name="MetaIPW", tau_hat=tau, var_hat=var_hat,
                          n_effective=1.0, ci_level=ci_level, ci_lo=lo, ci_hi=hi,
                          per_site_diagnostics=diagnostics)


def meta_ipw(sites: Sequence[SiteDataset], table: ScoreTable,
             weights: Optional[Dict[int, float]] = None,
             ci_level: float = 0.95) -> EstimateReport:
    """Per-site Meta-IPW over all sites whose two arm scores are available."""
    results = {s.site_id: meta_ipw_site(s, table) for s in sites}
    return meta_combine(results, weights=weights, ci_level=ci_level)


# ---------------------------------------------------------------------------
# CLB: pooled Hajek over heterogeneous scores, assembled from site aggregates


def _clb_aggregate_arrays(site: SiteDataset, values: np.ndarray, table: ScoreTable,
                          keep: Optional[np.ndarray]) -> SiteAggregates:
    """The SiteAggregates of values over the units keep marks (all when None):
    per arm, the five pooled-weight sums as the rows of one C-order array,
    each of which reduces pairwise as a 1-d np.sum does, so bit for bit."""
    agg = SiteAggregates(site_id=site.site_id)
    frame = table.frames[site.site_id]
    for arm in (1, 0):
        idx = frame.units(arm, keep)
        if not len(idx):
            continue
        sums = np.empty((5, len(idx)))
        wv, w, w2, w2v, w2v2 = sums
        w[:] = frame.weight[idx]
        v = values[idx]
        np.multiply(w, v, out=wv)
        np.multiply(w, w, out=w2)
        np.multiply(w2, v, out=w2v)
        np.multiply(w2v, v, out=w2v2)
        G, N, *moments = np.add.reduce(sums, axis=1).tolist()
        if arm == 1:
            agg.G1, agg.N1 = G, N
            agg.w2_1, agg.w2y_1, agg.w2y2_1 = moments
        else:
            agg.G0, agg.N0 = G, N
            agg.w2_0, agg.w2y_0, agg.w2y2_0 = moments
        agg.n_floored += int(frame.floored[idx].sum())
        agg.n_units += len(idx)
    return agg


def clb_site_aggregates(site: SiteDataset, table: ScoreTable) -> SiteAggregates:
    """One site's contribution to the pooled Hajek sums: G = sum y / score
    and N = sum 1 / score per arm, pooled scores in the denominator.
    A site missing an arm still contributes valid sums for the other arm.
    """
    return _clb_aggregate_arrays(site, site.y_vec, table, None)


def _clb_pool(aggs: Sequence[SiteAggregates], centred: bool):
    """The pooled combiner of both CLB flavours: (tau, V, diagnostics) with
    tau = sum G1 / sum N1 - sum G0 / sum N0 and V = V1 / N1^2 + V0 / N0^2,
    V_z = max(w2y2 - 2 c w2y + c^2 w2, 0) the arm's squared-weight sums
    centred at c = mu_z when centred, else at c = 0, which multiplies its w2
    and w2y sums by 0. Sums run in ascending site order, fixed for bitwise
    reproducibility."""
    aggs = sorted(aggs, key=lambda a: a.site_id)
    N1 = sum(a.N1 for a in aggs)
    N0 = sum(a.N0 for a in aggs)
    if N1 <= 0.0:
        raise OverlapError("treated arm empty across all sites")
    if N0 <= 0.0:
        raise OverlapError("control arm empty across all sites")
    mu1 = sum(a.G1 for a in aggs) / N1
    mu0 = sum(a.G0 for a in aggs) / N0
    c1, c0 = (mu1, mu0) if centred else (0.0, 0.0)

    def square_sum(z: int, c: float) -> float:
        w2, w2y, w2y2 = (sum(getattr(a, f"{m}_{z}") for a in aggs) for m in ("w2", "w2y", "w2y2"))
        return max(w2y2 - 2.0 * c * w2y + c * c * w2, 0.0)

    V = square_sum(1, c1) / N1 ** 2 + square_sum(0, c0) / N0 ** 2
    diagnostics = [(a.site_id, True, f"n_units={a.n_units} floored={a.n_floored}")
                   for a in aggs]
    return mu1 - mu0, V, diagnostics


def clb_combine(aggs: Sequence[SiteAggregates], ci_level: float = 0.95) -> EstimateReport:
    """Server-side combination: mu_hat_z = sum_k G_z / sum_k N_z, tau their
    difference (_clb_pool). The plug-in variance is the self-normalized Hajek
    form var_hat = n_pooled * (V1 / N1_hat^2 + V0 / N0_hat^2) with V the
    centred squared-weight sums, n_pooled the units the aggregates cover and
    n_effective = n_pooled; the unobservable drop share cancels throughout.
    """
    if not aggs:
        raise ValueError("no site aggregates to combine")
    n_pooled = sum(a.n_units for a in aggs)
    if n_pooled <= 0:
        raise ValueError("n_pooled must be positive")
    tau, V, diagnostics = _clb_pool(aggs, centred=True)
    var_hat = n_pooled * V
    lo, hi = gaussian_interval(tau, var_hat, n_pooled, ci_level)
    return EstimateReport(estimator_name="ClbIPW", tau_hat=tau, var_hat=var_hat,
                          n_effective=float(n_pooled), ci_level=ci_level,
                          ci_lo=lo, ci_hi=hi, per_site_diagnostics=diagnostics)


def clb_ipw(sites: Sequence[SiteDataset], table: ScoreTable,
            ci_level: float = 0.95) -> EstimateReport:
    return clb_combine([clb_site_aggregates(s, table) for s in sites], ci_level=ci_level)


# ---------------------------------------------------------------------------
# Decoupled AIPW: target-mean term plus IPW corrections on residuals


def aipw_combine(inputs: Sequence[AipwInputs], flavor: str = "clb",
                 weights: Optional[Dict[int, float]] = None,
                 ci_level: float = 0.95) -> EstimateReport:
    """Assemble the decoupled estimate from per-fold inputs.

    Per fold, tau_f = target_mean_term + correction, the correction being
    the flavour's IPW combination of the fold's residual terms: _clb_pool
    with sums centred at 0, or _meta_weighted with the given weights (each
    site's plug-in inverse variance of its correction when None, as in
    meta_combine). The final estimate averages the folds. The plug-in
    variance adds the target-sample variance of the modelled contrast
    (divided by lambda_hat = n_target / n_pooled) at weight 1/F and the
    residual correction variance at weight 1/F^2, reflecting that the folds
    share the target sample but correct disjoint units. n_effective is the
    pooled source count.
    """
    folds = list(inputs)
    if not folds:
        raise ValueError("no fold inputs")
    if any(f.n_target <= 0 for f in folds):
        raise ValueError("empty target set")
    n_pooled = folds[0].n_pooled
    if n_pooled <= 0:
        raise ValueError("n_pooled must be positive")
    if any(f.n_pooled != n_pooled for f in folds):
        raise ValueError("inconsistent pooled counts across folds")
    if flavor not in ("clb", "meta"):
        raise ValueError(f"unknown flavor {flavor!r}")
    F = len(folds)

    taus, vts, vcs = [], [], []
    diagnostics = []
    for f in folds:
        if flavor == "clb":
            corr, vc, rows = _clb_pool(f.deltas.values(), centred=False)
        else:
            corr, vc, rows = _meta_weighted(
                {sid: _meta_contrast(d) for sid, d in f.deltas.items()}, weights)
        diagnostics += [(sid, ok, f"fold={f.fold} {text}") for sid, ok, text in rows]
        taus.append(f.target_mean_term + corr)
        vts.append(f.target_sq_term / (f.n_target / n_pooled))
        vcs.append(n_pooled * vc)

    tau = sum(taus) / F
    var_hat = sum(vts) / F + sum(vcs) / F ** 2
    name = "ClbAIPW" if flavor == "clb" else "MetaAIPW"
    lo, hi = gaussian_interval(tau, var_hat, n_pooled, ci_level)
    return EstimateReport(estimator_name=name, tau_hat=tau, var_hat=var_hat,
                          n_effective=float(n_pooled), ci_level=ci_level,
                          ci_lo=lo, ci_hi=hi, per_site_diagnostics=diagnostics)


def _crossfit_folds(sites: Sequence[SiteDataset], target: TargetCovariates,
                    table: ScoreTable, fold_plan: FoldPlan, psi: FeatureMap,
                    train: Callable, flavors: Sequence[str]):
    """The cross-fit fold loop of decoupled AIPW, shared by the in-memory and
    the message-passing paths. ``train(train_include, f)`` returns the fold's
    (treated, control) outcome models on psi, fitted on the complement of
    fold f. The plan may cover more sites than ``sites``; only these train
    and correct. Each pass builds the target's design once, each site's comes
    from its frame, and each fold trains and residualizes each site once.
    Yields, per fold, (f, target_mean_term, target_var, corrections) where
    corrections maps each of ``flavors`` to {site_id: the site's residual
    terms}: its SiteAggregates for "clb", its MetaDeltas or Excluded for
    "meta".
    """
    if target.n < 2:
        raise ValueError("the target-term variance needs at least 2 target rows")
    kernels = {"clb": _clb_aggregate_arrays,
               "meta": lambda *args: _meta_deltas(*args, centred=False)}
    if not kernels.keys() >= set(flavors):
        raise ValueError(f"unknown flavor in {tuple(flavors)!r}")
    target_design = np.atleast_2d(psi.design(target.xs))
    designs = [table.frames[s.site_id].design(psi) for s in sites]
    for f in range(fold_plan.F):
        m1, m0 = train({s.site_id: fold_plan.train_mask(s.site_id, f) for s in sites}, f)
        diff = target_design @ m1.theta - target_design @ m0.theta
        resids = [np.where(s.z_vec == 1, s.y_vec - d @ m1.theta, s.y_vec - d @ m0.theta)
                  for s, d in zip(sites, designs)]
        keeps = [fold_plan.eval_mask(s.site_id, f) for s in sites]
        corrections = {fl: {s.site_id: kernels[fl](s, r, table, keep)
                            for s, r, keep in zip(sites, resids, keeps)}
                       for fl in flavors}
        yield f, float(np.mean(diff)), float(np.var(diff, ddof=1)), corrections


def _aipw_fold_inputs(sites: Sequence[SiteDataset], target: TargetCovariates,
                      table: ScoreTable, psi_om: FeatureMap, flavors: Sequence[str],
                      fold_plan: FoldPlan) -> Dict[str, List[AipwInputs]]:
    """Per-fold AipwInputs of each requested flavour from one cross-fit pass:
    the outcome models of a fold are an exact weighted least-squares solve of
    the score-weighted loss on its complement, trained once for all flavours."""
    sites = sorted(sites, key=lambda s: s.site_id)
    n_pooled = sum(s.n for s in sites)
    if n_pooled <= 0:
        raise ValueError("no usable source units")

    def fit(train_include, f):
        return tuple(fit_outcome_direct(sites, arm, psi_om, table, include=train_include)
                     for arm in (1, 0))

    inputs = {fl: [] for fl in flavors}
    for f, mean, var, corrections in _crossfit_folds(sites, target, table, fold_plan,
                                                     psi_om, fit, flavors):
        for fl in flavors:
            inputs[fl].append(AipwInputs(
                target_mean_term=mean, target_sq_term=var, n_target=target.n,
                deltas=corrections[fl], n_pooled=n_pooled, fold=f))
    return inputs


def decoupled_aipw(sites: Sequence[SiteDataset], target: TargetCovariates,
                   table: ScoreTable, psi_om: FeatureMap, flavor: str = "clb",
                   F: int = 2, rng=None,
                   weights: Optional[Dict[int, float]] = None,
                   ci_level: float = 0.95,
                   fold_plan: Optional[FoldPlan] = None) -> EstimateReport:
    """Cross-fitted decoupled AIPW, centralized reference implementation.

    Outcome models train on the complement of each fold (an exact weighted
    least-squares solve of the score-weighted loss) and correct only
    that fold's units; the target-mean term is recomputed per fold.
    """
    sites = sorted(sites, key=lambda s: s.site_id)
    if fold_plan is None:
        fold_plan = crossfit_split(sites, F, rng)
    inputs = _aipw_fold_inputs(sites, target, table, psi_om, (flavor,), fold_plan)
    return aipw_combine(inputs[flavor], flavor=flavor, weights=weights, ci_level=ci_level)
