"""Score fitting and assembly, the per-replication score table, cross-fit
folds, and the inverse-propensity-weighted outcome fit, solved from per-site
blocks of its normal equations."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .core import SiteDataset, TargetCovariates
from .density_ratio import (IDENTITY_PLUS_INTERCEPT, MISSPECIFIED, FeatureMap,
                            LogisticBlock, LogisticScale, RatioModel, TiltingError,
                            eval_ratios, fit_knn, fit_logistic_blocks,
                            fit_logistic_ratio_blocks, misspecify_features)

# near-zero assignment scores are floored here before any division
SCORE_FLOOR = 1e-12


@dataclass(frozen=True)
class RatioScore:
    """The selection score share * r(feat(x)) of one fitted ratio r."""

    ratio: RatioModel
    share: float
    feat: Callable = np.atleast_2d

    def __call__(self, x) -> np.ndarray:
        return self.share * np.atleast_1d(self.ratio.eval(self.feat(x)))


@dataclass
class PropensitySet:
    """Selection-arm probability functions e[(site_id, z)](x), known either
    exactly or assembled from fitted ratios up to one shared positive
    constant. Estimators never call them: they read the ScoreTable that
    score_table evaluates once per replication."""

    e: Dict[Tuple[int, int], Callable]

    @property
    def site_ids(self):
        return sorted({k for k, _ in self.e.keys()})

    def eval(self, site_id: int, z: int, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        fn = self.e.get((site_id, int(z)))
        if fn is None:
            return np.zeros(len(x))
        return np.asarray(fn(x), dtype=float).reshape(len(x))

    def scaled(self, c: float) -> "PropensitySet":
        """Every function multiplied by c > 0; estimators must not notice."""
        if c <= 0:
            raise ValueError("scale must be positive")
        scaled = {
            pair: (lambda x, f=fn: c * np.asarray(f(x), dtype=float))
            for pair, fn in self.e.items()
        }
        return PropensitySet(e=scaled)


def assemble_propensity(ratios: Dict[Tuple[int, int], RatioModel],
                        site_arm_counts: Dict[Tuple[int, int], int],
                        n_pooled: int) -> PropensitySet:
    """Turn density-ratio models into selection-arm scores:
    e_hat[(k, z)](x) = r_hat[(k, z)](x) * count(k, z) / n_pooled.

    The ratio models must estimate p(x | selected into (k, z)) / p_target(x),
    as those of fit_scores do. The drop probability is unobservable and
    deliberately omitted, so the set is correct only up to one shared
    positive constant. Pairs absent from ``ratios`` evaluate to zero
    downstream.
    """
    if n_pooled <= 0:
        raise ValueError("n_pooled must be positive")
    e = {}
    for pair, model in ratios.items():
        count = site_arm_counts.get(pair)
        if count is None or count <= 0:
            raise ValueError(f"missing or non-positive count for pair {pair}")
        e[pair] = RatioScore(model, count / n_pooled)
    return PropensitySet(e=e)


def _factored_models(site: SiteDataset, scale: LogisticScale, target: LogisticBlock,
                     arms: Dict[int, int]) -> Dict[int, RatioModel]:
    """p(x | k, z) / p_target(x) = r_k(x) pi_k(z | x) n_k / n_kz for each arm
    z of site k with n_kz units. r_k comes from logistic discrimination of
    the site against the target, pi_k from a logistic regression of z within
    the site; log(n_k / n_kz) is folded into the intercept of r_k. Both fits
    read the site's one block, standardized by the target's map ``scale``.
    When both laws are Gaussian with a shared covariance and arms are
    assigned logistically, both factors are exactly log-linear in (1, x). A
    site with one arm has pi_k = 1, so its model is r_k itself."""
    block = scale.block(site.x_matrix)
    ratio = fit_logistic_ratio_blocks(block, target, scale)
    if len(arms) == 1:
        return {arm: ratio for arm in arms}
    beta, info = fit_logistic_blocks([(block, site.z_vec)], scale)
    out = {}
    for arm, n_arm in arms.items():
        gamma = ratio.gamma.copy()
        gamma[0] += math.log(site.n / n_arm)
        out[arm] = RatioModel(backend="factored", gamma=gamma, psi=scale.psi,
                              beta=beta if arm == 1 else -beta,
                              fit_info={"ratio": ratio.fit_info, "arm": info})
    return out


def fit_scores(sites: Sequence[SiteDataset], target: TargetCovariates,
               backend: str, wrong: bool) -> Tuple[PropensitySet, Dict[int, str]]:
    """Fit one selection-side ratio model per (site, arm) and return
    (PropensitySet of RatioScores, failed), failed mapping the id of each
    site whose fit raised to the reason. A failed fit fails every arm of its
    site, so that site has no pair in the set.

    backend "tilting" fits the factored model of _factored_models on
    (1, x), or on the misspecified map when wrong is set; the target's
    feature means and sds set the standardization, and the target's block is
    built once for every site's ratio fit. backend "knn" fits a
    nearest-neighbour ratio per arm, on the misspecified features when wrong
    is set. Each model estimates p(x | k, z) / p_target(x), so its score
    share is n_kz / N, as assemble_propensity builds it from published
    models. An arm without units has no pair.
    """
    n_pooled = sum(s.n for s in sites)
    psi = MISSPECIFIED if wrong else IDENTITY_PLUS_INTERCEPT
    feat = misspecify_features if wrong and backend == "knn" else np.atleast_2d
    if backend == "tilting":
        # the target's map standardizes every fit; its block serves every
        # site's ratio fit
        scale, target_block = LogisticScale.announce(psi, target.xs)
    else:
        # one target array for every knn model, so score_table shares its pass
        tgt = feat(target.xs)
    e, failed = {}, {}
    for s in sites:
        arms = {arm: int(np.sum(s.z_vec == arm)) for arm in (1, 0)}
        arms = {arm: n for arm, n in arms.items() if n}
        try:
            if backend == "tilting":
                models = _factored_models(s, scale, target_block, arms)
            else:
                models = {arm: fit_knn(feat(s.x_matrix[s.z_vec == arm]), tgt)
                          for arm in arms}
        except (TiltingError, ValueError) as exc:
            failed[s.site_id] = str(exc)
            continue
        for arm, model in models.items():
            e[(s.site_id, arm)] = RatioScore(model, arms[arm] / n_pooled, feat)
    return PropensitySet(e=e), failed


@dataclass(frozen=True)
class _SiteFrame:
    """One site's per-unit quantities, derived once per replication from its
    score-table rows: its covariates and pooled scores, the mask of each arm,
    the pooled IPW weights 1 / max(pooled, SCORE_FLOOR) with the masks of
    positive and of floored pooled scores, the own-score weights with the
    mask of own scores <= 0 (None without a score column), and each feature
    map's outcome design once asked for."""

    x: np.ndarray
    pooled: np.ndarray
    arms: Dict[int, np.ndarray]
    weight: np.ndarray
    usable: np.ndarray
    floored: np.ndarray
    own_weight: Optional[np.ndarray]
    own_bad: Optional[np.ndarray]
    designs: dict = field(default_factory=dict)

    def units(self, arm: int, keep: Optional[np.ndarray] = None) -> np.ndarray:
        """The ascending indices of arm's units, only those keep marks when
        given."""
        mask = self.arms[arm]
        return (mask if keep is None else mask & keep).nonzero()[0]

    def design(self, psi: FeatureMap) -> np.ndarray:
        """The site's outcome design psi.design(x), built on first use."""
        d = self.designs.get(psi)
        if d is None:
            d = self.designs[psi] = np.atleast_2d(psi.design(self.x))
        return d


@dataclass(frozen=True)
class ScoreTable:
    """Every selection score one replication needs, evaluated once per unit
    into each site's _SiteFrame, ``frames[k]``. ``site_ids`` lists the scored
    sites in ascending order, ``pairs`` the (site, arm) pairs with a score."""

    site_ids: Tuple[int, ...]
    pairs: frozenset
    frames: Dict[int, _SiteFrame]

    def has(self, site_id: int, z: int) -> bool:
        return (site_id, int(z)) in self.pairs

    def pooled(self, site_id: int) -> np.ndarray:
        """Each unit's pooled score sum_k e[(k, z_i)](x_i), read-only."""
        return self.frames[site_id].pooled


def score_table(sites: Sequence[SiteDataset], p: PropensitySet) -> ScoreTable:
    """Evaluate every score of p once on each unit, at the unit's own arm, in
    one batch per arm over all sites; RatioScores sharing a feature map, or
    knn ones a target, make one eval_ratios call. Frames derive from the rows."""
    if not p.e:
        raise ValueError("empty propensity set")
    cols = tuple(p.site_ids)
    masks = [{arm: s.z_vec == arm for arm in (1, 0)} for s in sites]
    pooled = [np.zeros(s.n) for s in sites]
    own_scores = [np.zeros(s.n) if s.site_id in cols else None for s in sites]
    for arm in (1, 0):
        rows = [m[arm].nonzero()[0] for m in masks]
        if not any(len(r) for r in rows):
            continue
        x = np.concatenate([s.x_matrix.take(r, axis=0) for s, r in zip(sites, rows)])
        vals, shared = np.zeros((len(cols), len(x))), {}
        for j, k in enumerate(cols):
            fn = p.e.get((k, arm))
            if isinstance(fn, RatioScore):
                key = (fn.feat, fn.ratio.psi, id(fn.ratio.target_points))
                shared.setdefault(key, []).append((j, fn))
            elif fn is not None:
                vals[j] = p.eval(k, arm, x)
        for group in shared.values():
            ratios = eval_ratios([fn.ratio for _, fn in group], group[0][1].feat(x))
            for (j, fn), v in zip(group, ratios):
                vals[j] = fn.share * v
        # summed over the columns from the left; the order is part of the
        # result: a pairwise sum adds in another order from 8 columns on, and
        # rounds differently
        total = np.zeros(len(x))
        for v in vals:
            total += v
        for s, r, hi, pool, own in zip(sites, rows, np.cumsum([len(r) for r in rows]),
                                       pooled, own_scores):
            pool[r] = total[hi - len(r):hi]
            if own is not None:
                own[r] = vals[cols.index(s.site_id), hi - len(r):hi]
    frames = {}
    for s, arms, total, own in zip(sites, masks, pooled, own_scores):
        total.flags.writeable = False
        own_bad = None if own is None else own <= 0.0
        own_weight = None if own is None else 1.0 / np.where(own_bad, 1.0, own)
        frames[s.site_id] = _SiteFrame(
            s.x_matrix, total, arms, 1.0 / np.maximum(total, SCORE_FLOOR), total > 0.0,
            total < SCORE_FLOOR, own_weight, own_bad)
    return ScoreTable(site_ids=cols, pairs=frozenset(p.e), frames=frames)


@dataclass(frozen=True)
class FoldPlan:
    """Per-site partition of unit indices into F folds of near-equal size.
    Target covariates are never split; outcome models do not train on them."""

    F: int
    fold_index: Dict[int, np.ndarray]

    def eval_mask(self, site_id: int, fold: int) -> np.ndarray:
        return self.fold_index[site_id] == fold

    def train_mask(self, site_id: int, fold: int) -> np.ndarray:
        return self.fold_index[site_id] != fold


def crossfit_split(sites: Sequence[SiteDataset], F: int, rng) -> FoldPlan:
    """Uniformly random balanced fold assignment per site, deterministic for
    a given generator state. Fold sizes within a site differ by at most 1."""
    if F < 2:
        raise ValueError("F must be >= 2")
    rng = np.random.default_rng(rng)
    fold_index = {}
    for s in sites:
        if s.n < F:
            raise ValueError(f"site {s.site_id} has fewer records than folds")
        perm = rng.permutation(s.n)
        idx = np.empty(s.n, dtype=int)
        idx[perm] = np.arange(s.n) % F
        fold_index[s.site_id] = idx
    return FoldPlan(F=F, fold_index=fold_index)


@functools.lru_cache(maxsize=None)
def _upper(p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major indices of a p x p upper triangle; cached, as np.triu_indices
    costs more than the block products at the sizes the fits see."""
    return np.triu_indices(p)


def outcome_block(site: SiteDataset, table: ScoreTable, psi: FeatureMap, arm: int,
                  include: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """One site's share of an arm's weighted least-squares normal equations:
    (the upper triangle of D'WD, row by row, and D'Wy), D being the rows of
    the site's outcome design for the arm's usable units and W their pooled
    weights. Units whose pooled score is exactly zero are left out; an arm
    without usable units gives zeros."""
    frame = table.frames[site.site_id]
    usable = frame.usable if include is None else frame.usable & np.asarray(include, dtype=bool)
    idx = frame.units(arm, usable)
    design = frame.design(psi).take(idx, axis=0)
    dw = design * frame.weight[idx][:, None]
    gram = dw.T @ design
    return gram[_upper(len(gram))], dw.T @ site.y_vec[idx]


def solve_outcome_blocks(blocks: Sequence[Tuple[Sequence[float], Sequence[float]]],
                         arm: int) -> np.ndarray:
    """The arm's outcome coefficients theta from the sites' outcome_block
    pairs, summed in the given order: the exact minimizer of the pooled
    weighted squared loss, solved by least squares on the normal equations
    (the minimum-norm solution when they are singular). A prediction is
    psi.design(x) @ theta, so theta leads with the constant term. A
    non-finite theta raises ValueError."""
    gram_tri = sum(np.asarray(g, dtype=float) for g, _ in blocks)
    cross = sum(np.asarray(c, dtype=float) for _, c in blocks)
    if not np.any(gram_tri):
        raise ValueError(f"no usable units to fit the arm-{arm} outcome model")
    upper = _upper(len(cross))
    gram = np.zeros((len(cross), len(cross)))
    gram[upper] = gram_tri
    gram.T[upper] = gram_tri
    theta, *_ = np.linalg.lstsq(gram, cross, rcond=None)
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite outcome-model parameters")
    return theta


def fit_outcome_direct(sites: Sequence[SiteDataset], arm: int, psi: FeatureMap,
                       table: ScoreTable,
                       include: Optional[Dict[int, np.ndarray]] = None) -> np.ndarray:
    """Minimize the pooled weighted squared loss exactly: every site's
    outcome_block, in ascending site order, through solve_outcome_blocks, as
    the federated protocol does. Scaling every score by one constant scales
    both sides of the normal equations, so the fit moves only by rounding.
    """
    return solve_outcome_blocks(
        [outcome_block(s, table, psi, arm, None if include is None else include.get(s.site_id))
         for s in sorted(sites, key=lambda t: t.site_id)], arm)
