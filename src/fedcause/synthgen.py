"""Synthetic multi-site data generation.

Two generating processes: a fixed-size covariate-shift design where each site
draws Gaussian covariates around its own mean, and an explicit
sampling-selecting design where i.i.d. population draws receive a categorical
selection label routing them to a (site, arm) cell or dropping them.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import SiteDataset, TargetCovariates
from .nuisance import PropensitySet


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class ShiftConfig:
    """Fixed-size covariate-shift design.

    Site k draws site_sizes[k-1] covariates from N(mu_k * 1, sigma^2 I_d)
    where the site means come from place_site_means at heterogeneity d_kl.
    Treatment is logistic in x, outcomes are linear per arm plus optional
    noise, and the target covariates are N(mu_target * 1, sigma^2 I_d).
    """

    n_sites: int = 3
    site_sizes: tuple = (1000, 2000, 3000)
    n_target: int = 10000
    d: int = 3
    mu_target: float = -0.1
    sigma: float = 2.0
    d_kl: float = 0.0
    prop_coef: tuple = (1.2, 0.3, -1.2)
    beta1: tuple = (1.2, 1.8, 1.4)
    beta0: tuple = (0.6, 0.7, 0.6)
    noise_sd: float = 0.0

    def __post_init__(self):
        for name in ("site_sizes", "prop_coef", "beta1", "beta0"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("mu_target", "sigma", "d_kl", "noise_sd"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real) or not np.isfinite(v):
                raise ValueError(f"{name} must be a finite number")
        if self.n_sites < 1 or len(self.site_sizes) != self.n_sites:
            raise ValueError("site_sizes must list one positive size per site")
        if any(n <= 0 for n in self.site_sizes) or self.n_target <= 0:
            raise ValueError("sizes must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.d_kl < 0 or self.noise_sd < 0:
            raise ValueError("d_kl and noise_sd must be non-negative")
        for name in ("prop_coef", "beta1", "beta0"):
            if len(getattr(self, name)) != self.d:
                raise ValueError(f"{name} must have length d")

    def to_json_obj(self) -> dict:
        """The fields in declaration order, tuples as lists; ShiftConfig(**obj)
        is its inverse."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


PROBE_DRAWS = 1000
PROBE_TOL = 1e-9


@dataclass
class SelectConfig:
    """Explicit sampling-selecting design.

    ``selection`` maps (site_id, z) to a probability function of x and
    ``drop`` is the elimination probability; together they must sum to one,
    which is probed on PROBE_DRAWS sampler draws to PROBE_TOL.
    """

    n_total: int
    selection: Dict[Tuple[int, int], Callable]
    drop: Callable
    sampler: Callable
    d: int
    n_target: Optional[int] = None

    def probe_sum_to_one(self, rng) -> None:
        xs = np.atleast_2d(self.sampler(rng, PROBE_DRAWS))
        total = np.asarray(self.drop(xs), dtype=float).reshape(len(xs)).copy()
        for fn in self.selection.values():
            total += np.asarray(fn(xs), dtype=float).reshape(len(xs))
        worst = float(np.max(np.abs(total - 1.0)))
        if worst > PROBE_TOL:
            raise ValueError(f"selection probabilities sum to 1 off by {worst:.3g}")


def place_site_means(d_kl: float, K: int, sigma: float, mu_target: float, rng) -> np.ndarray:
    """Draw K scalar site means whose squared deviations from mu_target sum to
    2 sigma^2 d_kl exactly.

    Squared deviations are uniform on the scaled simplex (flat Dirichlet) and
    exactly one deviation, chosen uniformly, is flipped negative. d_kl = 0
    collapses every mean onto the target.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if d_kl < 0:
        raise ValueError("d_kl must be non-negative")
    rng = _as_rng(rng)
    if d_kl == 0:
        return np.full(K, mu_target, dtype=float)
    sq = rng.dirichlet(np.ones(K)) * (2.0 * sigma ** 2 * d_kl)
    dev = np.sqrt(sq)
    flip = rng.integers(K)
    dev[flip] = -dev[flip]
    return mu_target + dev


def gen_covariate_shift(cfg: ShiftConfig, rng, means: Optional[np.ndarray] = None):
    """Generate (sites, target, true_tau) under the covariate-shift design.

    ``means`` fixes the site means; when omitted they are drawn here with
    place_site_means. true_tau = (beta1 - beta0)' (mu_target * 1).
    """
    rng = _as_rng(rng)
    if means is None:
        means = place_site_means(cfg.d_kl, cfg.n_sites, cfg.sigma, cfg.mu_target, rng)
    means = np.asarray(means, dtype=float)
    if len(means) != cfg.n_sites:
        raise ValueError("means must give one value per site")

    c = np.asarray(cfg.prop_coef, dtype=float)
    b1 = np.asarray(cfg.beta1, dtype=float)
    b0 = np.asarray(cfg.beta0, dtype=float)

    sites = []
    for k in range(cfg.n_sites):
        n = cfg.site_sizes[k]
        x = rng.normal(means[k], cfg.sigma, size=(n, cfg.d))
        p1 = 1.0 / (1.0 + np.exp(x @ c))
        z = (rng.random(n) < p1).astype(int)
        y = np.where(z == 1, x @ b1, x @ b0)
        if cfg.noise_sd > 0:
            y = y + cfg.noise_sd * rng.normal(size=n)
        sites.append(SiteDataset.from_arrays(k + 1, x, z, y))

    target = TargetCovariates(rng.normal(cfg.mu_target, cfg.sigma, size=(cfg.n_target, cfg.d)))
    true_tau = float((b1 - b0) @ np.full(cfg.d, cfg.mu_target))
    return sites, target, true_tau


def gen_sampling_selecting(cfg: SelectConfig, outcome_fns: Tuple[Callable, Callable], rng):
    """Draw n_total units i.i.d., route each by one categorical draw over
    {drop} + all (site, arm) cells, and keep Y = Y(z) for the realized arm.

    Returns (sites, target, dropped_count, oracle) where oracle is the true
    selection-probability set. Sites that receive no units are omitted.
    """
    rng = _as_rng(rng)
    cfg.probe_sum_to_one(rng)
    y1_fn, y0_fn = outcome_fns

    xs = np.atleast_2d(cfg.sampler(rng, cfg.n_total))
    pairs = sorted(cfg.selection.keys())
    probs = np.empty((cfg.n_total, len(pairs) + 1))
    probs[:, 0] = np.asarray(cfg.drop(xs), dtype=float).reshape(len(xs))
    for j, pair in enumerate(pairs):
        probs[:, j + 1] = np.asarray(cfg.selection[pair](xs), dtype=float).reshape(len(xs))
    # one categorical draw per unit via the inverse-CDF of the row
    cum = np.cumsum(probs, axis=1)
    u = rng.random(cfg.n_total)
    labels = np.sum(u[:, None] >= cum, axis=1)  # 0 = dropped, j+1 = pairs[j]

    dropped_count = int(np.sum(labels == 0))
    site_rows: Dict[int, list] = {}
    for j, (k, z) in enumerate(pairs):
        sel = labels == j + 1
        if not np.any(sel):
            continue
        x_sel = xs[sel]
        y = y1_fn(x_sel) if z == 1 else y0_fn(x_sel)
        site_rows.setdefault(k, []).append((x_sel, np.full(np.sum(sel), z, dtype=int),
                                            np.asarray(y, dtype=float).reshape(-1)))
    sites = []
    for k in sorted(site_rows):
        chunks = site_rows[k]
        x = np.vstack([c[0] for c in chunks])
        z = np.concatenate([c[1] for c in chunks])
        y = np.concatenate([c[2] for c in chunks])
        sites.append(SiteDataset.from_arrays(k, x, z, y))

    n_t = cfg.n_target if cfg.n_target is not None else cfg.n_total
    target = TargetCovariates(np.atleast_2d(cfg.sampler(rng, n_t)))

    return sites, target, dropped_count, PropensitySet(e=dict(cfg.selection))


@dataclass
class OverlapReport:
    individual_ok: Dict[int, bool]
    overall_ok: bool
    min_values: Dict


def check_overlap(p: PropensitySet, probe_xs, c: float) -> OverlapReport:
    """Probe per-site and pooled assignment scores against the threshold c.

    individual_ok[k] requires min over probes of min(e[(k,1)], e[(k,0)]) > c;
    overall_ok requires the same for the across-site sums per arm.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    xs = np.atleast_2d(np.asarray(probe_xs, dtype=float))
    if len(xs) == 0:
        raise ValueError("probe set is empty")
    individual_ok, min_ind = {}, {}
    sum1 = np.zeros(len(xs))
    sum0 = np.zeros(len(xs))
    for k in p.site_ids:
        e1 = p.eval(k, 1, xs)
        e0 = p.eval(k, 0, xs)
        sum1 += e1
        sum0 += e0
        lo = float(min(e1.min(), e0.min()))
        min_ind[k] = lo
        individual_ok[k] = lo > c
    overall_min = float(min(sum1.min(), sum0.min()))
    return OverlapReport(individual_ok=individual_ok,
                         overall_ok=overall_min > c,
                         min_values={"per_site": min_ind, "overall": overall_min})
