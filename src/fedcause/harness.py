"""Monte Carlo driver for the synthetic-shift experiments.

Sweeps the heterogeneity dial, regenerates data per replication from derived
seeds, runs the selected estimators, and writes tidy CSV summaries (MSE/bias
curves over the dial, and the interval-quality grid over model
misspecification). Replications are independent tasks; results reduce in
replication order, so worker count never changes the output bytes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .density_ratio import IDENTITY_PLUS_INTERCEPT, MISSPECIFIED, RatioModel, TiltingError
from .estimators import (AllSitesExcludedError, OverlapError, _aipw_fold_inputs,
                         aipw_combine, clb_ipw, meta_ipw)
from .nuisance import PropensitySet, assemble_propensity, crossfit_split, fit_scores, score_table
from .synthgen import ShiftConfig, gen_covariate_shift, place_site_means

ESTIMATOR_IDS = ("meta_ipw", "clb_ipw", "meta_aipw", "clb_aipw")

SWEEP_COLUMNS = ("d_kl", "estimator", "nuisance_mode", "ps_spec", "om_spec",
                 "mse", "bias", "var", "coverage", "fail_rate")
CI_GRID_COLUMNS = ("estimator", "ps_spec", "om_spec",
                   "mean_tau_hat", "mean_half_width", "coverage")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment family: which dial values, how many replications, which
    estimators, and how the nuisances are obtained.

    placements re-draws the site means that many times per dial value and
    cycles replications over them. meta_weight_mode picks the per-site
    combination weights: exact asymptotic precisions ("oracle"), plug-in
    inverse variances ("estimated"), or equal ("vanilla").
    """

    d_kl_grid: tuple = (0.0, 1.0, 2.0, 3.0, 4.0)
    replications: int = 500
    placements: int = 4
    estimators: tuple = ESTIMATOR_IDS
    nuisance_mode: str = "oracle"
    ps_spec: str = "correct"
    om_spec: str = "correct"
    meta_weight_mode: str = "oracle"
    folds: int = 2
    ci_level: float = 0.95
    shift: ShiftConfig = field(default_factory=ShiftConfig)
    max_fail_frac: float = 0.10

    def __post_init__(self):
        if not self.d_kl_grid:
            raise ValueError("d_kl grid must be non-empty")
        for name, low in (("replications", 1), ("placements", 1), ("folds", 2)):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if not (isinstance(self.max_fail_frac, numbers.Real)
                and 0.0 <= self.max_fail_frac <= 1.0):
            raise ValueError("max_fail_frac must lie in [0, 1]")
        for e in self.estimators:
            if e not in ESTIMATOR_IDS:
                raise ValueError(f"unknown estimator id {e!r}")
        if self.nuisance_mode not in ("oracle", "tilting", "knn"):
            raise ValueError(f"unknown nuisance mode {self.nuisance_mode!r}")
        if self.ps_spec not in ("correct", "wrong") or self.om_spec not in ("correct", "wrong"):
            raise ValueError("ps_spec and om_spec must be 'correct' or 'wrong'")
        if self.meta_weight_mode not in ("oracle", "estimated", "vanilla"):
            raise ValueError(f"unknown weight mode {self.meta_weight_mode!r}")
        if not (0.0 < self.ci_level < 1.0):
            raise ValueError("ci_level must lie in (0, 1)")

    def to_json_obj(self) -> dict:
        obj = {k: getattr(self, k) for k in (
            "replications", "placements", "nuisance_mode", "ps_spec", "om_spec",
            "meta_weight_mode", "folds", "ci_level", "max_fail_frac")}
        obj["d_kl_grid"] = list(self.d_kl_grid)
        obj["estimators"] = list(self.estimators)
        obj["shift"] = self.shift.to_json_obj()
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SweepSpec":
        """Inverse of to_json_obj; a key that names no field raises TypeError."""
        obj = dict(obj)
        if "d_kl_grid" in obj:
            obj["d_kl_grid"] = tuple(float(v) for v in obj["d_kl_grid"])
        if "estimators" in obj:
            obj["estimators"] = tuple(obj["estimators"])
        if "shift" in obj:
            obj["shift"] = ShiftConfig(**obj["shift"])
        return cls(**obj)


@dataclass
class CellStats:
    """Replication summary for one (d_kl, estimator) cell. mse equals
    bias^2 + var by construction; var uses the population normalizer.
    n_excised counts replications in which at least one site's score fit
    failed, so that site was dropped from every estimator; it is not a sweep
    CSV column."""

    mse: float = math.nan
    bias: float = math.nan
    var: float = math.nan
    mean_tau_hat: float = math.nan
    mean_half_width: float = math.nan
    coverage: float = math.nan
    n_fail: int = 0
    n_reps: int = 0
    aborted: bool = False
    n_excised: int = 0

    @property
    def fail_rate(self) -> float:
        return self.n_fail / self.n_reps if self.n_reps else math.nan


@dataclass
class SweepResult:
    spec: SweepSpec
    seed: int
    cells: Dict[Tuple[float, str], CellStats]


# ---------------------------------------------------------------------------
# Oracle nuisances for the shift design


def _gaussian_tilt(m: np.ndarray, mu_t: np.ndarray, s2: float) -> Tuple[float, np.ndarray]:
    """(a, g) with N(m, s2 I) / N(mu_t, s2 I) = exp(a + g'x) at every x."""
    return (mu_t @ mu_t - m @ m) / (2.0 * s2), (m - mu_t) / s2


def oracle_shift_propensity(shift: ShiftConfig, means: Sequence[float], sites) -> PropensitySet:
    """Exact selection-arm scores for the shift design, assembled as fitted
    models are: per (site, arm) of ``sites`` with units, the factored model
    on (1, x) of p(x | k, z) / p_target(x) = r_k(x) pi(z | x) n_k / n_kz, r_k
    the Gaussian ratio for site mean means[k - 1], pi(1 | x) = expit(-x'c)."""
    c = np.asarray(shift.prop_coef, dtype=float)
    betas = ((1, np.concatenate(([0.0], -c))), (0, np.concatenate(([0.0], c))))
    mu_t = np.full(shift.d, shift.mu_target)
    models, counts = {}, {}
    for s in sites:
        a, g = _gaussian_tilt(np.full(shift.d, means[s.site_id - 1]), mu_t, shift.sigma ** 2)
        for arm, beta in betas:
            counts[(s.site_id, arm)] = n = int(np.count_nonzero(s.z_vec == arm))
            if n:
                models[(s.site_id, arm)] = RatioModel(
                    "factored", np.concatenate(([a + math.log(s.n / n)], g)),
                    IDENTITY_PLUS_INTERCEPT, beta)
    return assemble_propensity(models, counts, sum(s.n for s in sites))


def oracle_meta_site_variances(shift: ShiftConfig, means: Sequence[float]) -> Dict[int, float]:
    """Asymptotic per-site squared standard errors of the one-site Hajek
    estimator, in closed form.

    The site share cancels, so v_k = (1/n_k) sum_z E_k[(x'b_z - mu_z)^2
    (1 + exp(+-x'c)) / r_k(x)^2], + for z = 1, where r_k(x) = exp(g'x + a) is
    the Gaussian ratio p_k/p_target. Each term is then a tilted Gaussian
    moment: under N(m, sigma^2 I), E[(x'b - mu)^2 e^{h'x}] =
    e^{h'm + sigma^2 |h|^2 / 2} ((b'(m + sigma^2 h) - mu)^2 + sigma^2 |b|^2).
    Outcome noise adds noise_sd^2 to the squared residual."""
    s2 = shift.sigma ** 2
    c = np.asarray(shift.prop_coef, dtype=float)
    mu_t = np.full(shift.d, shift.mu_target)
    # one row per term: arm 1 at tilts -2g and -2g + c, arm 0 at -2g and -2g - c
    b = np.array([shift.beta1, shift.beta1, shift.beta0, shift.beta0], dtype=float)
    sign = np.array([0.0, 1.0, 0.0, -1.0])[:, None]
    out = {}
    for k, mu_k in enumerate(np.asarray(means, dtype=float), start=1):
        m = np.full(shift.d, mu_k)
        a, g = _gaussian_tilt(m, mu_t, s2)
        h = sign * c - 2.0 * g
        tilt = np.exp(h @ m + s2 * np.sum(h * h, axis=1) / 2.0 - 2.0 * a)
        moment = ((np.sum(b * (m + s2 * h), axis=1) - b @ mu_t) ** 2
                  + s2 * np.sum(b * b, axis=1) + shift.noise_sd ** 2)
        out[k] = float(tilt @ moment) / shift.site_sizes[k - 1]
    return out


# ---------------------------------------------------------------------------
# Fitted nuisances; a site whose fit fails is dropped


def _build_nuisance(spec: SweepSpec, sites, target, means):
    """Returns (PropensitySet, live_sites, failed): the sites whose scores are
    usable, and fit_scores' {site_id: reason} for the dropped ones."""
    if spec.nuisance_mode == "oracle":
        return oracle_shift_propensity(spec.shift, means, sites), sites, {}
    p, failed = fit_scores(sites, target, spec.nuisance_mode, spec.ps_spec == "wrong")
    if not p.e:
        raise OverlapError("every ratio fit failed; no scores available")
    return p, [s for s in sites if s.site_id not in failed], failed


# ---------------------------------------------------------------------------
# One replication


def _run_one_rep(spec: SweepSpec, seed: int, grid_index: int, rep: int,
                 means: Tuple[float, ...], variances: Optional[dict]) -> dict:
    """One replication at the placement means; variances, which the "oracle"
    meta_weight_mode reads, are oracle_meta_site_variances(spec.shift, means)."""
    rng = np.random.default_rng((seed, grid_index, rep))
    sites, target, true_tau = gen_covariate_shift(spec.shift, rng,
                                                  means=np.asarray(means))
    out = {"true_tau": true_tau, "results": {}, "excised": False}
    try:
        p, live, failed = _build_nuisance(spec, sites, target, means)
        out["excised"] = bool(failed)
        table = score_table(live, p)
    except (OverlapError, TiltingError, ValueError) as exc:
        out["excised"] = True
        for est in spec.estimators:
            out["results"][est] = ("fail", f"nuisance: {exc}")
        return out

    psi_om = MISSPECIFIED if spec.om_spec == "wrong" else IDENTITY_PLUS_INTERCEPT
    meta_error = None
    if spec.meta_weight_mode == "oracle":
        # an infinite variance has the limit weight 0; zero or NaN has none
        bad = [k for k, v in variances.items() if not v > 0.0]
        if bad:
            meta_error = (f"site {bad[0]}: oracle meta variance "
                          f"{variances[bad[0]]!r} is not positive")
        weights = {k: 1.0 / v for k, v in variances.items() if v > 0.0}
    elif spec.meta_weight_mode == "vanilla":
        weights = {s.site_id: 1.0 for s in sites}
    else:
        weights = None

    # both AIPW estimators share one cross-fit pass; a failed pass fails both
    flavors = tuple(est[:-len("_aipw")] for est in spec.estimators if est.endswith("_aipw"))
    fold_error = None
    if flavors:
        # drawn over every site, so the stream does not depend on which fits failed
        fold_plan = crossfit_split(sites, spec.folds, rng)
        try:
            aipw_inputs = _aipw_fold_inputs(live, target, table, psi_om, flavors, fold_plan)
        except (OverlapError, AllSitesExcludedError, TiltingError, ValueError) as exc:
            fold_error = str(exc)

    for est in spec.estimators:
        error = ((meta_error if est.startswith("meta_") else None)
                 or (fold_error if est.endswith("_aipw") else None))
        if error is not None:
            out["results"][est] = ("fail", error)
            continue
        try:
            if est == "meta_ipw":
                rep_out = meta_ipw(live, table, weights=weights, ci_level=spec.ci_level)
            elif est == "clb_ipw":
                rep_out = clb_ipw(live, table, ci_level=spec.ci_level)
            else:
                flavor = est[:-len("_aipw")]
                rep_out = aipw_combine(aipw_inputs[flavor], flavor=flavor, weights=weights,
                                       ci_level=spec.ci_level)
            covered = bool(rep_out.ci_lo <= true_tau <= rep_out.ci_hi)
            out["results"][est] = (rep_out.tau_hat,
                                   rep_out.var_hat / rep_out.n_effective,
                                   0.5 * (rep_out.ci_hi - rep_out.ci_lo),
                                   covered)
        except (OverlapError, AllSitesExcludedError, TiltingError, ValueError) as exc:
            out["results"][est] = ("fail", str(exc))
    return out


# ---------------------------------------------------------------------------
# The sweep


def run_monte_carlo(spec: SweepSpec, seed: int, jobs: int = 1) -> SweepResult:
    """Run the full (d_kl x estimator) grid. Cells whose failure share
    exceeds max_fail_frac are marked aborted and keep NaN statistics; the
    sweep itself always completes."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    placements: Dict[Tuple[int, int], Tuple[Tuple[float, ...], Optional[dict]]] = {}
    for gi, d_kl in enumerate(spec.d_kl_grid):
        # replication r uses placement r % placements; draw only those
        for pi in range(min(spec.placements, spec.replications)):
            mrng = np.random.default_rng((seed, 9000 + gi, pi))
            means = place_site_means(float(d_kl), spec.shift.n_sites,
                                     spec.shift.sigma, spec.shift.mu_target, mrng)
            means = tuple(float(v) for v in means)
            placements[(gi, pi)] = (means, oracle_meta_site_variances(spec.shift, means)
                                    if spec.meta_weight_mode == "oracle" else None)

    tasks = [(spec, seed, gi, r, *placements[(gi, r % spec.placements)])
             for gi in range(len(spec.d_kl_grid)) for r in range(spec.replications)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(_run_one_rep, *zip(*tasks),
                                 chunksize=max(1, len(tasks) // (jobs * 8))))
    else:
        outs = [_run_one_rep(*t) for t in tasks]
    results = {(t[2], t[3]): res for t, res in zip(tasks, outs)}

    cells = {}
    for gi, d_kl in enumerate(spec.d_kl_grid):
        per_est = {est: [] for est in spec.estimators}
        fails = {est: 0 for est in spec.estimators}
        n_excised = sum(results[(gi, r)]["excised"] for r in range(spec.replications))
        for r in range(spec.replications):
            res = results[(gi, r)]
            for est in spec.estimators:
                entry = res["results"][est]
                if entry[0] == "fail":
                    fails[est] += 1
                else:
                    per_est[est].append(entry)
        for est in spec.estimators:
            stats = CellStats(n_fail=fails[est], n_reps=spec.replications,
                              n_excised=n_excised)
            ok = per_est[est]
            if fails[est] > spec.max_fail_frac * spec.replications:
                stats.aborted = True
            elif ok:
                taus = np.array([e[0] for e in ok])
                tvals = [results[(gi, r)]["true_tau"] for r in range(spec.replications)
                         if results[(gi, r)]["results"][est][0] != "fail"]
                errs = taus - np.array(tvals)
                stats.bias = float(np.mean(errs))
                stats.var = float(np.var(taus))
                stats.mse = stats.bias ** 2 + stats.var
                stats.mean_tau_hat = float(np.mean(taus))
                stats.mean_half_width = float(np.mean([e[2] for e in ok]))
                stats.coverage = float(np.mean([1.0 if e[3] else 0.0 for e in ok]))
            cells[(float(d_kl), est)] = stats
    return SweepResult(spec=spec, seed=seed, cells=cells)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def sweep_kl(spec: SweepSpec, seed: int, out_path, jobs: int = 1) -> SweepResult:
    """Run the dial sweep and write one CSV row per (d_kl, estimator)."""
    result = run_monte_carlo(spec, seed, jobs=jobs)
    lines = [",".join(SWEEP_COLUMNS)]
    for d_kl in spec.d_kl_grid:
        for est in spec.estimators:
            c = result.cells[(float(d_kl), est)]
            lines.append(",".join([
                _fmt(float(d_kl)), est, spec.nuisance_mode, spec.ps_spec,
                spec.om_spec, _fmt(c.mse), _fmt(c.bias), _fmt(c.var),
                _fmt(c.coverage), _fmt(c.fail_rate)]))
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return result


def ci_grid(spec: SweepSpec, seed: int, out_path, jobs: int = 1) -> Dict[tuple, CellStats]:
    """Interval quality at heterogeneity 3 over the four (ps_spec, om_spec)
    combinations, each run on the same derived data streams."""
    rows = {}
    lines = [",".join(CI_GRID_COLUMNS)]
    for ps in ("correct", "wrong"):
        for om in ("correct", "wrong"):
            cell_spec = replace(spec, d_kl_grid=(3.0,), ps_spec=ps, om_spec=om)
            result = run_monte_carlo(cell_spec, seed, jobs=jobs)
            for est in spec.estimators:
                c = result.cells[(3.0, est)]
                rows[(est, ps, om)] = c
                lines.append(",".join([
                    est, ps, om, _fmt(c.mean_tau_hat),
                    _fmt(c.mean_half_width), _fmt(c.coverage)]))
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return rows
