"""Acceptance gate: ten system-level criteria, each printing one PASS/FAIL
line in the terminal summary.

Every tolerance below is part of the package contract. The master seed 42 is
fixed a priori; statistics are reported as measured, never reseeded.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fedcause import (
    AllSitesExcludedError,
    Excluded,
    OverlapError,
    IDENTITY_PLUS_INTERCEPT,
    RatioModel,
    ShiftConfig,
    SweepSpec,
    audit_messages,
    clb_ipw,
    decoupled_aipw,
    fit_knn,
    fit_tilting,
    meta_combine,
    meta_ipw,
    oracle_gaussian_ratio,
    run_algorithm1,
    run_algorithm2,
    run_monte_carlo,
    score_table,
)
from fedcause.density_ratio import IDENTITY
from fedcause.estimators import meta_ipw_site
from fedcause.nuisance import assemble_propensity, crossfit_split
from fedcause.synthgen import check_overlap
from conftest import (
    brute_knn_ratio,
    draw_disjoint_two_site,
    draw_smooth_two_site,
    DISJOINT_TRUE_TAU,
    fuzz_dataset,
    fuzz_scores,
    record_criterion,
)

SEED = 42
TRUE_TAU = -0.25
ALL_ESTIMATORS = ("meta_ipw", "clb_ipw", "meta_aipw", "clb_aipw")


def _oracle_spec(**kw) -> SweepSpec:
    base = dict(replications=500, placements=4, estimators=ALL_ESTIMATORS,
                nuisance_mode="oracle", meta_weight_mode="oracle",
                shift=ShiftConfig())
    base.update(kw)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def sweep_d1():
    t0 = time.perf_counter()
    res = run_monte_carlo(_oracle_spec(d_kl_grid=(1.0,)), seed=SEED)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_grid():
    return run_monte_carlo(
        _oracle_spec(d_kl_grid=(0.0, 1.0, 2.0, 3.0, 4.0)), seed=SEED)


def test_criterion_1_consistency_with_oracle_nuisances(sweep_d1):
    res, elapsed = sweep_d1
    biases = {e: res.cells[(1.0, e)].bias for e in ALL_ESTIMATORS}
    ok_bias = all(abs(b) < 0.02 for b in biases.values())
    ok_time = elapsed < 300.0
    detail = " ".join(f"{e}:{b:+.4f}" for e, b in biases.items())
    record_criterion(1, "all four estimators within 0.02 of the true effect "
                        "(oracle scores, heterogeneity 1, R=500)",
                     ok_bias and ok_time, f"{detail} elapsed={elapsed:.0f}s")
    assert ok_time
    assert ok_bias, f"replication-mean biases: {biases}"


def test_criterion_2_pooled_variance_never_worse(sweep_grid):
    ratios = {}
    for d in (0.0, 1.0, 2.0, 3.0, 4.0):
        v_clb = sweep_grid.cells[(d, "clb_ipw")].var
        v_meta = sweep_grid.cells[(d, "meta_ipw")].var
        ratios[d] = v_clb / v_meta
    ok = all(r <= 1.05 for r in ratios.values())
    detail = " ".join(f"d{int(d)}:{r:.2f}" for d, r in ratios.items())
    record_criterion(2, "Var(pooled IPW) <= 1.05 x Var(per-site IPW) on the "
                        "whole heterogeneity grid", ok, detail)
    assert ok, f"variance ratios by heterogeneity: {ratios}"


def test_criterion_3_stability_under_heterogeneity(sweep_grid):
    def mse(est, d):
        return sweep_grid.cells[(d, est)].mse

    r_clb = mse("clb_ipw", 4.0) / mse("clb_ipw", 0.0)
    r_aipw = mse("clb_aipw", 4.0) / mse("clb_aipw", 0.0)
    r_meta = mse("meta_ipw", 4.0) / mse("meta_ipw", 0.0)
    ok = r_clb <= 2.0 and r_aipw <= 2.0 and r_meta >= 2.0
    record_criterion(3, "pooled estimators stay stable while per-site IPW "
                        "degrades as heterogeneity grows", ok,
                     f"clb_ipw:{r_clb:.2f} clb_aipw:{r_aipw:.2f} meta_ipw:{r_meta:.2f}")
    assert ok


def test_criterion_4_interval_coverage_under_fitted_scores():
    spec = _oracle_spec(d_kl_grid=(3.0,), replications=1000,
                        estimators=("clb_ipw", "clb_aipw"),
                        nuisance_mode="tilting", meta_weight_mode="vanilla")
    res = run_monte_carlo(spec, seed=SEED)
    cov_ipw = res.cells[(3.0, "clb_ipw")].coverage
    cov_aipw = res.cells[(3.0, "clb_aipw")].coverage
    ok = 0.92 <= cov_ipw <= 0.98 and 0.92 <= cov_aipw <= 0.98
    record_criterion(4, "95% interval coverage in [0.92, 0.98] with fitted "
                        "tilting scores (heterogeneity 3, R=1000)", ok,
                     f"clb_ipw:{cov_ipw:.3f} clb_aipw:{cov_aipw:.3f}")
    assert ok, f"coverage clb_ipw={cov_ipw:.3f} clb_aipw={cov_aipw:.3f}"


def test_criterion_5_double_robustness():
    base = _oracle_spec(d_kl_grid=(3.0,), replications=500,
                        nuisance_mode="tilting", meta_weight_mode="vanilla")
    ps_wrong = run_monte_carlo(
        replace(base, ps_spec="wrong", om_spec="correct",
                estimators=("clb_ipw", "clb_aipw")), seed=SEED)
    om_wrong = run_monte_carlo(
        replace(base, ps_spec="correct", om_spec="wrong",
                estimators=("clb_aipw",)), seed=SEED)
    b_aipw_ps = ps_wrong.cells[(3.0, "clb_aipw")].bias
    b_ipw_ps = ps_wrong.cells[(3.0, "clb_ipw")].bias
    b_aipw_om = om_wrong.cells[(3.0, "clb_aipw")].bias
    ok_ps = abs(b_aipw_ps) < 0.03
    ok_om = abs(b_aipw_om) < 0.03
    ok_gap = abs(b_ipw_ps) >= 2.0 * abs(b_aipw_ps)
    ok = ok_ps and ok_om and ok_gap
    record_criterion(5, "augmented estimator stays unbiased when one nuisance "
                        "is wrong; raw IPW degrades at least 2x", ok,
                     f"aipw(ps-wrong):{b_aipw_ps:+.4f} aipw(om-wrong):{b_aipw_om:+.4f} "
                     f"ipw(ps-wrong):{b_ipw_ps:+.4f}")
    assert ok, (b_aipw_ps, b_aipw_om, b_ipw_ps)


def test_criterion_6_disjoint_domain_collaboration():
    R = 200
    meta_refused = 0
    zs = []
    for r in range(R):
        sites, target, _, oracle = draw_disjoint_two_site(3000, seed=(SEED, 6, r))
        screen = check_overlap(oracle, target.xs[:400], c=1e-9)
        table = score_table(sites, oracle)
        results = {}
        for s in sites:
            if screen.individual_ok.get(s.site_id, False):
                results[s.site_id] = meta_ipw_site(s, table)
            else:
                results[s.site_id] = Excluded("fails individual overlap on target support")
        try:
            meta_combine(results)
        except AllSitesExcludedError:
            meta_refused += 1
        rep = clb_ipw(sites, table)
        se = math.sqrt(rep.var_hat / rep.n_effective)
        assert np.isfinite(rep.tau_hat)
        zs.append(abs(rep.tau_hat - DISJOINT_TRUE_TAU) / se)
    within = float(np.mean(np.asarray(zs) <= 3.0))
    ok = meta_refused == R and within >= 0.99
    record_criterion(6, "per-site estimation refuses disjoint-support sites "
                        "while the pooled estimator stays on target", ok,
                     f"meta_refused:{meta_refused}/{R} within3se:{within:.3f}")
    assert ok


def _fuzz_ratio_models(rng, sites, d):
    ratios = {}
    for s in sites:
        for z in (0, 1):
            gamma = rng.normal(0.0, 0.3, size=d + 1)
            ratios[(s.site_id, z)] = RatioModel(
                backend="tilting", gamma=gamma, psi=IDENTITY_PLUS_INTERCEPT)
    return ratios


def _outcome_of(fn):
    """Run fn; a raised error is itself an outcome the two paths must share."""
    try:
        return fn()
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def _in_memory_algorithm2(sites, target, ratios, psi_om, flavor, F, rng, weights):
    """decoupled_aipw on the pooled scores protocol two assembles from ratios,
    over the folds of crossfit_split(sites, F, rng)."""
    sites = sorted(sites, key=lambda s: s.site_id)
    counts = {(s.site_id, z): int(np.sum(s.z_vec == z)) for s in sites for z in (0, 1)}
    table = score_table(sites, assemble_propensity(ratios, counts, sum(s.n for s in sites)))
    return decoupled_aipw(sites, target, table, psi_om, flavor=flavor, weights=weights,
                          fold_plan=crossfit_split(sites, F, rng))


def test_criterion_7_federated_equals_centralized_and_audits_clean():
    mismatches = 0
    for i in range(100):
        rng = np.random.default_rng((SEED, 7, i))
        sites, target = fuzz_dataset(rng, min_n=8, max_n=24)
        d = sites[0].d
        ratios = _fuzz_ratio_models(rng, sites, d)
        flavor = "clb" if i % 2 == 0 else "meta"
        F = 2 if i % 3 else 3
        rng.integers(2, 6)  # unused; dropping it would shift every later fuzz draw
        weights = ({s.site_id: float(rng.uniform(0.5, 2.0)) for s in sites}
                   if flavor == "meta" else None)
        kw = dict(psi_om=IDENTITY_PLUS_INTERCEPT, flavor=flavor, F=F, weights=weights)
        out_f = _outcome_of(lambda: run_algorithm2(
            sites, target, ratios, rng=np.random.default_rng((SEED, 70, i)), **kw)[0])
        out_c = _outcome_of(lambda: _in_memory_algorithm2(
            sites, target, ratios, rng=np.random.default_rng((SEED, 70, i)), **kw))
        if out_f != out_c:
            mismatches += 1
        table = score_table(sites, fuzz_scores(rng, sites, d))
        rep_a1, _ = run_algorithm1(sites, table)
        if rep_a1 != clb_ipw(sites, table):
            mismatches += 1

    violations = 0
    audited = 0
    i = 0
    while audited < 10_000:
        rng = np.random.default_rng((SEED, 71, i))
        sites, target = fuzz_dataset(rng, n_sites=int(rng.integers(1, 4)),
                                     min_n=6, max_n=12)
        d = sites[0].d
        try:
            if i % 10 < 9:
                table = score_table(sites, fuzz_scores(rng, sites, d))
                _, log = run_algorithm1(sites, table)
            else:
                ratios = _fuzz_ratio_models(rng, sites, d)
                _, log = run_algorithm2(
                    sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                    F=2, rng=np.random.default_rng((SEED, 72, i)))
        except (ValueError, OverlapError, AllSitesExcludedError):
            # an arm can be empty in a tiny fuzz fold; no transcript to audit
            i += 1
            continue
        violations += len(audit_messages(log))
        audited += 1
        i += 1

    ok = mismatches == 0 and violations == 0
    record_criterion(7, "message protocol reproduces in-memory results bitwise "
                        "and transcripts stay aggregate-only", ok,
                     f"mismatches:{mismatches}/200 audit_violations:{violations}/{audited}")
    assert ok


def test_criterion_8_shared_score_constant_is_irrelevant():
    worst = 0.0
    compared = 0
    attempt = 0
    while compared < 100:
        tag = attempt
        attempt += 1
        rng = np.random.default_rng((SEED, 8, tag))
        sites, target = fuzz_dataset(rng, min_n=10, max_n=30)
        d = sites[0].d
        p = fuzz_scores(rng, sites, d)
        c = float(10.0 ** rng.uniform(-3.0, 3.0))
        tp, tps = score_table(sites, p), score_table(sites, p.scaled(c))
        runs = [
            lambda q: meta_ipw(sites, q),
            lambda q: clb_ipw(sites, q),
            lambda q, t=tag: decoupled_aipw(
                sites, target, q, psi_om=IDENTITY_PLUS_INTERCEPT, flavor="clb",
                rng=np.random.default_rng((SEED, 80, t))),
            lambda q, t=tag: decoupled_aipw(
                sites, target, q, psi_om=IDENTITY_PLUS_INTERCEPT, flavor="meta",
                rng=np.random.default_rng((SEED, 80, t))),
        ]
        try:
            pairs = [(fn(tp), fn(tps)) for fn in runs]
        except (ValueError, OverlapError):
            continue  # a fold lost an arm; draw a fresh dataset
        for a, b in pairs:
            for va, vb in ((a.tau_hat, b.tau_hat), (a.var_hat, b.var_hat)):
                denom = max(abs(va), abs(vb), 1e-300)
                worst = max(worst, abs(va - vb) / denom)
        compared += 1
    ok = worst <= 1e-10
    record_criterion(8, "rescaling every selection score by one constant in "
                        "[1e-3, 1e3] leaves estimates unchanged", ok,
                     f"worst_rel_change:{worst:.2e} datasets:{compared}")
    assert ok, worst


def test_criterion_9_density_ratio_oracles():
    m = fit_tilting([[0.0], [0.0], [1.0]], [[0.0], [1.0], [1.0]], psi=IDENTITY)
    err_a = abs(m.gamma[0] - math.log(2.0))
    m2 = fit_tilting([[0.0], [0.0], [0.0], [1.0]], [[0.0], [1.0], [1.0], [1.0]],
                     psi=IDENTITY_PLUS_INTERCEPT)
    err_b = max(abs(m2.gamma[0] + math.log(3.0)), abs(m2.gamma[1] - math.log(9.0)))
    ok_tilt = err_a < 1e-6 and err_b < 1e-6

    rng = np.random.default_rng((SEED, 9))
    knn_mismatches = 0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        n_s = int(rng.integers(2, 31))
        n_t = int(rng.integers(1, 31))
        src = rng.normal(size=(n_s, d))
        tgt = rng.normal(size=(n_t, d))
        if rng.random() < 0.3:
            tgt[0] = src[0]
        M = int(rng.integers(1, min(5, n_s) + 1))
        x = src[0] if rng.random() < 0.3 else rng.normal(size=d)
        got = fit_knn(src, tgt, M=M).eval(np.atleast_2d(x))[0]
        if got != brute_knn_ratio(src, tgt, M, x):
            knn_mismatches += 1
    ok_knn = knn_mismatches == 0

    mu_s, mu_t, sigma = np.full(3, 1.0), np.full(3, -0.1), 2.0
    meds = {}
    for n in (250, 4000):
        r = np.random.default_rng((SEED, 90, n))
        src = r.normal(mu_s, sigma, size=(n, 3))
        tgt = r.normal(mu_t, sigma, size=(n, 3))
        probes = r.normal(mu_t, sigma, size=(200, 3))
        model = fit_knn(src, tgt)
        est = model.eval(probes)
        truth = np.array([oracle_gaussian_ratio(mu_s, mu_t, sigma, x) for x in probes])
        meds[n] = float(np.median(np.abs(est - truth)))
    ok_trend = meds[4000] < meds[250]

    ok = ok_tilt and ok_knn and ok_trend
    record_criterion(9, "ratio estimators match hand-solved and brute-force "
                        "oracles; matching error shrinks with n", ok,
                     f"tilt_err:{max(err_a, err_b):.1e} knn_mismatch:{knn_mismatches} "
                     f"med250:{meds[250]:.3f} med4000:{meds[4000]:.3f}")
    assert ok


def _ht_estimate(sites, oracle, n_true: int) -> float:
    tot1 = tot0 = 0.0
    table = score_table(sites, oracle)
    for s in sites:
        z, y = s.z_vec, s.y_vec
        pooled = table.pooled(s.site_id)
        m1, m0 = z == 1, z == 0
        tot1 += float(np.sum(y[m1] / pooled[m1]))
        tot0 += float(np.sum(y[m0] / pooled[m0]))
    return tot1 / n_true - tot0 / n_true


def test_criterion_10_self_normalized_tracks_true_size_weighting():
    gaps = {500: [], 8000: []}
    for s in range(50):
        for n in gaps:
            sites, _, dropped, oracle = draw_smooth_two_site(n, seed=(SEED, 10, s, n))
            hajek = clb_ipw(sites, score_table(sites, oracle)).tau_hat
            ht = _ht_estimate(sites, oracle, n_true=sum(t.n for t in sites) + dropped)
            gaps[n].append(abs(hajek - ht))
    med_small, med_big = np.median(gaps[500]), np.median(gaps[8000])
    ok = med_big < med_small
    record_criterion(10, "gap between self-normalized and true-size-normalized "
                         "weighting shrinks with sample size", ok,
                     f"median@500:{med_small:.4f} median@8000:{med_big:.4f}")
    assert ok
