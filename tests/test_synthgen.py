"""Synthetic generators: mean placement, covariate shift, selection routing,
the wrong-model feature transform, and overlap checks."""
import numpy as np
import pytest
from scipy import stats

from fedcause import (
    PropensitySet,
    ShiftConfig,
    SiteDataset,
    gen_covariate_shift,
    misspecify_features,
    place_site_means,
    score_table,
)
from fedcause.synthgen import SelectConfig, check_overlap, gen_sampling_selecting
from conftest import draw_smooth_two_site, smooth_two_site_config


def test_place_means_zero_heterogeneity_collapses():
    rng = np.random.default_rng(0)
    mus = place_site_means(0.0, 3, 2.0, -0.1, rng)
    assert np.array_equal(mus, np.full(3, -0.1))


def test_place_means_single_site_closed_form():
    # (mu + 0.1)^2 / (2 * 4) = 0.5 has roots 1.9 and -2.1
    for seed in range(20):
        mu = place_site_means(0.5, 1, 2.0, -0.1, np.random.default_rng(seed))[0]
        assert min(abs(mu - 1.9), abs(mu + 2.1)) < 1e-12


def test_place_means_constraint_and_sign_flip():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d_kl = float(rng.uniform(0.01, 5.0))
        K = int(rng.integers(1, 6))
        sigma = float(rng.uniform(0.5, 3.0))
        mu_t = float(rng.normal())
        mus = place_site_means(d_kl, K, sigma, mu_t, rng)
        total = np.sum((mus - mu_t) ** 2) / (2.0 * sigma ** 2)
        assert abs(total - d_kl) < 1e-12
        assert np.sum(mus - mu_t < 0) == 1


def test_place_means_rejects_bad_args():
    with pytest.raises(ValueError):
        place_site_means(1.0, 0, 2.0, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        place_site_means(-1.0, 3, 2.0, 0.0, np.random.default_rng(0))


def test_shift_defaults_true_tau():
    sites, target, true_tau = gen_covariate_shift(ShiftConfig(), np.random.default_rng(0))
    assert true_tau == pytest.approx(-0.25, abs=1e-15)
    assert [s.site_id for s in sites] == [1, 2, 3]
    assert [s.n for s in sites] == [1000, 2000, 3000]
    assert target.n == 10000 and target.d == 3


def test_shift_outcomes_exactly_linear():
    cfg = ShiftConfig(site_sizes=(200, 200, 200), n_target=100)
    sites, _, _ = gen_covariate_shift(cfg, np.random.default_rng(3))
    b1 = np.asarray(cfg.beta1)
    b0 = np.asarray(cfg.beta0)
    for s in sites:
        pred = np.where(s.z_vec == 1, s.x_matrix @ b1, s.x_matrix @ b0)
        assert np.max(np.abs(s.y_vec - pred)) < 1e-10


def test_shift_noise_knob():
    cfg = ShiftConfig(site_sizes=(500, 500, 500), n_target=100, noise_sd=0.7)
    sites, _, _ = gen_covariate_shift(cfg, np.random.default_rng(4))
    b1, b0 = np.asarray(cfg.beta1), np.asarray(cfg.beta0)
    resid = np.concatenate([
        s.y_vec - np.where(s.z_vec == 1, s.x_matrix @ b1, s.x_matrix @ b0)
        for s in sites])
    assert 0.5 < np.std(resid) < 0.9


def test_shift_zero_heterogeneity_matches_target_distribution():
    cfg = ShiftConfig(d_kl=0.0)
    sites, target, _ = gen_covariate_shift(cfg, np.random.default_rng(11))
    p = stats.ks_2samp(sites[0].x_matrix[:, 0], target.xs[:, 0]).pvalue
    assert p > 0.01


def test_shift_respects_explicit_means():
    cfg = ShiftConfig(site_sizes=(4000, 4000, 4000), n_target=100)
    means = np.array([1.5, -0.1, -2.0])
    sites, _, _ = gen_covariate_shift(cfg, np.random.default_rng(5), means=means)
    for s, mu in zip(sites, means):
        se = cfg.sigma / np.sqrt(s.n)
        assert np.all(np.abs(s.x_matrix.mean(axis=0) - mu) < 5 * se)


def test_shift_treatment_follows_logistic_rule():
    cfg = ShiftConfig(site_sizes=(20000,), n_sites=1, n_target=100)
    sites, _, _ = gen_covariate_shift(cfg, np.random.default_rng(6))
    s = sites[0]
    lin = s.x_matrix @ np.asarray(cfg.prop_coef)
    p = 1.0 / (1.0 + np.exp(lin))
    # calibration in probability bins
    for lo in (0.1, 0.3, 0.5, 0.7):
        m = (p >= lo) & (p < lo + 0.2)
        if np.sum(m) > 200:
            assert abs(np.mean(s.z_vec[m]) - np.mean(p[m])) < 4 / np.sqrt(np.sum(m))


def test_sampling_selecting_shares_and_drops():
    sites, target, dropped, _ = draw_smooth_two_site(100_000, seed=9)
    n = 100_000
    # drop share is the constant 0.55
    sd = np.sqrt(0.55 * 0.45 / n)
    assert abs(dropped / n - 0.55) < 4 * sd
    # site shares integrate the selection functions: 0.30 and 0.15
    for sid, share in ((1, 0.30), (2, 0.15)):
        got = next(s.n for s in sites if s.site_id == sid) / n
        assert abs(got - share) < 4 * np.sqrt(share * (1 - share) / n)


def test_sampling_selecting_outcomes_match_realized_arm():
    sites, _, _, _ = draw_smooth_two_site(5000, seed=10)
    for s in sites:
        x, z, y = s.x_matrix, s.z_vec, s.y_vec
        y1 = 1.0 + 0.8 * x[:, 0] + 0.4 * x[:, 1]
        y0 = 0.3 * x[:, 0] - 0.2 * x[:, 1]
        assert np.allclose(y, np.where(z == 1, y1, y0), atol=1e-12)


def test_sampling_selecting_oracle_pooled_score_identity():
    cfg = smooth_two_site_config(1000)
    from conftest import SMOOTH_Y0, SMOOTH_Y1
    sites, target, _, oracle = gen_sampling_selecting(
        cfg, (SMOOTH_Y1, SMOOTH_Y0), np.random.default_rng(12))
    xs = target.xs[:50]
    # the probes as the treated units of one site
    probe_site = SiteDataset.from_arrays(1, xs, np.ones(len(xs), dtype=int), np.zeros(len(xs)))
    s1 = score_table([probe_site], oracle).pooled(1)
    direct = cfg.selection[(1, 1)](xs) + cfg.selection[(2, 1)](xs)
    assert np.allclose(s1, direct, atol=1e-15)


def test_sampling_selecting_probe_rejects_broken_config():
    cfg = smooth_two_site_config(100)
    selection = dict(cfg.selection)
    selection[(3, 1)] = lambda xs: np.full(len(xs), 0.2)
    bad = SelectConfig(n_total=100, selection=selection,
                       drop=cfg.drop, sampler=cfg.sampler, d=cfg.d)
    with pytest.raises(ValueError, match="sum to 1"):
        bad.probe_sum_to_one(np.random.default_rng(0))


def test_misspecify_feature_examples():
    assert np.allclose(misspecify_features(np.array([1.0, 2.0, 3.0])), [2.0, 4.0, 1.5])
    assert np.allclose(misspecify_features(np.array([0.0, 0.0, 5.0])), [0.0, 0.0, 5.0])
    assert np.allclose(misspecify_features(np.array([2.0, 3.0, 6.0])), [6.0, 9.0, 1.0])
    with pytest.raises(ValueError):
        misspecify_features(np.array([1.0, 2.0]))


def test_misspecify_batches_match_rowwise():
    rng = np.random.default_rng(13)
    xs = rng.normal(size=(40, 3))
    batch = misspecify_features(xs)
    rows = np.vstack([misspecify_features(x) for x in xs])
    assert np.array_equal(batch, rows)


def _const_set(value, n_sites):
    e = {(k, z): (lambda x, v=value: np.full(len(np.atleast_2d(x)), v))
         for k in range(1, n_sites + 1) for z in (0, 1)}
    return PropensitySet(e=e)


def test_check_overlap_constant_cases():
    probes = np.random.default_rng(14).normal(size=(50, 2))
    rep = check_overlap(_const_set(0.25, 2), probes, c=0.1)
    assert all(rep.individual_ok.values()) and rep.overall_ok
    rep = check_overlap(_const_set(0.25, 2), probes, c=0.5)
    assert not any(rep.individual_ok.values())
    # the pooled scores sum to 0.5 per arm, which still sits at the threshold
    assert not rep.overall_ok


def test_check_overlap_disjoint_sites():
    pos = lambda x: (np.atleast_2d(x)[:, 0] > 0).astype(float)
    e = {
        (1, 1): lambda x: 0.25 * pos(x),
        (1, 0): lambda x: 0.25 * pos(x),
        (2, 1): lambda x: 0.25 * (1.0 - pos(x)),
        (2, 0): lambda x: 0.25 * (1.0 - pos(x)),
    }
    p = PropensitySet(e=e)
    probes = np.random.default_rng(15).normal(size=(200, 2))
    rep = check_overlap(p, probes, c=0.1)
    assert rep.individual_ok == {1: False, 2: False}
    assert rep.overall_ok


def test_check_overlap_rejects_empty_probe():
    with pytest.raises(ValueError):
        check_overlap(_const_set(0.2, 1), np.zeros((0, 2)), c=0.1)
