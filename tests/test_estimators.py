"""Estimator algebra: per-site and pooled IPW, the decoupled AIPW combine,
variance plug-ins, intervals, and the invariances they must satisfy."""
import numpy as np
import pytest

from fedcause import (
    AipwInputs,
    AllSitesExcludedError,
    Excluded,
    MetaDeltas,
    OutcomeModel,
    OverlapError,
    PropensitySet,
    ShiftConfig,
    SiteAggregates,
    SiteDataset,
    TargetCovariates,
    aipw_combine,
    clb_combine,
    clb_ipw,
    clb_site_aggregates,
    decoupled_aipw,
    gen_covariate_shift,
    meta_combine,
    meta_ipw,
    oracle_shift_propensity,
    score_table,
)
from fedcause.density_ratio import IDENTITY, IDENTITY_PLUS_INTERCEPT, MISSPECIFIED, FeatureMap
from fedcause.estimators import (_aipw_fold_inputs, _clb_aggregate_arrays, _meta_deltas,
                                 gaussian_interval, meta_ipw_site)
from fedcause.nuisance import SCORE_FLOOR, crossfit_split, solve_outcome_blocks
from conftest import fuzz_dataset, fuzz_scores


def _const(v):
    return lambda x: np.full(len(np.atleast_2d(x)), v)


def _corrections(site, m1, m0, table, flavor):
    """One site's residualized IPW terms, as the cross-fit fold loop forms them."""
    x = site.x_matrix
    resid = np.where(site.z_vec == 1, site.y_vec - m1.predict(x), site.y_vec - m0.predict(x))
    if flavor == "clb":
        return _clb_aggregate_arrays(site, resid, table, None)
    return _meta_deltas(site, resid, table, None, False)


def _two_unit_site(site_id=1):
    return SiteDataset.from_arrays(site_id, np.array([[0.0], [1.0]]), [1, 0], [2.0, 1.0])


def _const_set(v, site_ids=(1,)):
    e = {(k, z): _const(v) for k in site_ids for z in (0, 1)}
    return PropensitySet(e=e)


def _own(site, e1, e0):
    """A score table of the site's own scores alone."""
    return score_table([site], PropensitySet(e={(site.site_id, 1): e1,
                                                (site.site_id, 0): e0}))


# -- per-site Meta-IPW --------------------------------------------------------


def test_meta_site_constant_scores():
    site = _two_unit_site()
    tau, var = meta_ipw_site(site, _own(site, _const(0.5), _const(0.5)))
    assert tau == pytest.approx(1.0)
    assert var >= 0.0


def test_meta_site_excludes_missing_arm():
    all_treated = SiteDataset.from_arrays(1, np.zeros((3, 1)), [1, 1, 1], [1.0, 2.0, 3.0])
    out = meta_ipw_site(all_treated, _own(all_treated, _const(0.5), _const(0.5)))
    assert isinstance(out, Excluded) and "no arm-0 units" in out.reason
    all_control = SiteDataset.from_arrays(1, np.zeros((3, 1)), [0, 0, 0], [1.0, 2.0, 3.0])
    out = meta_ipw_site(all_control, _own(all_control, _const(0.5), _const(0.5)))
    assert isinstance(out, Excluded) and "no arm-1 units" in out.reason


def test_meta_site_scale_invariant(rng):
    site = SiteDataset.from_arrays(
        1, rng.normal(size=(30, 2)), rng.integers(0, 2, size=30) | np.arange(30) % 2,
        rng.normal(size=30))
    e1 = lambda x: 0.2 + 0.1 / (1 + np.exp(-np.atleast_2d(x)[:, 0]))
    e0 = lambda x: 0.3 + 0.1 / (1 + np.exp(np.atleast_2d(x)[:, 0]))
    t1, v1 = meta_ipw_site(site, _own(site, e1, e0))
    t2, v2 = meta_ipw_site(site, _own(site, lambda x: 2 * e1(x), lambda x: 2 * e0(x)))
    assert t1 == pytest.approx(t2, rel=1e-12)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_meta_combine_equal_precision():
    rep = meta_combine({1: (1.0, 1.0), 2: (3.0, 1.0)})
    assert rep.tau_hat == pytest.approx(2.0)
    assert rep.var_hat == pytest.approx(0.5)
    assert rep.n_effective == 1


def test_meta_combine_drops_excluded():
    rep = meta_combine({1: (1.0, 1.0), 2: Excluded("no control units")})
    assert rep.tau_hat == pytest.approx(1.0)
    diag = {sid: row for sid, *row in rep.per_site_diagnostics}
    assert diag[2] == [False, "no control units"]
    assert diag[1][0] is True


def test_meta_combine_inverse_variance_weighting():
    rep = meta_combine({1: (0.0, 1.0), 2: (4.0, 3.0)})
    assert rep.tau_hat == pytest.approx(1.0)
    assert rep.var_hat == pytest.approx(0.75)


def test_meta_combine_fixed_weights():
    rep = meta_combine({1: (0.0, 1.0), 2: (4.0, 3.0)}, weights={1: 3.0, 2: 1.0})
    assert rep.tau_hat == pytest.approx(1.0)
    # eta-tilde = (0.75, 0.25): var = 0.5625 * 1 + 0.0625 * 3
    assert rep.var_hat == pytest.approx(0.75)


def test_meta_combine_all_excluded_raises():
    with pytest.raises(AllSitesExcludedError):
        meta_combine({1: Excluded("a"), 2: Excluded("b")})


# -- pooled CLB-IPW -----------------------------------------------------------


def test_clb_aggregates_worked_example():
    site = _two_unit_site()
    agg = clb_site_aggregates(site, score_table([site], _const_set(0.5)))
    assert (agg.G1, agg.N1, agg.G0, agg.N0) == (4.0, 2.0, 2.0, 2.0)
    assert agg.n_units == 2


def test_clb_aggregates_tolerate_missing_arm():
    treated_only = SiteDataset.from_arrays(1, np.zeros((2, 1)), [1, 1], [1.0, 3.0])
    agg = clb_site_aggregates(treated_only, score_table([treated_only], _const_set(0.5)))
    assert agg.G1 == pytest.approx(8.0) and agg.N1 == pytest.approx(4.0)
    assert (agg.G0, agg.N0) == (0.0, 0.0)


def test_clb_aggregates_scale_linearly():
    site = _two_unit_site()
    base = clb_site_aggregates(site, score_table([site], _const_set(0.5)))
    half = clb_site_aggregates(site, score_table([site], _const_set(0.5).scaled(2.0)))
    for f in ("G1", "N1", "G0", "N0"):
        assert getattr(half, f) == pytest.approx(getattr(base, f) / 2.0)


def test_clb_combine_worked_example():
    site = _two_unit_site()
    rep = clb_combine([clb_site_aggregates(site, score_table([site], _const_set(0.5)))])
    assert rep.tau_hat == pytest.approx(1.0)
    assert rep.n_effective == 2


def test_clb_combine_empty_arm_raises():
    control_only = SiteDataset.from_arrays(1, np.zeros((2, 1)), [0, 0], [1.0, 3.0])
    with pytest.raises(OverlapError):
        clb_combine([clb_site_aggregates(control_only,
                                         score_table([control_only], _const_set(0.5)))])


def test_clb_report_scale_invariant(rng):
    sites, _ = fuzz_dataset(rng, n_sites=3, d=2)
    p = fuzz_scores(rng, sites, 2)
    a = clb_ipw(sites, score_table(sites, p))
    b = clb_ipw(sites, score_table(sites, p.scaled(41.5)))
    assert a.tau_hat == pytest.approx(b.tau_hat, rel=1e-12)
    assert a.var_hat == pytest.approx(b.var_hat, rel=1e-12)


def test_clb_multi_site_matches_pooled_single_site(rng):
    sites, _ = fuzz_dataset(rng, n_sites=3, d=2, min_n=20, max_n=40)
    p = fuzz_scores(rng, sites, 2)
    multi = clb_ipw(sites, score_table(sites, p))

    # same units as one site, scored by the pooled across-site sums
    x = np.vstack([s.x_matrix for s in sites])
    z = np.concatenate([s.z_vec for s in sites])
    y = np.concatenate([s.y_vec for s in sites])
    merged = SiteDataset.from_arrays(1, x, z, y)
    pool = {z_: (lambda xs, z_=z_: sum(p.eval(s.site_id, z_, xs) for s in sites))
            for z_ in (0, 1)}
    p_merged = PropensitySet(e={(1, 1): pool[1], (1, 0): pool[0]})
    single = clb_ipw([merged], score_table([merged], p_merged))

    assert multi.tau_hat == pytest.approx(single.tau_hat, rel=1e-12, abs=1e-12)
    assert multi.var_hat == pytest.approx(single.var_hat, rel=1e-12)


# -- decoupled AIPW -----------------------------------------------------------


def test_corrections_vanish_with_perfect_models():
    cfg = ShiftConfig(site_sizes=(60, 60, 60), n_target=40, d_kl=0.5)
    rng = np.random.default_rng(7)
    sites, target, _ = gen_covariate_shift(cfg, rng)
    means = [0.4, -0.6, -0.1]
    p = score_table(sites, oracle_shift_propensity(cfg, means, sites))
    # regression designs always carry a constant column; true intercept is 0
    m1 = OutcomeModel(arm=1, psi=IDENTITY, theta=np.r_[0.0, cfg.beta1])
    m0 = OutcomeModel(arm=0, psi=IDENTITY, theta=np.r_[0.0, cfg.beta0])
    for s in sites:
        agg = _corrections(s, m1, m0, p, "clb")
        assert abs(agg.G1) < 1e-9 and abs(agg.G0) < 1e-9
        d = _corrections(s, m1, m0, p, "meta")
        assert abs(d.d1) < 1e-12 and abs(d.d0) < 1e-12


def test_corrections_with_zero_model_equal_ipw_terms():
    site = _two_unit_site()
    p = score_table([site], _const_set(0.5))
    m1 = OutcomeModel(arm=1, psi=IDENTITY, theta=np.zeros(2))
    m0 = OutcomeModel(arm=0, psi=IDENTITY, theta=np.zeros(2))
    agg = _corrections(site, m1, m0, p, "clb")
    raw = clb_site_aggregates(site, p)
    assert (agg.G1, agg.N1, agg.G0, agg.N0) == (raw.G1, raw.N1, raw.G0, raw.N0)
    d = _corrections(site, m1, m0, p, "meta")
    assert d.d1 == pytest.approx(2.0)  # Hajek mean of y over the treated unit
    assert d.d0 == pytest.approx(1.0)


def test_correction_single_unit_residual():
    site = SiteDataset.from_arrays(1, np.array([[3.0]]), [1], [2.0])
    p = score_table([site], _const_set(0.5))
    m1 = OutcomeModel(arm=1, psi=IDENTITY, theta=np.array([0.0, 0.5]))
    m0 = OutcomeModel(arm=0, psi=IDENTITY, theta=np.zeros(2))
    agg = _corrections(site, m1, m0, p, "clb")
    assert agg.G1 / agg.N1 == pytest.approx(0.5)


def test_aipw_combine_lambda_one_zero_residuals():
    # one fold, zero residual corrections: variance reduces to the target term
    silent = SiteAggregates(site_id=1, N1=25.0, N0=25.0)
    inputs = AipwInputs(target_mean_term=0.7, target_sq_term=2.3, n_target=50,
                        deltas={1: silent}, n_pooled=50, fold=0)
    rep = aipw_combine([inputs], flavor="clb")
    assert rep.tau_hat == pytest.approx(0.7)
    assert rep.var_hat == pytest.approx(2.3)
    assert rep.n_effective == 50


def test_aipw_combine_zero_models_reduces_to_clb():
    sites = [_two_unit_site(1), _two_unit_site(2)]
    p = score_table(sites, _const_set(0.5, site_ids=(1, 2)))
    m1 = OutcomeModel(arm=1, psi=IDENTITY, theta=np.zeros(2))
    m0 = OutcomeModel(arm=0, psi=IDENTITY, theta=np.zeros(2))
    deltas = {s.site_id: _corrections(s, m1, m0, p, "clb") for s in sites}
    inputs = AipwInputs(target_mean_term=0.0, target_sq_term=0.0, n_target=10,
                        deltas=deltas, n_pooled=4, fold=0)
    rep = aipw_combine([inputs], flavor="clb")
    ref = clb_combine([clb_site_aggregates(s, p) for s in sites])
    assert rep.tau_hat == ref.tau_hat


def test_aipw_meta_flavor_weighted_combine():
    site = _two_unit_site()
    d_a = _corrections(site, OutcomeModel(arm=1, psi=IDENTITY, theta=np.zeros(2)),
                       OutcomeModel(arm=0, psi=IDENTITY, theta=np.zeros(2)),
                       score_table([site], _const_set(0.5)), "meta")
    inputs = AipwInputs(target_mean_term=0.25, target_sq_term=0.0, n_target=8,
                        deltas={1: d_a}, n_pooled=4, fold=0)
    rep = aipw_combine([inputs], flavor="meta", weights={1: 1.0})
    assert rep.tau_hat == pytest.approx(0.25 + (2.0 - 1.0))


def test_aipw_combine_refuses_a_non_positive_count():
    # lambda_hat = n_target / n_pooled must be positive and finite
    silent = SiteAggregates(site_id=1, N1=2.0, N0=2.0)
    for n_target, n_pooled, message in ((0, 5, "empty target set"),
                                        (-1, 5, "empty target set"),
                                        (5, 0, "n_pooled must be positive"),
                                        (5, -2, "n_pooled must be positive")):
        inputs = AipwInputs(target_mean_term=0.0, target_sq_term=1.0, n_target=n_target,
                            deltas={1: silent}, n_pooled=n_pooled, fold=0)
        with pytest.raises(ValueError, match=message):
            aipw_combine([inputs])


def test_decoupled_aipw_exact_on_linear_outcomes():
    cfg = ShiftConfig(site_sizes=(80, 80, 80), n_target=400, d_kl=1.0)
    rng = np.random.default_rng(8)
    means = [1.2, -0.8, -0.1]
    sites, target, true_tau = gen_covariate_shift(cfg, rng, means=np.asarray(means))
    p = score_table(sites, oracle_shift_propensity(cfg, means, sites))
    rep = decoupled_aipw(sites, target, p, psi_om=IDENTITY, flavor="clb",
                         F=2, rng=np.random.default_rng(9))
    # noise-free linear outcomes are fit exactly, so only the target-mean
    # sampling error remains
    assert abs(rep.tau_hat - true_tau) < 0.5
    resid_like = rep.var_hat
    assert resid_like >= 0.0


def test_meta_weights_refuse_a_negative_and_give_a_missing_site_zero():
    # meta_combine and meta AIPW's corrections weigh sites by one rule
    with pytest.raises(ValueError, match="non-negative"):
        meta_combine({1: (0.0, 1.0), 2: (4.0, 3.0)}, weights={1: 1.0, 2: -1.0})
    rep = meta_combine({1: (0.0, 1.0), 2: (4.0, 3.0)}, weights={1: 2.0})
    assert rep == meta_combine({1: (0.0, 1.0), 2: (4.0, 3.0)}, weights={1: 2.0, 2: 0.0})
    assert (rep.tau_hat, rep.var_hat) == (0.0, 1.0)
    assert rep.per_site_diagnostics == [(1, True, "weight=1"), (2, True, "weight=0")]

    cfg = ShiftConfig(site_sizes=(40, 40, 40), n_target=50, d_kl=1.0)
    means = [0.5, -0.5, 0.0]
    sites, target, _ = gen_covariate_shift(cfg, np.random.default_rng(8),
                                           means=np.asarray(means))
    p = score_table(sites, oracle_shift_propensity(cfg, means, sites))

    def aipw(weights):
        return decoupled_aipw(sites, target, p, IDENTITY, flavor="meta", weights=weights,
                              rng=np.random.default_rng(3))

    with pytest.raises(ValueError, match="non-negative"):
        aipw({1: 1.0, 2: -1.0, 3: 2.0})
    assert aipw({1: 1.0, 3: 2.0}) == aipw({1: 1.0, 2: 0.0, 3: 2.0})


@pytest.mark.parametrize("flavor", ["clb", "meta"])
def test_decoupled_aipw_needs_two_target_rows(monkeypatch, flavor):
    import fedcause.estimators as estimators
    cfg = ShiftConfig(site_sizes=(40, 40, 40), n_target=50, d_kl=1.0)
    means = [0.5, -0.5, 0.0]
    sites, target, _ = gen_covariate_shift(cfg, np.random.default_rng(8),
                                           means=np.asarray(means))
    p = score_table(sites, oracle_shift_propensity(cfg, means, sites))

    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained before the target check")

    monkeypatch.setattr(estimators, "fit_outcome_direct", no_training)
    with pytest.raises(ValueError, match="needs at least 2 target rows"):
        decoupled_aipw(sites, TargetCovariates(target.xs[:1]), p, psi_om=IDENTITY,
                       flavor=flavor, F=2, rng=np.random.default_rng(9))


def test_confidence_interval_quantiles():
    lo, hi = gaussian_interval(0.0, 1.0, 1.0, 0.95)
    assert lo == pytest.approx(-1.959964, abs=1e-6)
    assert hi == pytest.approx(1.959964, abs=1e-6)
    lo, hi = gaussian_interval(0.0, 1.0, 1.0, 0.5)
    assert hi == pytest.approx(0.674490, abs=1e-6)
    assert gaussian_interval(0.3, 0.0, 5.0, 0.95) == (0.3, 0.3)
    for level in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"ci_level must lie in \(0, 1\)"):
            gaussian_interval(0.0, 1.0, 1.0, level)


def test_estimator_reports_scale_invariant_fuzz():
    rng = np.random.default_rng(55)
    for _ in range(20):
        sites, target = fuzz_dataset(rng)
        d = sites[0].d
        p = fuzz_scores(rng, sites, d)
        c = float(10.0 ** rng.uniform(-3, 3))
        for fn in (lambda q: meta_ipw(sites, q), lambda q: clb_ipw(sites, q)):
            a, b = fn(score_table(sites, p)), fn(score_table(sites, p.scaled(c)))
            assert a.tau_hat == pytest.approx(b.tau_hat, rel=1e-12, abs=1e-12)
            assert a.var_hat == pytest.approx(b.var_hat, rel=1e-12, abs=1e-12)


# -- the per-site frame: one derivation of each per-unit quantity -------------


def _frame_case():
    """Three sites on d = 3. Every score vanishes where x1 > 5 and falls
    below the floor where x1 < -5, which only three units of site 2 each
    reach: their pooled scores are floored, the zero ones are left out of
    the outcome fit and exclude site 2 from the Meta terms of their folds.
    Site 3 has no control units, so no arm-0 model."""
    rng = np.random.default_rng(58)
    sites = []
    for k, n in ((1, 40), (2, 36), (3, 30)):
        x = rng.normal(0.3 * k, 1.0, size=(n, 3))
        if k == 2:
            x[:3, 1], x[3:6, 1] = 10.0, -10.0
        z = np.ones(n, dtype=int) if k == 3 else (np.arange(n) % 2 == 0).astype(int)
        y = x @ np.array([0.5, -0.3, 0.8]) + z + rng.normal(size=n)
        sites.append(SiteDataset.from_arrays(k, x, z, y))
    target = TargetCovariates(rng.normal(0.5, 1.0, size=(50, 3)))

    def score(a, b):
        def fn(x):
            x = np.atleast_2d(x)
            v = b / (1.0 + np.exp(-0.1 * x @ a))
            return np.where(x[:, 1] > 5.0, 0.0, np.where(x[:, 1] < -5.0, 1e-14, v))
        return fn

    e = {(k, z): score(rng.normal(0.0, 0.5, size=3), rng.uniform(0.1, 0.4))
         for k in (1, 2, 3) for z in (0, 1) if (k, z) != (3, 0)}
    p = PropensitySet(e=e)
    return sites, target, score_table(sites, p), p


def _own_scores(p, site):
    """The site's own score at each unit's arm, evaluated on each arm's rows
    as score_table evaluates them."""
    own = np.zeros(site.n)
    for arm in (1, 0):
        rows = (site.z_vec == arm).nonzero()[0]
        own[rows] = p.eval(site.site_id, arm, site.x_matrix.take(rows, axis=0))
    return own


def _ref_clb(site, v, pooled, keep):
    """_clb_aggregate_arrays as masks and one np.sum per sum."""
    agg = SiteAggregates(site_id=site.site_id)
    for arm in (1, 0):
        mask = (site.z_vec == arm) & keep
        if not np.any(mask):
            continue
        s = pooled[mask]
        agg.n_floored += int(np.sum(s < SCORE_FLOOR))
        w = 1.0 / np.maximum(s, SCORE_FLOOR)
        va = v[mask]
        sums = (float(np.sum(w * va)), float(np.sum(w)), float(np.sum(w * w)),
                float(np.sum(w * w * va)), float(np.sum(w * w * va * va)))
        names = ("G1", "N1", "w2_1", "w2y_1", "w2y2_1") if arm else (
            "G0", "N0", "w2_0", "w2y_0", "w2y2_0")
        for name, value in zip(names, sums):
            setattr(agg, name, value)
        agg.n_units += int(np.sum(mask))
    return agg


def _ref_meta(site, v, own, keep, centred):
    """Per arm (n_hat, mean, square sum) under own-score weights, or the
    exclusion reason, as masks and one np.sum per sum."""
    out = {}
    for arm in (1, 0):
        mask = (site.z_vec == arm) & keep
        if not np.any(mask):
            return f"no arm-{arm} units"
        s = own[mask]
        if np.any(s <= 0.0):
            return f"non-positive arm-{arm} score"
        w = 1.0 / s
        n_hat = float(np.sum(w))
        mean = float(np.sum(w * v[mask])) / n_hat
        centre = mean if centred else 0.0
        out[arm] = (n_hat, mean, float(np.sum((w * (v[mask] - centre)) ** 2)))
    return out


def _ref_block(site, pooled, psi, arm, include):
    mask = (site.z_vec == arm) & include & (pooled > 0.0)
    design = psi.design(site.x_matrix[mask])
    dw = design * (1.0 / np.maximum(pooled[mask], SCORE_FLOOR))[:, None]
    gram = dw.T @ design
    return gram[np.triu_indices(len(gram))], dw.T @ site.y_vec[mask]


@pytest.mark.parametrize("psi", [IDENTITY_PLUS_INTERCEPT, MISSPECIFIED],
                         ids=["linear", "misspecified"])
def test_frame_sums_are_bitwise_the_masked_sums(psi):
    sites, target, table, p = _frame_case()
    pooled = {s.site_id: table.pooled(s.site_id) for s in sites}
    own = {s.site_id: _own_scores(p, s) for s in sites}
    every = {s.site_id: np.ones(s.n, dtype=bool) for s in sites}
    # site 2 has zero pooled scores and positive ones below the floor
    assert np.any(pooled[2] == 0.0) and np.any((pooled[2] > 0.0) & (pooled[2] < SCORE_FLOOR))

    # IPW: pooled aggregates and the per-site Meta contrast
    for s in sites:
        got = clb_site_aggregates(s, table)
        assert repr(got) == repr(_ref_clb(s, s.y_vec, pooled[s.site_id], every[s.site_id]))
        ref = _ref_meta(s, s.y_vec, own[s.site_id], every[s.site_id], True)
        res = meta_ipw_site(s, table)
        if s.site_id == 3:
            assert res == Excluded("missing arm score model")
        elif isinstance(ref, str):
            assert isinstance(res, Excluded)
        else:
            (n1, mu1, v1), (n0, mu0, v0) = ref[1], ref[0]
            assert res == (mu1 - mu0, v1 / n1 ** 2 + v0 / n0 ** 2)

    # decoupled AIPW over three folds, both flavours from one pass
    plan = crossfit_split(sites, 3, np.random.default_rng(2))
    inputs = _aipw_fold_inputs(sites, target, table, psi, ("clb", "meta"), plan)
    excluded = 0
    for f in range(3):
        train = {s.site_id: plan.train_mask(s.site_id, f) for s in sites}
        m1, m0 = (solve_outcome_blocks(
            [_ref_block(s, pooled[s.site_id], psi, arm, train[s.site_id]) for s in sites],
            arm, psi) for arm in (1, 0))
        diff = psi.design(target.xs) @ m1.theta - psi.design(target.xs) @ m0.theta
        for fl in ("clb", "meta"):
            assert inputs[fl][f].target_mean_term == float(np.mean(diff))
            assert inputs[fl][f].target_sq_term == float(np.var(diff, ddof=1))
        for s in sites:
            d = psi.design(s.x_matrix)
            resid = np.where(s.z_vec == 1, s.y_vec - d @ m1.theta, s.y_vec - d @ m0.theta)
            keep = plan.eval_mask(s.site_id, f)
            clb = _ref_clb(s, resid, pooled[s.site_id], keep)
            assert repr(inputs["clb"][f].deltas[s.site_id]) == repr(clb)
            got = inputs["meta"][f].deltas[s.site_id]
            ref = _ref_meta(s, resid, own[s.site_id], keep, False)
            if s.site_id == 3:
                assert got == Excluded("missing arm score model")
            elif isinstance(ref, str):
                assert got == Excluded(ref)
                excluded += 1
            else:
                (n1, d1, s1), (n0, d0, s0) = ref[1], ref[0]
                assert repr(got) == repr(MetaDeltas(
                    site_id=s.site_id, d1=d1, d0=d0, n1_hat=n1, n0_hat=n0, s2_1=s1, s2_0=s0,
                    n_units=int(np.sum(keep))))
    # site 2's zero scores exclude it from the Meta corrections of some fold
    assert excluded


@pytest.mark.parametrize("F", [2, 3])
@pytest.mark.parametrize("flavors", [("clb",), ("meta",), ("clb", "meta")])
def test_one_fold_pass_builds_each_design_once(monkeypatch, F, flavors):
    sites, target, table, _ = _frame_case()
    calls = []
    real = FeatureMap.design

    def counted(self, x):
        calls.append(len(x))
        return real(self, x)

    monkeypatch.setattr(FeatureMap, "design", counted)
    plan = crossfit_split(sites, F, np.random.default_rng(3))
    _aipw_fold_inputs(sites, target, table, MISSPECIFIED, flavors, plan)
    assert sorted(calls) == sorted([target.n] + [s.n for s in sites])
    # a second pass on the same table reuses the sites' designs
    calls.clear()
    _aipw_fold_inputs(sites, target, table, MISSPECIFIED, flavors, plan)
    assert calls == [target.n]
