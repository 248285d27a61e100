"""Estimator algebra: per-site and pooled IPW, the decoupled AIPW combine,
variance plug-ins, intervals, and the invariances they must satisfy."""
import numpy as np
import pytest

from fedcause import (
    AipwInputs,
    AllSitesExcludedError,
    Excluded,
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
    zero_outcome_model,
)
from fedcause.density_ratio import IDENTITY
from fedcause.estimators import (_aipw_residuals, _aipw_site_terms, gaussian_interval,
                                 meta_ipw_site)
from conftest import fuzz_dataset, fuzz_scores


def _const(v):
    return lambda x: np.full(len(np.atleast_2d(x)), v)


def _corrections(site, m1, m0, table, flavor):
    """One site's residualized IPW terms, as the cross-fit fold loop forms them."""
    return _aipw_site_terms(site, _aipw_residuals(site, m1, m0), table, flavor, None)


def _two_unit_site(site_id=1):
    return SiteDataset.from_arrays(site_id, np.array([[0.0], [1.0]]), [1, 0], [2.0, 1.0])


def _const_set(v, site_ids=(1,)):
    e = {(k, z): _const(v) for k in site_ids for z in (0, 1)}
    return PropensitySet(e=e)


def _own(site, e1, e0):
    """The site's own scores at each unit's arm, read from a score table."""
    table = score_table([site], PropensitySet(e={(site.site_id, 1): e1,
                                                 (site.site_id, 0): e0}))
    return table.own(site.site_id)


# -- per-site Meta-IPW --------------------------------------------------------


def test_meta_site_constant_scores():
    site = _two_unit_site()
    tau, var = meta_ipw_site(site, _own(site, _const(0.5), _const(0.5)))
    assert tau == pytest.approx(1.0)
    assert var >= 0.0


def test_meta_site_excludes_missing_arm():
    all_treated = SiteDataset.from_arrays(1, np.zeros((3, 1)), [1, 1, 1], [1.0, 2.0, 3.0])
    out = meta_ipw_site(all_treated, _own(all_treated, _const(0.5), _const(0.5)))
    assert isinstance(out, Excluded) and "no control units" in out.reason
    all_control = SiteDataset.from_arrays(1, np.zeros((3, 1)), [0, 0, 0], [1.0, 2.0, 3.0])
    out = meta_ipw_site(all_control, _own(all_control, _const(0.5), _const(0.5)))
    assert isinstance(out, Excluded) and "no treated units" in out.reason


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
    rep = meta_combine({1: (0.0, 1.0), 2: (4.0, 3.0)}, mode=("fixed", {1: 3.0, 2: 1.0}))
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
    p = score_table(sites, oracle_shift_propensity(cfg, means))
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
    m1 = zero_outcome_model(1, IDENTITY, d=1)
    m0 = zero_outcome_model(0, IDENTITY, d=1)
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
    m0 = zero_outcome_model(0, IDENTITY, d=1)
    agg = _corrections(site, m1, m0, p, "clb")
    assert agg.G1 / agg.N1 == pytest.approx(0.5)


def test_aipw_combine_lambda_one_zero_residuals():
    # one fold, zero residual corrections: variance reduces to the target term
    silent = SiteAggregates(site_id=1, N1=25.0, N0=25.0)
    inputs = AipwInputs(target_mean_term=0.7, target_sq_term=2.3, n_target=50,
                        deltas=[silent], lambda_hat=1.0, n_pooled=50, fold=0)
    rep = aipw_combine([inputs], flavor="clb")
    assert rep.tau_hat == pytest.approx(0.7)
    assert rep.var_hat == pytest.approx(2.3)
    assert rep.n_effective == 50


def test_aipw_combine_zero_models_reduces_to_clb():
    sites = [_two_unit_site(1), _two_unit_site(2)]
    p = score_table(sites, _const_set(0.5, site_ids=(1, 2)))
    m1 = zero_outcome_model(1, IDENTITY, d=1)
    m0 = zero_outcome_model(0, IDENTITY, d=1)
    deltas = [_corrections(s, m1, m0, p, "clb") for s in sites]
    inputs = AipwInputs(target_mean_term=0.0, target_sq_term=0.0, n_target=10,
                        deltas=deltas, lambda_hat=10 / 4, n_pooled=4, fold=0)
    rep = aipw_combine([inputs], flavor="clb")
    ref = clb_combine([clb_site_aggregates(s, p) for s in sites])
    assert rep.tau_hat == ref.tau_hat


def test_aipw_meta_flavor_weighted_combine():
    site = _two_unit_site()
    d_a = _corrections(site, zero_outcome_model(1, IDENTITY, 1),
                       zero_outcome_model(0, IDENTITY, 1),
                       score_table([site], _const_set(0.5)), "meta")
    inputs = AipwInputs(target_mean_term=0.25, target_sq_term=0.0, n_target=8,
                        deltas=[d_a], lambda_hat=2.0, n_pooled=4, fold=0)
    rep = aipw_combine([inputs], flavor="meta", weights={1: 1.0})
    assert rep.tau_hat == pytest.approx(0.25 + (2.0 - 1.0))


def test_aipw_inputs_validate_lambda():
    with pytest.raises(ValueError):
        AipwInputs(target_mean_term=0.0, target_sq_term=0.0, n_target=5,
                   deltas=[], lambda_hat=0.0, n_pooled=5, fold=0)


def test_decoupled_aipw_exact_on_linear_outcomes():
    cfg = ShiftConfig(site_sizes=(80, 80, 80), n_target=400, d_kl=1.0)
    rng = np.random.default_rng(8)
    means = [1.2, -0.8, -0.1]
    sites, target, true_tau = gen_covariate_shift(cfg, rng, means=np.asarray(means))
    p = score_table(sites, oracle_shift_propensity(cfg, means))
    rep = decoupled_aipw(sites, target, p, psi_om=IDENTITY, flavor="clb",
                         F=2, rng=np.random.default_rng(9))
    # noise-free linear outcomes are fit exactly, so only the target-mean
    # sampling error remains
    assert abs(rep.tau_hat - true_tau) < 0.5
    resid_like = rep.var_hat
    assert resid_like >= 0.0


@pytest.mark.parametrize("flavor", ["clb", "meta"])
def test_decoupled_aipw_needs_two_target_rows(monkeypatch, flavor):
    import fedcause.estimators as estimators
    cfg = ShiftConfig(site_sizes=(40, 40, 40), n_target=50, d_kl=1.0)
    means = [0.5, -0.5, 0.0]
    sites, target, _ = gen_covariate_shift(cfg, np.random.default_rng(8),
                                           means=np.asarray(means))
    p = score_table(sites, oracle_shift_propensity(cfg, means))

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
