"""Monte Carlo harness: cell statistics, CSV layout, and determinism."""
import dataclasses
import hashlib

import numpy as np
import pytest

from fedcause import (ShiftConfig, SweepSpec, TiltingError, ci_grid,
                      gen_covariate_shift, oracle_shift_propensity,
                      place_site_means, run_monte_carlo, sweep_kl)
from fedcause import (decoupled_aipw, density_ratio, estimators, harness,
                      nuisance)
from fedcause.density_ratio import (IDENTITY_PLUS_INTERCEPT,
                                    oracle_gaussian_ratio)
from fedcause.harness import CI_GRID_COLUMNS, SWEEP_COLUMNS, _build_scores


def _tiny_spec(**kw) -> SweepSpec:
    base = dict(
        d_kl_grid=(0.0, 1.0),
        replications=3,
        placements=2,
        estimators=("meta_ipw", "clb_ipw", "meta_aipw", "clb_aipw"),
        nuisance_mode="oracle",
        meta_weight_mode="estimated",
        shift=ShiftConfig(site_sizes=(50, 60, 70), n_target=150),
    )
    base.update(kw)
    return SweepSpec(**base)


def test_monte_carlo_smoke_and_decomposition():
    res = run_monte_carlo(_tiny_spec(), seed=5)
    assert set(res.cells) == {(d, e) for d in (0.0, 1.0)
                              for e in _tiny_spec().estimators}
    for cell in res.cells.values():
        assert cell.n_reps == 3
        assert cell.n_fail == 0 and not cell.aborted
        assert 0.0 <= cell.coverage <= 1.0
        assert np.isfinite(cell.mse)
        assert abs(cell.mse - (cell.bias ** 2 + cell.var)) <= 1e-10 * max(1.0, cell.mse)


def test_monte_carlo_is_deterministic():
    a = run_monte_carlo(_tiny_spec(), seed=9)
    b = run_monte_carlo(_tiny_spec(), seed=9)
    assert a.cells == b.cells
    c = run_monte_carlo(_tiny_spec(), seed=10)
    assert a.cells != c.cells


def test_parallel_reduction_matches_serial():
    spec = _tiny_spec(d_kl_grid=(1.0,), estimators=("clb_ipw", "clb_aipw"))
    a = run_monte_carlo(spec, seed=3, jobs=1)
    b = run_monte_carlo(spec, seed=3, jobs=2)
    assert a.cells == b.cells


def test_sweep_csv_layout(tmp_path):
    spec = _tiny_spec(d_kl_grid=(0.0, 0.5, 1.0))
    out = tmp_path / "sweep.csv"
    sweep_kl(spec, seed=4, out_path=out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 3 * 4  # grid points x estimators
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "meta_ipw"
    assert first[2] == "oracle" and first[3] == "correct" and first[4] == "correct"


def test_sweep_csv_bytes_are_reproducible(tmp_path):
    spec = _tiny_spec(d_kl_grid=(0.5,), estimators=("clb_ipw",))
    p1, p2, p3 = (tmp_path / f"s{i}.csv" for i in range(3))
    sweep_kl(spec, seed=11, out_path=p1)
    sweep_kl(spec, seed=11, out_path=p2)
    sweep_kl(spec, seed=11, out_path=p3, jobs=2)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_sweep_with_no_estimators_writes_header_only(tmp_path):
    spec = _tiny_spec(estimators=())
    out = tmp_path / "empty.csv"
    sweep_kl(spec, seed=1, out_path=out)
    assert out.read_text().splitlines() == [",".join(SWEEP_COLUMNS)]


def test_ci_grid_covers_specification_cells(tmp_path):
    spec = _tiny_spec(estimators=("clb_aipw",),
                      shift=ShiftConfig(site_sizes=(50, 60, 70), n_target=120))
    out = tmp_path / "ci.csv"
    cells = ci_grid(spec, seed=6, out_path=out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CI_GRID_COLUMNS)
    assert len(lines) == 1 + 4  # correct/wrong for each nuisance
    combos = {(r.split(",")[1], r.split(",")[2]) for r in lines[1:]}
    assert combos == {("correct", "correct"), ("correct", "wrong"),
                      ("wrong", "correct"), ("wrong", "wrong")}
    assert set(cells) == {("clb_aipw", ps, om)
                          for ps in ("correct", "wrong") for om in ("correct", "wrong")}


# a four-covariate design, which the misspecified map cannot read
SHIFT_D4 = ShiftConfig(site_sizes=(50, 60, 70), n_target=150, d=4,
                       prop_coef=(1.2, 0.3, -1.2, 0.5), beta1=(1.0,) * 4, beta0=(0.5,) * 4)


@pytest.mark.parametrize("ps,om", [("wrong", "correct"), ("correct", "wrong")])
def test_spec_refuses_a_wrong_map_on_a_design_it_cannot_read(ps, om):
    with pytest.raises(ValueError, match="needs shift.d = 3"):
        SweepSpec(nuisance_mode="tilting", ps_spec=ps, om_spec=om, shift=SHIFT_D4)
    SweepSpec(nuisance_mode="tilting", shift=SHIFT_D4)


def test_ci_grid_refuses_a_four_covariate_design_before_any_replication(monkeypatch,
                                                                        tmp_path):
    reps = []
    monkeypatch.setattr(harness, "_run_one_rep", lambda *a: reps.append(a))
    with pytest.raises(ValueError, match="needs shift.d = 3"):
        ci_grid(SweepSpec(replications=2, shift=SHIFT_D4), 0, tmp_path / "ci.csv")
    assert reps == [] and not (tmp_path / "ci.csv").exists()


def test_spec_json_round_trip():
    spec = _tiny_spec(nuisance_mode="tilting", ps_spec="wrong")
    back = SweepSpec.from_json_obj(spec.to_json_obj())
    assert back == spec
    assert dataclasses.asdict(back)["shift"]["site_sizes"] == (50, 60, 70)


@pytest.fixture(scope="module")
def large_fit():
    # both factors are log-linear in (1, x) under this design, so on a large
    # draw every fitted (site, arm) model sits close to the exact one
    shift = ShiftConfig(site_sizes=(4000, 8000, 12000), n_target=40000, d_kl=3.0)
    rng = np.random.default_rng(7)
    means = place_site_means(shift.d_kl, shift.n_sites, shift.sigma, shift.mu_target, rng)
    sites, target, _ = gen_covariate_shift(shift, rng, means=means)
    fitted, live, failed = _build_scores("tilting", sites, target)
    assert failed == {} and [s.site_id for s in live] == [s.site_id for s in sites]
    return fitted, oracle_shift_propensity(shift, means, sites), target


def test_factored_tilting_scores_track_the_oracle(large_fit):
    fitted, oracle, target = large_fit
    probes = target.xs[:5000]
    for k, z in sorted(oracle.e):
        log_ratio = np.log(fitted.eval(k, z, probes) / oracle.eval(k, z, probes))
        assert np.median(np.abs(log_ratio)) < 0.1, (k, z)


def test_factored_tilting_coefficients_track_the_oracle(large_fit):
    # coefficient by coefficient; the largest error on this draw is about 0.045
    fitted, oracle, _ = large_fit
    assert sorted(fitted.e) == sorted(oracle.e) == [(k, z) for k in (1, 2, 3) for z in (0, 1)]
    for pair, exact in oracle.e.items():
        score = fitted.e[pair]
        assert score.share == exact.share, pair
        assert score.ratio.backend == exact.ratio.backend == "factored"
        for name in ("gamma", "beta"):
            got, want = getattr(score.ratio, name), getattr(exact.ratio, name)
            assert got.shape == want.shape == (4,)
            assert np.max(np.abs(got - want)) < 0.1, (pair, name, got, want)


def test_failed_fit_is_counted_as_an_excision(monkeypatch, tmp_path):
    spec = _tiny_spec(d_kl_grid=(1.0,), nuisance_mode="tilting",
                      meta_weight_mode="vanilla")
    clean = run_monte_carlo(spec, seed=12)
    assert all(c.n_excised == 0 for c in clean.cells.values())

    real = nuisance.fit_logistic_ratio_blocks
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise TiltingError("forced", separated=True)
        return real(*args, **kwargs)

    monkeypatch.setattr(nuisance, "fit_logistic_ratio_blocks", fail_first)
    out = tmp_path / "sweep.csv"
    forced = sweep_kl(spec, seed=12, out_path=out)
    for est in spec.estimators:
        cell = forced.cells[(1.0, est)]
        assert cell.n_excised == 1 and cell.n_reps == 3
    assert out.read_text().splitlines()[0] == ",".join(SWEEP_COLUMNS)


SMALL = ShiftConfig(site_sizes=(60, 120, 180), n_target=600)

# sha256 of the sweep CSV for each nuisance mode on the small design, seed 42;
# a change to these bytes is a change to the estimates
SWEEP_SHA256 = {
    ("oracle", "correct"): "86fa360c8e88c3eaf3b513a8d28547c06f1b8fe67d8d0daa0eebdbf5f7cf7c87",
    ("oracle", "wrong"): "474ed079631fd597c70b41d57d3db97b15f3ab48c445bedd6070dba08ba7acea",
    ("tilting", "correct"): "4f5174015c83ae0551dd80b25630a8ddd1feb58602a4931971b4c35793341834",
    ("tilting", "wrong"): "9ad7f492dd00a235b8a01ea48f7f8c319c1f68048844425b5d9f31d0d82a5918",
    ("knn", "correct"): "9812d3216ab53c2bc3621c8937cdd97f4f6f213756ce2e3938b938096d6cd3ba",
    ("knn", "wrong"): "d4b32a00e99103c22c884836ed1de24da265b5e77efb4e3949e3730a57dd962e",
}


@pytest.mark.parametrize("mode,spec_kind", sorted(SWEEP_SHA256))
def test_small_sweep_csv_bytes_are_pinned(tmp_path, mode, spec_kind):
    spec = SweepSpec(d_kl_grid=(1.0, 3.0), replications=2, nuisance_mode=mode,
                     ps_spec=spec_kind, om_spec=spec_kind, shift=SMALL)
    out = tmp_path / "sweep.csv"
    sweep_kl(spec, seed=42, out_path=out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[(mode, spec_kind)]


# sha256 of the interval-quality grid's CSV with tilting scores on the small
# design, 10 replications at seed 42: the four (ps_spec, om_spec) cells share
# each replication's draw, so a grid that reuses it must keep these bytes
CI_GRID_SHA256 = "33ede66b6d4b4e3885151cf8edaffc1afc77f57c66265361ce6b661b3b5711a0"


def test_small_ci_grid_csv_bytes_are_pinned(tmp_path):
    spec = SweepSpec(replications=10, nuisance_mode="tilting", shift=SMALL)
    out = tmp_path / "ci.csv"
    ci_grid(spec, seed=42, out_path=out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CI_GRID_SHA256


# sha256 of the small tilting sweep's CSV (seed 42, oracle meta weights, 3
# folds), followed by each cell's mean interval half-width, which the CSV
# omits, when one site's fit is forced to fail: call 2 of the site ratio fits
# (site 2, first replication at d_kl 1) or call 5 of the arm fits (site 2,
# second replication at d_kl 1); that site drops out of every estimator
EXCISED_SWEEP_SHA256 = {
    "fit_logistic_ratio": "e8b542e4b8c4d1093da78aa41fbb799f887a44408a245c05ec8d9b7ac66eb202",
    "fit_logistic": "189dc9d344aba2f80a17071e109274600591720b118277ee1a97505a23f5725e",
}


# the name in nuisance through which each kind of fit is made, once per site;
# the keys, which name the site ratio fit and the arm fit, are the test ids
FIT_CALLS = {"fit_logistic_ratio": "fit_logistic_ratio_blocks",
             "fit_logistic": "fit_logistic_blocks"}


@pytest.mark.parametrize("target,call", [("fit_logistic_ratio", 2), ("fit_logistic", 5)])
def test_excised_site_sweep_csv_bytes_are_pinned(monkeypatch, tmp_path, target, call):
    real = getattr(nuisance, FIT_CALLS[target])
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise TiltingError("forced", separated=True)
        return real(*args, **kwargs)

    monkeypatch.setattr(nuisance, FIT_CALLS[target], fail_once)
    spec = SweepSpec(d_kl_grid=(1.0, 3.0), replications=2, nuisance_mode="tilting",
                     folds=3, shift=SMALL)
    out = tmp_path / "sweep.csv"
    res = sweep_kl(spec, seed=42, out_path=out)
    assert [res.cells[(d, "clb_ipw")].n_excised for d in (1.0, 3.0)] == [1, 0]
    widths = "".join(f"{c.mean_half_width!r}\n" for c in res.cells.values())
    digest = hashlib.sha256(out.read_bytes() + widths.encode()).hexdigest()
    assert digest == EXCISED_SWEEP_SHA256[target]


@pytest.mark.parametrize("spec_kind", ["correct", "wrong"])
def test_tilting_sweep_averages_under_five_newton_iterations_per_fit(monkeypatch, tmp_path,
                                                                     spec_kind):
    # every fit of a tilting sweep is logistic and starts from its
    # discriminant; from zero the same sweeps average 7.4 and 6.4 iterations
    real = density_ratio._newton_blocks
    iterations = []

    def counted(*args):
        try:
            out = real(*args)
        except TiltingError as err:
            iterations.append(err.iterations)
            raise
        iterations.append(out[2]["iterations"])
        return out

    monkeypatch.setattr(density_ratio, "_newton_blocks", counted)
    spec = SweepSpec(d_kl_grid=(1.0, 3.0), replications=4, nuisance_mode="tilting",
                     ps_spec=spec_kind, om_spec=spec_kind, shift=SMALL)
    sweep_kl(spec, seed=42, out_path=tmp_path / "sweep.csv")
    assert len(iterations) == 48
    assert np.mean(iterations) < 5.0


@pytest.mark.parametrize("mode", ["oracle", "tilting", "knn"])
def test_replication_evaluates_each_score_once_per_unit(monkeypatch, mode):
    # a score row is one unit under one site's model: score_table evaluates
    # an arm's ratio scores that share a feature map (or a knn target) in one
    # pass, and any other score through PropensitySet.eval
    real = harness._build_scores
    real_eval, real_ratios = nuisance.PropensitySet.eval, nuisance.eval_ratios
    rows = []
    failed = []

    def counted_eval(p, site_id, z, x):
        rows.append(len(np.atleast_2d(x)))
        return real_eval(p, site_id, z, x)

    def counted_ratios(models, x):
        rows.append(len(models) * len(np.atleast_2d(x)))
        return real_ratios(models, x)

    def counted(*args):
        p, live, site_failures = real(*args)
        failed.append(site_failures)
        return p, live, site_failures

    monkeypatch.setattr(harness, "_build_scores", counted)
    monkeypatch.setattr(nuisance.PropensitySet, "eval", counted_eval)
    monkeypatch.setattr(nuisance, "eval_ratios", counted_ratios)
    spec = SweepSpec(d_kl_grid=(1.0,), replications=1, nuisance_mode=mode,
                     meta_weight_mode="vanilla", shift=SMALL)
    out = harness._run_one_rep(spec, 42, 0, 0, (0.5, -0.5, 1.0), None)
    assert failed == [{}]
    assert all(res[0] != "fail" for res in out["results"].values())
    assert sum(rows) == sum(SMALL.site_sizes) * SMALL.n_sites


@pytest.mark.parametrize("spec_kind", ["correct", "wrong"])
def test_knn_replication_counts_target_neighbours_once_per_unit(monkeypatch, spec_kind):
    # each unit is probed by every site's model at its arm, and those models
    # share one target: its distances are computed for sum_k n_k probe rows,
    # not n_sites times that, in one eval_knn call per arm over all sites
    real, real_knn = density_ratio._sq_dists, density_ratio.eval_knn
    target_rows, knn_calls = [], []

    def counted(probes, lifted, *args):
        # lifted holds the points as (d, 2, n)
        if lifted.shape[2] == SMALL.n_target:
            target_rows.append(len(probes))
        return real(probes, lifted, *args)

    def counted_knn(models, x):
        knn_calls.append(len(models))
        return real_knn(models, x)

    monkeypatch.setattr(density_ratio, "_sq_dists", counted)
    monkeypatch.setattr(density_ratio, "eval_knn", counted_knn)
    spec = SweepSpec(d_kl_grid=(1.0,), replications=1, nuisance_mode="knn",
                     ps_spec=spec_kind, meta_weight_mode="vanilla", shift=SMALL)
    out = harness._run_one_rep(spec, 42, 0, 0, (0.5, -0.5, 1.0), None)
    assert all(res[0] != "fail" for res in out["results"].values())
    assert max(SMALL.site_sizes) < SMALL.n_target
    assert sum(target_rows) == sum(SMALL.site_sizes)
    # one call per arm, each holding every site's model of that arm
    assert knn_calls == [SMALL.n_sites, SMALL.n_sites]


def _many_draw_site_variances(shift, means, n_draws, seed, block=200_000):
    # the defining integral of the asymptotic one-site Hajek variance,
    # sum_z E_k[pi_z (y_z - mu_z)^2 / e_z^2] / E_k[pi_z / e_z]^2 over the
    # oracle scores, by Monte Carlo with the outcome noise drawn too. The
    # draws come from the target law, as E_k[f] = E_target[r_k f]: there the
    # tilt 1 / r_k is half as steep as 1 / r_k^2 under the site law, and the
    # estimate is far less noisy
    # the scores' shares cancel, so any draw of the sites serves
    sites, _, _ = gen_covariate_shift(shift, np.random.default_rng(0), means=np.asarray(means))
    p = oracle_shift_propensity(shift, means, sites)
    c = np.asarray(shift.prop_coef, dtype=float)
    b1 = np.asarray(shift.beta1, dtype=float)
    b0 = np.asarray(shift.beta0, dtype=float)
    mu_t = np.full(shift.d, shift.mu_target)
    rng = np.random.default_rng(seed)
    out = {}
    for k, mu_k in enumerate(means, start=1):
        sums = np.zeros(4)
        for _ in range(n_draws // block):
            x = rng.normal(shift.mu_target, shift.sigma, size=(block, shift.d))
            r = oracle_gaussian_ratio(np.full(shift.d, mu_k), mu_t, shift.sigma, x)
            p1 = 1.0 / (1.0 + np.exp(x @ c))
            e1, e0 = p.eval(k, 1, x), p.eval(k, 0, x)
            res1, res0 = (x @ b - b @ mu_t + shift.noise_sd * rng.normal(size=block)
                          for b in (b1, b0))
            sums += [np.sum(r * p1 * res1 ** 2 / e1 ** 2),
                     np.sum(r * (1.0 - p1) * res0 ** 2 / e0 ** 2),
                     np.sum(r * p1 / e1), np.sum(r * (1.0 - p1) / e0)]
        V1, V0, D1, D0 = sums / n_draws
        out[k] = (V1 / D1 ** 2 + V0 / D0 ** 2) / shift.site_sizes[k - 1]
    return out


@pytest.mark.parametrize("d_kl,noise_sd", [(0.0, 0.0), (0.3, 0.0), (0.3, 2.0)])
def test_oracle_meta_site_variances_match_many_draws(d_kl, noise_sd):
    # a light-tailed design, where the lognormal factor 1 / pi_z(x) has a
    # mean that many draws can resolve
    shift = ShiftConfig(prop_coef=(0.2, 0.05, -0.2), sigma=1.0, d_kl=d_kl,
                        noise_sd=noise_sd)
    means = tuple(place_site_means(d_kl, shift.n_sites, shift.sigma, shift.mu_target,
                                   np.random.default_rng(11)))
    got = harness.oracle_meta_site_variances(shift, means)
    ref = _many_draw_site_variances(shift, means, 2_000_000, seed=5)
    for k in ref:
        assert got[k] == pytest.approx(ref[k], rel=0.01)


def test_oracle_meta_site_variances_scale_as_one_over_site_size_without_shift():
    # with every site at the target mean, n_k v_k is one number for all sites
    shift = ShiftConfig()
    out = harness.oracle_meta_site_variances(shift, (shift.mu_target,) * shift.n_sites)
    scaled = [out[k] * n for k, n in enumerate(shift.site_sizes, start=1)]
    assert scaled == pytest.approx([scaled[0]] * shift.n_sites, rel=1e-12)
    assert scaled[0] == pytest.approx(12526.306, rel=1e-7)


def test_oracle_meta_site_variances_are_pinned():
    out = harness.oracle_meta_site_variances(ShiftConfig(), (0.5, -0.5, 1.0))
    assert {k: float(v).hex() for k, v in out.items()} == {
        1: "0x1.0fb84e9700dd1p+4", 2: "0x1.27e275fe8247bp+3",
        3: "0x1.d9bf7ed44eb55p+3"}


def _rep_inputs(spec, seed, means):
    # what _run_one_rep builds before its estimators run
    rng = np.random.default_rng((seed, 0, 0))
    sites, target, _ = gen_covariate_shift(spec.shift, rng, means=np.asarray(means))
    p, live, _ = _build_scores(spec.nuisance_mode, sites, target, spec.shift, means)
    table = nuisance.score_table(live, p)
    return live, target, table, nuisance.crossfit_split(sites, spec.folds, rng)


def _counted_outcome_fits(monkeypatch, wrap=None):
    real = estimators.fit_outcome_direct
    calls = []

    def counted(sites, arm, psi, table, include=None):
        calls.append(arm)
        if wrap is not None:
            include = wrap(include)
        return real(sites, arm, psi, table, include=include)

    monkeypatch.setattr(estimators, "fit_outcome_direct", counted)
    return calls


@pytest.mark.parametrize("mode", ["oracle", "tilting"])
def test_replication_trains_each_aipw_fold_once(monkeypatch, mode):
    spec = SweepSpec(d_kl_grid=(1.0,), replications=1, nuisance_mode=mode,
                     folds=3, shift=SMALL)
    means = (0.5, -0.5, 1.0)
    site_vars = {1: 0.5, 2: 1.0, 3: 2.0}
    calls = _counted_outcome_fits(monkeypatch)
    out = harness._run_one_rep(spec, 42, 0, 0, means, site_vars)
    assert len(calls) == 2 * spec.folds

    sites, target, table, plan = _rep_inputs(spec, 42, means)
    weights = {k: 1.0 / v for k, v in site_vars.items()}
    for flavor in ("meta", "clb"):
        ref = decoupled_aipw(sites, target, table, IDENTITY_PLUS_INTERCEPT, flavor=flavor,
                             weights=weights if flavor == "meta" else None,
                             fold_plan=plan)
        entry = out["results"][f"{flavor}_aipw"]
        assert entry[:3] == (ref.tau_hat, ref.var_hat / ref.n_effective,
                             0.5 * (ref.ci_hi - ref.ci_lo))


def test_failed_aipw_fold_training_fails_both_flavours(monkeypatch):
    # starve the outcome fits of units: the first fold's training raises
    spec = SweepSpec(d_kl_grid=(1.0,), replications=1, meta_weight_mode="vanilla",
                     shift=SMALL)
    means = (0.5, -0.5, 1.0)
    calls = _counted_outcome_fits(
        monkeypatch, lambda include: {k: np.zeros_like(m) for k, m in include.items()})
    out = harness._run_one_rep(spec, 42, 0, 0, means, None)
    assert len(calls) == 1
    sites, target, table, plan = _rep_inputs(spec, 42, means)
    with pytest.raises(ValueError) as exc:
        decoupled_aipw(sites, target, table, IDENTITY_PLUS_INTERCEPT, fold_plan=plan)
    assert str(exc.value) == "no usable units to fit the arm-1 outcome model"
    assert out["results"]["meta_aipw"] == ("fail", str(exc.value))
    assert out["results"]["clb_aipw"] == ("fail", str(exc.value))
    assert out["results"]["meta_ipw"][0] != "fail"
    assert out["results"]["clb_ipw"][0] != "fail"


def test_zero_oracle_meta_variance_fails_only_the_meta_cells():
    # outcomes without signal or noise have zero variance at every site
    spec = SweepSpec(d_kl_grid=(1.0,), replications=2,
                     shift=ShiftConfig(beta1=(0, 0, 0), beta0=(0, 0, 0), noise_sd=0))
    res = run_monte_carlo(spec, seed=42)
    for est in ("meta_ipw", "meta_aipw"):
        cell = res.cells[(1.0, est)]
        assert cell.aborted and cell.n_fail == 2
    for est in ("clb_ipw", "clb_aipw"):
        cell = res.cells[(1.0, est)]
        assert not cell.aborted and cell.n_fail == 0
    means = (0.5, -0.5, 1.0)
    out = harness._run_one_rep(spec, 42, 0, 0, means,
                               harness.oracle_meta_site_variances(spec.shift, means))
    reason = "site 1: oracle meta variance 0.0 is not positive"
    assert out["results"]["meta_ipw"] == out["results"]["meta_aipw"] == ("fail", reason)


def test_aipw_combine_error_fails_only_its_flavour():
    # infinite oracle variances give the meta combinations all-zero weights
    spec = SweepSpec(d_kl_grid=(1.0,), replications=1, shift=SMALL)
    means = (0.5, -0.5, 1.0)
    out = harness._run_one_rep(spec, 42, 0, 0, means, {k: np.inf for k in (1, 2, 3)})
    clean = harness._run_one_rep(spec, 42, 0, 0, means, {k: 1.0 for k in (1, 2, 3)})
    reason = "fixed weights must be non-negative and not all zero"
    assert out["results"]["meta_aipw"] == out["results"]["meta_ipw"] == ("fail", reason)
    assert out["results"]["clb_aipw"] == clean["results"]["clb_aipw"]
    assert out["results"]["clb_ipw"] == clean["results"]["clb_ipw"]
    assert clean["results"]["meta_aipw"][0] != "fail"


def test_estimated_meta_aipw_weighs_each_site_by_its_correction_inverse_variance():
    # the plug-in weights meta_combine takes when weights is None, here of
    # each fold's per-site corrections; "vanilla" weighs them equally
    shift = ShiftConfig(site_sizes=(100, 200, 300), noise_sd=1.0)
    means = (0.5, -0.5, 1.0)

    def cell(mode):
        spec = SweepSpec(d_kl_grid=(1.0,), replications=1, estimators=("meta_aipw",),
                         meta_weight_mode=mode, shift=shift)
        return spec, harness._run_one_rep(spec, 42, 0, 0, means, None)["results"]["meta_aipw"]

    spec, estimated = cell("estimated")
    assert estimated[0] != cell("vanilla")[1][0]
    sites, target, table, plan = _rep_inputs(spec, 42, means)
    folds = estimators._aipw_fold_inputs(sites, target, table, IDENTITY_PLUS_INTERCEPT,
                                         ("meta",), plan)["meta"]
    per_fold = [estimators.aipw_combine(
        [f], flavor="meta",
        weights={k: 1.0 / (d.s2_1 / d.n1_hat ** 2 + d.s2_0 / d.n0_hat ** 2)
                 for k, d in f.deltas.items()}) for f in folds]
    assert estimated[0] == sum(r.tau_hat for r in per_fold) / len(folds)
