"""Score assembly, pooled scores, cross-fit folds, and the weighted outcome fit."""

import hashlib

import numpy as np
import pytest

from fedcause import (
    IDENTITY_PLUS_INTERCEPT,
    PropensitySet,
    ShiftConfig,
    SiteDataset,
    assemble_propensity,
    crossfit_split,
    fit_outcome_direct,
    gen_covariate_shift,
    oracle_shift_propensity,
    score_table,
)
from fedcause.density_ratio import IDENTITY, FeatureMap, RatioModel, expit
from fedcause.nuisance import (SCORE_FLOOR, FoldPlan, fit_scores, outcome_block,
                               solve_outcome_blocks)
from fedcause.synthgen import place_site_means
from conftest import logistic, logistic_ratio, usable_arm_rows


def test_assemble_uniform_ratio_reduces_to_count_share():
    m = RatioModel(backend="tilting", gamma=np.zeros(3),
                   psi=IDENTITY_PLUS_INTERCEPT)
    p = assemble_propensity({(1, 1): m}, {(1, 1): 50}, n_pooled=200)
    x = np.random.default_rng(0).normal(size=(7, 2))
    assert np.allclose(p.eval(1, 1, x), 0.25)


def test_assemble_missing_pair_evaluates_to_zero():
    m = RatioModel(backend="tilting", gamma=np.zeros(2), psi=IDENTITY_PLUS_INTERCEPT)
    p = assemble_propensity({(1, 1): m, (1, 0): m}, {(1, 1): 5, (1, 0): 5}, n_pooled=20)
    x = np.zeros((3, 1))
    assert (2, 0) not in p.e
    assert np.array_equal(p.eval(2, 0, x), np.zeros(3))


def test_assemble_rejects_empty_pool():
    m = RatioModel(backend="tilting", gamma=np.zeros(2), psi=IDENTITY_PLUS_INTERCEPT)
    with pytest.raises(ValueError):
        assemble_propensity({(1, 1): m}, {(1, 1): 5}, n_pooled=0)


def test_factored_score_is_site_share_times_ratio_times_arm_propensity():
    shift = ShiftConfig(site_sizes=(150, 200, 250), n_target=400, d_kl=3.0)
    sites, target, _ = gen_covariate_shift(shift, np.random.default_rng(5))
    p, failed = fit_scores(sites, target, "tilting", wrong=False)
    assert failed == {}
    n_pooled = sum(s.n for s in sites)
    x = target.xs[:200]
    eta_x = IDENTITY_PLUS_INTERCEPT.apply(x)
    for s in sites:
        r = logistic_ratio(s.x_matrix, target.xs).eval(x)
        beta, _ = logistic(s.x_matrix, s.z_vec)
        for z, sign in ((1, 1.0), (0, -1.0)):
            assert p.e[(s.site_id, z)].ratio.backend == "factored"
            want = (s.n / n_pooled) * r * expit(sign * (eta_x @ beta))
            np.testing.assert_allclose(p.eval(s.site_id, z, x), want, rtol=1e-12, atol=0)


def test_a_site_with_one_arm_scores_by_its_site_ratio():
    shift = ShiftConfig(site_sizes=(150, 200, 250), n_target=400, d_kl=1.0)
    sites, target, _ = gen_covariate_shift(shift, np.random.default_rng(6))
    s = sites[1]
    treated = SiteDataset.from_arrays(s.site_id, s.x_matrix[s.z_vec == 1],
                                      np.ones(int(np.sum(s.z_vec == 1)), dtype=int),
                                      s.y_vec[s.z_vec == 1])
    sites[1] = treated
    p, failed = fit_scores(sites, target, "tilting", wrong=False)
    assert failed == {} and (s.site_id, 0) not in p.e
    score = p.e[(s.site_id, 1)]
    ratio = logistic_ratio(treated.x_matrix, target.xs)
    assert score.ratio.backend == "tilting"
    assert np.array_equal(score.ratio.gamma, ratio.gamma)
    assert score.share == treated.n / sum(t.n for t in sites)


@pytest.mark.parametrize("wrong", [False, True])
def test_fit_scores_maps_the_target_once(monkeypatch, wrong):
    shift = ShiftConfig(site_sizes=(60, 80, 100), n_target=200, d_kl=1.0)
    sites, target, _ = gen_covariate_shift(shift, np.random.default_rng(7))
    real = FeatureMap.apply
    rows = []

    def counted(self, x):
        rows.append(len(np.atleast_2d(x)))
        return real(self, x)

    monkeypatch.setattr(FeatureMap, "apply", counted)
    _, failed = fit_scores(sites, target, "tilting", wrong)
    assert failed == {}
    # one block per party: the target's serves every site's ratio fit, and
    # a site's serves its ratio fit and its arm fit
    assert sorted(rows) == sorted([target.n] + [s.n for s in sites])


def _failed_site_lines(reps: int) -> str:
    lines = []
    for d_kl in (3, 6, 10):
        shift = ShiftConfig(site_sizes=(60, 80, 100), n_target=200, d_kl=float(d_kl))
        for r in range(reps):
            sites, target, _ = gen_covariate_shift(shift, np.random.default_rng((11, d_kl, r)))
            for wrong in (False, True):
                _, failed = fit_scores(sites, target, "tilting", wrong)
                lines.append(f"{d_kl},{r},{int(wrong)}:{','.join(map(str, sorted(failed)))}\n")
    return "".join(lines)


def test_tiny_site_sweep_fails_the_pinned_sites():
    # tiny sites far from the target separate often; which of them do is
    # read on the pooled (site + target) scale, whatever map the fit works
    # in. sha256 of one line per (d_kl, replication, map) naming the failed
    # sites: 89 of 300 lines name 102 sites
    lines = _failed_site_lines(50)
    named = [ln.split(":")[1] for ln in lines.splitlines() if not ln.endswith(":")]
    assert (len(named), sum(len(n.split(",")) for n in named)) == (89, 102)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "7513e59930511ed444a75450933906c0d0b97ca11dda3f66a873c6f3de8f0cae")


def test_pooled_score_examples():
    e = {
        (1, 1): lambda x: np.full(len(np.atleast_2d(x)), 0.2),
        (2, 1): lambda x: np.full(len(np.atleast_2d(x)), 0.3),
    }
    p = PropensitySet(e=e)
    site = SiteDataset.from_arrays(1, np.zeros((1, 2)), [1], [0.0])
    table = score_table([site], p)
    assert table.pooled(1)[0] == pytest.approx(0.5)


def test_pooled_score_is_the_left_to_right_column_sum():
    # nine sites: from eight columns on, cols.sum(axis=1) adds pairwise and
    # rounds differently, so only the plain left-to-right loop matches
    rng = np.random.default_rng(21)
    e = {}
    for k in range(1, 10):
        w = rng.normal(size=2)
        scale = 10.0 ** rng.uniform(-3.0, 1.0)
        for arm in (1, 0):
            e[(k, arm)] = (lambda x, w=w, c=scale * (arm + 1):
                           c * np.exp(np.atleast_2d(x) @ w))
    x = rng.normal(size=(500, 2))
    z = rng.integers(0, 2, size=500)
    site = SiteDataset.from_arrays(1, x, z, np.zeros(500))
    p = PropensitySet(e=e)
    table = score_table([site], p)
    # each column at every unit's own arm, evaluated on each arm's rows
    cols = np.zeros((500, 9))
    for arm in (1, 0):
        rows = (z == arm).nonzero()[0]
        for j in range(9):
            cols[rows, j] = p.eval(j + 1, arm, x.take(rows, axis=0))
    ref = cols[:, 0].copy()
    for j in range(1, 9):
        ref = ref + cols[:, j]
    assert table.pooled(1).tobytes() == ref.tobytes()


def _per_site_frame(site, p, cols):
    """(pooled, weight, own_weight) of site's units from its own rows alone:
    each column by PropensitySet.eval on the rows of each arm, the columns
    summed from the left."""
    table = np.zeros((site.n, len(cols)))
    for arm in (1, 0):
        rows = (site.z_vec == arm).nonzero()[0]
        if len(rows):
            x = site.x_matrix.take(rows, axis=0)
            for j, k in enumerate(cols):
                table[rows, j] = p.eval(k, arm, x)
    pooled = np.zeros(site.n)
    for j in range(len(cols)):
        pooled += table[:, j]
    own = table[:, cols.index(site.site_id)]
    return pooled, 1.0 / np.maximum(pooled, SCORE_FLOOR), 1.0 / np.where(own <= 0.0, 1.0, own)


@pytest.mark.parametrize("K", [3, 12])
@pytest.mark.parametrize("backend, wrong", [("oracle", False), ("tilting", False),
                                            ("tilting", True), ("knn", False), ("knn", True)])
def test_score_table_arm_pass_over_all_sites_is_bitwise_the_per_site_pass(K, backend, wrong):
    # score_table evaluates each score once over every site's rows of an arm;
    # each frame must read as if its site's rows had been scored alone
    shift = ShiftConfig(n_sites=K, site_sizes=tuple(90 + 20 * k for k in range(K)),
                        n_target=800, d_kl=1.0)
    rng = np.random.default_rng(40 + K)
    means = place_site_means(shift.d_kl, K, shift.sigma, shift.mu_target, rng)
    sites, target, _ = gen_covariate_shift(shift, rng, means=means)
    # the second site has no control units, so arm 0 has no rows there
    s = sites[1]
    sites[1] = SiteDataset.from_arrays(s.site_id, s.x_matrix, np.ones(s.n, dtype=int), s.y_vec)
    if backend == "oracle":
        p = oracle_shift_propensity(shift, means, sites)
    else:
        p, failed = fit_scores(sites, target, backend, wrong)
        assert failed == {}
    assert (2, 0) not in p.e and len(p.e) == 2 * K - 1
    cols = tuple(p.site_ids)
    table = score_table(sites, p)
    for s in sites:
        frame = table.frames[s.site_id]
        pooled, weight, own_weight = _per_site_frame(s, p, cols)
        assert frame.pooled.tobytes() == pooled.tobytes()
        assert frame.weight.tobytes() == weight.tobytes()
        assert frame.own_weight.tobytes() == own_weight.tobytes()


def test_propensity_scaled_validates_and_scales():
    e = {(1, 1): lambda x: np.full(len(np.atleast_2d(x)), 0.2)}
    p = PropensitySet(e=e)
    x = np.zeros((4, 1))
    assert np.allclose(p.scaled(3.0).eval(1, 1, x), 0.6)
    with pytest.raises(ValueError):
        p.scaled(0.0)
    with pytest.raises(ValueError):
        p.scaled(-2.0)


def _toy_sites(rng, sizes=(10, 11)):
    out = []
    for k, n in enumerate(sizes, start=1):
        x = rng.normal(size=(n, 2))
        z = rng.integers(0, 2, size=n)
        z[:2] = [0, 1]
        out.append(SiteDataset.from_arrays(k, x, z, rng.normal(size=n)))
    return out


def test_crossfit_balanced_partition(rng):
    sites = _toy_sites(rng)
    plan = crossfit_split(sites, 2, rng)
    assert plan.F == 2
    sizes0 = sorted(int(np.sum(plan.eval_mask(1, f))) for f in range(2))
    assert sizes0 == [5, 5]
    sizes1 = sorted(int(np.sum(plan.eval_mask(2, f))) for f in range(2))
    assert sizes1 == [5, 6]
    for sid, n in ((1, 10), (2, 11)):
        total = np.zeros(n, dtype=int)
        for f in range(2):
            ev = plan.eval_mask(sid, f)
            tr = plan.train_mask(sid, f)
            assert np.array_equal(tr, ~ev)
            total += ev.astype(int)
        assert np.all(total == 1)


def test_crossfit_same_seed_same_plan(rng):
    sites = _toy_sites(rng)
    p1 = crossfit_split(sites, 3, np.random.default_rng(5))
    p2 = crossfit_split(sites, 3, np.random.default_rng(5))
    for sid in (1, 2):
        assert np.array_equal(p1.fold_index[sid], p2.fold_index[sid])


def test_crossfit_rejects_tiny_site(rng):
    small = SiteDataset.from_arrays(1, rng.normal(size=(2, 2)), [0, 1], [0.0, 1.0])
    with pytest.raises(ValueError):
        crossfit_split([small], 3, rng)
    with pytest.raises(ValueError):
        crossfit_split([small], 1, rng)


def _const_score_set(val: float):
    return PropensitySet(e={(1, 1): lambda x: np.full(len(np.atleast_2d(x)), val),
                            (1, 0): lambda x: np.full(len(np.atleast_2d(x)), val)})


def _gram(tri, p):
    """The symmetric matrix of an outcome_block's upper triangle."""
    g = np.zeros((p, p))
    g[np.triu_indices(p)] = tri
    return g + np.triu(g, 1).T


# outcome_block holds a site's weighted squared loss as its normal equations
def test_weighted_loss_single_unit():
    site = SiteDataset.from_arrays(1, np.array([[2.0]]), [1], [3.0])
    table = score_table([site], _const_score_set(0.4))
    gram, cross = outcome_block(site, table, IDENTITY, 1)
    # design row (1, 2), weight 1 / 0.4
    assert np.allclose(gram, np.array([1.0, 2.0, 4.0]) / 0.4)
    assert np.allclose(cross, np.array([3.0, 6.0]) / 0.4)
    gram, cross = outcome_block(site, table, IDENTITY, 0)
    assert not np.any(gram) and not np.any(cross)


def test_weighted_loss_gradient_matches_finite_differences():
    # the block is the quadratic sum w (y - design theta)^2, whose gradient
    # is 2 (D'WD theta - D'Wy)
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(3, 12)), int(rng.integers(1, 4))
        site = SiteDataset.from_arrays(
            1, rng.normal(size=(n, d)), rng.integers(0, 2, size=n), rng.normal(size=n))
        a = rng.normal(0, 0.5, size=d)
        p = score_table([site], PropensitySet(e={
            (1, 1): lambda x, a=a: 0.1 + 0.5 / (1 + np.exp(-np.atleast_2d(x) @ a)),
            (1, 0): lambda x, a=a: 0.1 + 0.5 / (1 + np.exp(np.atleast_2d(x) @ a))}))
        arm = int(rng.integers(0, 2))
        theta = rng.normal(size=d + 1)
        x, y, w = usable_arm_rows(p, site, arm)
        if len(w) == 0:
            continue

        def loss(th):
            return float(np.sum(w * (y - IDENTITY_PLUS_INTERCEPT.design(x) @ th) ** 2))

        gram, cross = outcome_block(site, p, IDENTITY_PLUS_INTERCEPT, arm)
        grad = 2.0 * (_gram(gram, d + 1) @ theta - cross)
        fd = np.zeros_like(grad)
        h = 1e-5
        for j in range(len(grad)):
            step = np.zeros_like(theta)
            step[j] = h
            fd[j] = (loss(theta + step) - loss(theta - step)) / (2 * h)
        rel = np.max(np.abs(fd - grad) / np.maximum(1.0, np.abs(grad)))
        worst = max(worst, rel)
    assert worst < 1e-5


def test_weighted_loss_counts_zero_score_exclusions():
    site = SiteDataset.from_arrays(1, np.array([[1.0], [-1.0]]), [1, 1], [1.0, 2.0])
    p = score_table([site], PropensitySet(
        e={(1, 1): lambda x: (np.atleast_2d(x)[:, 0] > 0) * 0.5}))
    assert p.frames[1].usable.tolist() == [True, False]
    gram, cross = outcome_block(site, p, IDENTITY, 1)
    # only the unit at x = 1, y = 1 with weight 2
    assert np.allclose(gram, [2.0, 2.0, 2.0])
    assert np.allclose(cross, [2.0, 2.0])


def test_constant_weights_recover_plain_least_squares(rng):
    sites = _toy_sites(rng, sizes=(40, 40))
    theta = fit_outcome_direct(sites, arm=1, psi=IDENTITY_PLUS_INTERCEPT,
                               table=score_table(sites, _const_score_set(0.3)))
    rows = np.vstack([s.x_matrix[s.z_vec == 1] for s in sites])
    ys = np.concatenate([s.y_vec[s.z_vec == 1] for s in sites])
    D = np.hstack([np.ones((len(rows), 1)), rows])
    ref, *_ = np.linalg.lstsq(D, ys, rcond=None)
    assert np.allclose(theta, ref, atol=1e-10)


def test_direct_fit_recovers_exact_linear_outcomes():
    cfg = ShiftConfig(site_sizes=(300, 300, 300), n_target=50, d_kl=1.0)
    rng = np.random.default_rng(42)
    sites, _, _ = gen_covariate_shift(cfg, rng)
    means = [1.0, -0.5, 0.2]
    p = score_table(sites, oracle_shift_propensity(cfg, means, sites))
    theta1 = fit_outcome_direct(sites, 1, IDENTITY, p)
    theta0 = fit_outcome_direct(sites, 0, IDENTITY, p)
    # outcomes have no intercept, so the guaranteed constant column gets ~0
    assert np.allclose(theta1, np.r_[0.0, cfg.beta1], atol=1e-8)
    assert np.allclose(theta0, np.r_[0.0, cfg.beta0], atol=1e-8)


def test_block_solve_refuses_non_finite_coefficients():
    # a finite system whose solution overflows: 1e308 / 1e-10
    with pytest.raises(ValueError, match="non-finite outcome-model parameters"):
        solve_outcome_blocks([([1e-10], [1e308])], 1)
    assert solve_outcome_blocks([([2.0], [3.0])], 1).tolist() == [1.5]


def test_direct_fit_ignores_score_scale(rng):
    sites = _toy_sites(rng, sizes=(30, 25))
    a = np.array([0.4, -0.7])
    p = PropensitySet(e={
        (k, z): (lambda x, a=a, k=k, z=z:
                 0.05 * k + 0.3 / (1 + np.exp((-1) ** z * np.atleast_2d(x) @ a)))
        for k in (1, 2) for z in (0, 1)})
    theta = fit_outcome_direct(sites, 1, IDENTITY_PLUS_INTERCEPT, score_table(sites, p))
    scaled = fit_outcome_direct(sites, 1, IDENTITY_PLUS_INTERCEPT,
                                score_table(sites, p.scaled(137.0)))
    assert np.allclose(theta, scaled, rtol=1e-9)


def test_fold_plan_masks_are_consistent():
    plan = FoldPlan(F=2, fold_index={1: np.array([0, 1, 0, 1])})
    assert np.array_equal(plan.eval_mask(1, 0), [True, False, True, False])
    assert np.array_equal(plan.train_mask(1, 0), [False, True, False, True])
