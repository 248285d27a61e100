"""Exponential tilting solver, nearest-neighbour ratio, and Gaussian oracle."""
import json
import math

import numpy as np
import pytest
from scipy import stats

from fedcause import (
    IDENTITY_PLUS_INTERCEPT,
    MISSPECIFIED,
    RatioModel,
    ShiftConfig,
    TiltingError,
    fit_knn,
    fit_tilting,
    gen_covariate_shift,
    misspecify_features,
    oracle_gaussian_ratio,
)
from fedcause import density_ratio, fedsim
from fedcause.density_ratio import (IDENTITY, KNN_BLOCK, LogisticScale, _lift, _sq_dists,
                                    eval_knn, expit, fit_logistic_blocks,
                                    fit_logistic_ratio_blocks)
from conftest import brute_knn_ratio, logistic, logistic_ratio


# -- exponential tilting ------------------------------------------------------


def test_tilting_scalar_hand_solved():
    # moment equation: e^g * 1 = 2  =>  g = ln 2
    m = fit_tilting([[0.0], [0.0], [1.0]], [[0.0], [1.0], [1.0]], psi=IDENTITY)
    assert m.gamma[0] == pytest.approx(math.log(2.0), abs=1e-8)


def test_tilting_intercept_hand_solved():
    # counts: 3 source zeros, 1 source one, target totals (4, 3)
    # => 3 e^a = 1 and e^(a+g) = 3, so a = -ln 3, g = ln 9
    m = fit_tilting([[0.0], [0.0], [0.0], [1.0]], [[0.0], [1.0], [1.0], [1.0]],
                    psi=IDENTITY_PLUS_INTERCEPT)
    assert m.gamma[0] == pytest.approx(-math.log(3.0), abs=1e-6)
    assert m.gamma[1] == pytest.approx(math.log(9.0), abs=1e-6)


def test_tilting_equal_multisets_needs_no_reweighting():
    pts = [[0.3], [-1.1], [2.2], [0.7]]
    m = fit_tilting(pts, pts, psi=IDENTITY_PLUS_INTERCEPT)
    vals = m.eval(np.asarray(pts))
    assert np.allclose(vals, vals[0], rtol=1e-7)
    w = vals / vals.sum()
    assert np.allclose(w, 0.25, atol=1e-7)
    assert np.allclose(m.gamma, [0.0, 0.0], atol=1e-6)


def test_tilting_gaussian_shift_recovers_log_ratio_slope():
    rng = np.random.default_rng(21)
    src = rng.normal(1.0, 1.0, size=(5000, 1))
    tgt = rng.normal(0.0, 1.0, size=(5000, 1))
    m = fit_tilting(src, tgt, psi=IDENTITY_PLUS_INTERCEPT)
    assert abs(m.gamma[1] - (-1.0)) < 0.1


def test_tilting_moment_closure():
    for seed, loc, sd, n_src, n_tgt, d in ((22, 0.5, 1.2, 300, 400, 3),
                                           (1022, 0.8, 0.8, 120, 100, 2)):
        rng = np.random.default_rng(seed)
        src = rng.normal(loc, sd, size=(n_src, d))
        tgt = rng.normal(0.0, 1.0, size=(n_tgt, d))
        m = fit_tilting(src, tgt, psi=IDENTITY_PLUS_INTERCEPT)
        w = m.eval(src)
        lhs = np.concatenate([[w.sum()], (src * w[:, None]).sum(axis=0)])
        rhs = np.concatenate([[float(len(tgt))], tgt.sum(axis=0)])
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-7, seed


def test_tilting_converges_to_the_dual_minimum():
    rng = np.random.default_rng(23)
    src = rng.normal(0.8, 1.0, size=(500, 2))
    tgt = rng.normal(0.0, 1.0, size=(500, 2))
    m = fit_tilting(src, tgt, psi=IDENTITY_PLUS_INTERCEPT)
    assert m.fit_info["stop"] == "converged"
    assert m.fit_info["residual"] <= density_ratio.LOGISTIC_TOL
    # the dual sum_source exp(psi' g) - g' sum_target psi is no lower nearby
    A, t = IDENTITY_PLUS_INTERCEPT.apply(src), IDENTITY_PLUS_INTERCEPT.apply(tgt).sum(axis=0)

    def dual(g):
        return np.exp(A @ g).sum() - g @ t

    at_fit = dual(m.gamma)
    for step in (1e-3, 1e-5):
        for g in m.gamma + step * np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(4, 3))]):
            assert at_fit <= dual(g)


def test_tilting_separation_is_reported_distinctly():
    # target mean far outside the source hull: no finite reweighting matches
    with pytest.raises(TiltingError) as err:
        fit_tilting([[0.0], [1.0], [2.0]], [[5.0], [6.0], [7.0]],
                    psi=IDENTITY_PLUS_INTERCEPT)
    assert err.value.separated


def test_tilting_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_tilting([], [[1.0]], psi=IDENTITY)
    with pytest.raises(ValueError):
        fit_tilting([[1.0, 2.0]], [[1.0]], psi=IDENTITY)


def test_tilting_misspecified_map_fits_transformed_moments():
    rng = np.random.default_rng(24)
    src = rng.normal(0.3, 1.0, size=(400, 3))
    tgt = rng.normal(0.0, 1.0, size=(400, 3))
    m = fit_tilting(src, tgt, psi=MISSPECIFIED)
    w = m.eval(src)
    fs = np.vstack([misspecify_features(x) for x in src])
    ft = np.vstack([misspecify_features(x) for x in tgt])
    lhs = np.concatenate([[w.sum()], (fs * w[:, None]).sum(axis=0)])
    rhs = np.concatenate([[float(len(tgt))], ft.sum(axis=0)])
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-7


def test_tilting_slope_error_shrinks_with_n():
    errs = {500: [], 8000: []}
    for seed in range(50):
        rng = np.random.default_rng((31, seed))
        for n in errs:
            src = rng.normal(1.0, 1.0, size=(n, 1))
            tgt = rng.normal(0.0, 1.0, size=(n, 1))
            m = fit_tilting(src, tgt, psi=IDENTITY_PLUS_INTERCEPT)
            errs[n].append(abs(m.gamma[1] + 1.0))
    assert np.median(errs[8000]) < np.median(errs[500])


def test_tilting_json_round_trip():
    # the wire format is fedsim's: its writer, JSON text, then its reader
    m = fit_tilting([[0.0], [0.0], [1.0]], [[0.0], [1.0], [1.0]], psi=IDENTITY)
    obj = json.loads(json.dumps(fedsim._model_obj(m)))
    assert list(obj) == ["backend", "gamma", "psi"] and obj["backend"] == "tilting"
    back, faults = fedsim._read_model(obj)
    assert faults == [] and back.backend == "tilting" and back.psi == m.psi
    assert back.gamma.tobytes() == m.gamma.tobytes()
    x = np.array([[0.3], [1.7]])
    assert back.eval(x).tobytes() == m.eval(x).tobytes()


# -- logistic discrimination --------------------------------------------------


def test_logistic_recovers_coefficients_and_states_convergence():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(20000, 3))
    beta = np.array([0.5, 1.2, 0.3, -1.2])
    y = (rng.random(len(x)) < expit(beta[0] + x @ beta[1:])).astype(int)
    got, info = logistic(x, y)
    assert np.max(np.abs(got - beta)) < 0.1
    assert info["stop"] == "converged" and info["residual"] <= 1e-10
    # the score equations of the maximum-likelihood estimate hold
    design = IDENTITY_PLUS_INTERCEPT.apply(x)
    score = design.T @ (y - expit(design @ got))
    assert np.max(np.abs(score)) < 1e-6


def test_logistic_separation_is_reported_distinctly():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(200, 2))
    cases = [
        (x, (x[:, 0] + x[:, 1] > 0).astype(int)),                    # complete
        ([[0.0], [0.0], [1.0], [2.0], [-1.0]], [1, 0, 1, 1, 0]),      # quasi-complete
        (x, np.ones(len(x), dtype=int)),                              # one class
    ]
    for xs, labels in cases:
        with pytest.raises(TiltingError) as err:
            logistic(xs, labels)
        assert err.value.separated


@pytest.mark.parametrize("fit", [
    logistic,
    lambda x, y: fit_tilting(x[y == 1], x[y == 0], psi=IDENTITY_PLUS_INTERCEPT),
], ids=["fit_logistic", "fit_tilting"])
def test_logistic_iteration_cap_is_not_separation(monkeypatch, fit):
    # both ratio solvers run one Newton loop under one cap
    monkeypatch.setattr(density_ratio, "LOGISTIC_MAX_ITER", 1)
    rng = np.random.default_rng(43)
    x = rng.normal(size=(500, 2))
    y = (rng.random(500) < expit(x[:, 0])).astype(int)
    with pytest.raises(TiltingError) as err:
        fit(x, y)
    assert not err.value.separated and err.value.iterations == 1


def test_logistic_ratio_fits_a_site_that_moment_matching_cannot():
    # a far site at heterogeneity 3: each arm's tilt toward the target
    # separates; the site-vs-target discrimination converges near the oracle
    mu_s, mu_t = np.full(3, 3.95), np.full(3, -0.1)
    rng = np.random.default_rng(44)
    src = rng.normal(mu_s, 2.0, size=(1000, 3))
    tgt = rng.normal(mu_t, 2.0, size=(10000, 3))
    arm = rng.random(len(src)) < expit(-src @ np.array([1.2, 0.3, -1.2]))
    with pytest.raises(TiltingError) as err:
        fit_tilting(src[arm], tgt, psi=IDENTITY_PLUS_INTERCEPT)
    assert err.value.separated
    m = logistic_ratio(src, tgt)
    assert m.backend == "tilting" and m.fit_info["stop"] == "converged"
    # the oracle log-ratio slope is (mu_s - mu_t) / sigma^2 per coordinate
    assert np.max(np.abs(m.gamma[1:] - (mu_s - mu_t) / 4.0)) < 0.1


@pytest.mark.parametrize("psi", [IDENTITY_PLUS_INTERCEPT, MISSPECIFIED], ids=lambda p: p.name)
def test_two_block_fit_is_the_stacked_fit(psi):
    # the target's map and the pooled one reach the same estimate; Newton's
    # iterates do not depend on the affine map, only their rounding does
    rng = np.random.default_rng(45)
    src = rng.normal(1.0, 2.0, size=(300, 3))
    tgt = rng.normal(-0.1, 2.0, size=(2000, 3))
    stacked, info = logistic(np.vstack([src, tgt]),
                             np.r_[np.ones(len(src)), np.zeros(len(tgt))], psi=psi)
    stacked[0] += math.log(len(tgt) / len(src))
    m = logistic_ratio(src, tgt, psi=psi)
    assert m.fit_info["iterations"] == info["iterations"]
    assert np.max(np.abs(m.gamma - stacked)) <= 1e-10 * np.max(np.abs(stacked))
    # splitting a block changes only the order of the sums
    scale, target = LogisticScale.announce(psi, tgt)
    halves = [(scale.block(part), 0.0) for part in (tgt[:700], tgt[700:])]
    beta, _ = fit_logistic_blocks([(scale.block(src), 1.0)] + halves, scale)
    beta[0] += math.log(len(tgt) / len(src))
    assert np.max(np.abs(beta - m.gamma)) <= 1e-10 * np.max(np.abs(m.gamma))


def test_separable_site_block_is_reported_separated():
    rng = np.random.default_rng(46)
    tgt = rng.normal(0.0, 1.0, size=(500, 3))
    scale, target = LogisticScale.announce(IDENTITY_PLUS_INTERCEPT, tgt)
    src = rng.normal(0.0, 1.0, size=(40, 3))
    src[:, 0] = tgt[:, 0].max() + 0.5 + rng.random(40)
    with pytest.raises(TiltingError) as err:
        fit_logistic_ratio_blocks(scale.block(src), target, scale)
    assert err.value.separated
    # the same site drawn from the target's law is fitted
    near = scale.block(rng.normal(0.0, 1.0, size=(40, 3)))
    assert fit_logistic_ratio_blocks(near, target, scale).fit_info["stop"] == "converged"


def test_logistic_rejects_bad_inputs():
    scale, block = LogisticScale.announce(IDENTITY_PLUS_INTERCEPT, [[0.0], [1.0]])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        fit_logistic_blocks([(block, [0.0, 2.0])], scale)
    for labels in ([0.0], [0.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="one label per row"):
            fit_logistic_blocks([(block, labels)], scale)


def test_logistic_derivative_is_bitwise_the_masked_select():
    # max(e, t >= 0) picks 1 for t >= 0 (where e <= 1) and e otherwise, so it
    # is the select np.where(t >= 0, 1, e) without the masked copy
    rng = np.random.default_rng(47)
    t = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 750.0, -750.0, 1e-300, -1e-300],
                        rng.normal(0.0, 5.0, size=2000), rng.normal(0.0, 300.0, size=200)])
    with np.errstate(invalid="ignore"):
        _, got = density_ratio._logistic_loss(t)
        e = np.exp(-np.abs(t))
        want = np.where(t >= 0.0, 1.0, e) / (1.0 + e)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _solver_cases():
    """(blocks, scale, design, labels) of 240 logistic fits: a site against
    the target and the arm within the site, for tiny sites (60, 80 and 100
    units; target 200) at d_kl 0 to 5, three draws each, on both maps with
    an intercept; then, per map and size, a site whose arms a hyperplane
    splits and a site beyond the target's support, both separated. design
    stacks the blocks' psi-rows and labels their labels."""
    rng = np.random.default_rng(48)
    c = np.array([1.2, 0.3, -1.2])
    for psi in (IDENTITY_PLUS_INTERCEPT, MISSPECIFIED):
        draws = []
        for d_kl in range(6):
            # KL(N(mu, I) || N(0, I)) = |mu|^2 / 2
            mu = np.full(3, math.sqrt(2.0 * d_kl / 3.0))
            for _ in range(3):
                tgt = rng.normal(0.0, 1.0, size=(200, 3))
                for n in (60, 80, 100):
                    x = rng.normal(mu, 1.0, size=(n, 3))
                    draws.append((tgt, x, (rng.random(n) < expit(x @ c)).astype(float)))
        for n in (60, 80, 100):
            # arms split by a hyperplane in psi, and a site whose x2 (so
            # also x2^2) lies beyond the target's
            x = rng.normal(0.0, 1.0, size=(n, 3))
            split = x[:, 0] + x[:, 1] > 0 if psi is IDENTITY_PLUS_INTERCEPT else x[:, 1] ** 2 > 1
            far = x.copy()
            far[:, 1] += np.abs(tgt[:, 1]).max() - x[:, 1].min() + 0.1
            draws.append((tgt, x, split.astype(float)))
            draws.append((tgt, far, (rng.random(n) < 0.5).astype(float)))
        for tgt, x, z in draws:
            scale, target = LogisticScale.announce(psi, tgt)
            block = scale.block(x)
            yield ([(block, 1.0), (target, 0.0)], scale, psi.apply(np.vstack([x, tgt])),
                   np.r_[np.ones(len(x)), np.zeros(len(tgt))])
            yield [(block, z)], scale, psi.apply(x), z


def _outcome(blocks, scale):
    """(stop reason, beta or None, iterations) of one fit."""
    try:
        beta, info = fit_logistic_blocks(blocks, scale)
        return info["stop"], beta, info["iterations"]
    except TiltingError as err:
        return str(err).split()[0], None, err.iterations


def test_converged_logistic_fit_returns_the_mle_to_rounding():
    # the fit adds the Newton step at its last iterate, which stopped up to
    # LOGISTIC_TOL short of the maximum; half the decrement read at the
    # returned coefficients, on the scale of psi, is at rounding level
    worst, n_conv = 0.0, 0
    for blocks, scale, design, y in _solver_cases():
        stop, beta, _ = _outcome(blocks, scale)
        if stop != "converged":
            continue
        q = expit(design @ beta)
        grad = design.T @ (y - q)
        hess = (design * (q * (1.0 - q))[:, None]).T @ design
        worst = max(worst, 0.5 * float(grad @ np.linalg.solve(hess, grad)))
        n_conv += 1
    assert n_conv >= 200
    assert worst <= 1e-18


def test_discriminant_start_reaches_the_zero_start_fit(monkeypatch):
    cases = list(_solver_cases())
    warm = [_outcome(blocks, scale) for blocks, scale, _, _ in cases]
    monkeypatch.setattr(density_ratio, "_discriminant", lambda parts: None)
    cold = [_outcome(blocks, scale) for blocks, scale, _, _ in cases]
    assert len(cases) >= 200
    assert [w[0] for w in warm] == [c[0] for c in cold]
    stops = [w[0] for w in warm]
    assert stops.count("converged") >= 200 and stops.count("separation:") >= 12
    for (_, got, _), (_, want, _) in zip(warm, cold):
        if want is not None:
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
    assert np.mean([w[2] for w in warm]) < np.mean([c[2] for c in cold])


def _refused_start(reason):
    """(x, labels, start as a function of the fit's scale) of a fit whose
    start _newton_blocks must refuse for reason: "norm", too long though it
    cancels on the rows (a duplicated column); "loss", no better than zero;
    "own side", every row on its own side (separable labels)."""
    rng = np.random.default_rng(49)
    x = rng.normal(size=(300, 2))
    y = (rng.random(300) < expit(0.3 + x[:, 0] - 0.8 * x[:, 1])).astype(float)
    if reason == "norm":
        return np.column_stack([x[:, 0], x]), y, lambda _: np.array([0.15, 60.5, -60.0, -0.4])
    if reason == "loss":
        return x, y, lambda _: np.array([0.0, -3.0, 2.4])
    # 2 (x1 + x2) in the standardized features
    return (x, (x[:, 0] + x[:, 1] > 0).astype(float),
            lambda sc: 2.0 * np.r_[sc.mu[1:].sum(), sc.sd[1:]])


@pytest.mark.parametrize("reason", ["norm", "loss", "own side"])
def test_a_refused_start_leaves_the_zero_start_fit_bitwise(monkeypatch, reason):
    x, y, start_of = _refused_start(reason)
    # the start's standing, read as the loop reads it
    scale, block = LogisticScale.announce(IDENTITY_PLUS_INTERCEPT, x)
    start = start_of(scale)
    t = start @ (block.features * (1.0 - 2.0 * y))
    loss = density_ratio._logistic_loss(t)[0]
    long = np.linalg.norm(density_ratio._pooled_scale([block], True) @ start) > 50.0
    assert (loss > len(y) * math.log(2.0), long, bool(np.all(t < 0.0))) == (
        reason == "loss", reason == "norm", reason == "own side")

    def fit(start_or_none):
        monkeypatch.setattr(density_ratio, "_discriminant", lambda parts: start_or_none)
        try:
            beta, info = logistic(x, y)
            return beta.tobytes(), info
        except TiltingError as err:
            return str(err), (err.iterations, err.residual, err.separated)

    assert fit(start) == fit(None)


@pytest.mark.parametrize("psi", [IDENTITY_PLUS_INTERCEPT, MISSPECIFIED],
                         ids=["linear", "misspecified"])
def test_shared_pass_is_bitwise_each_model_on_its_own_features(psi):
    # eval_ratios forms psi(x) once for all models on the map; each model's
    # values are those of its own exp(psi(x)' gamma) * expit(psi(x)' beta)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(257, 3))
    p = psi.output_dim(3)
    models = [RatioModel("tilting", rng.normal(size=p), psi),
              RatioModel("factored", rng.normal(size=p), psi, rng.normal(size=p)),
              RatioModel("factored", rng.normal(size=p), psi, rng.normal(size=p))]
    got = density_ratio.eval_ratios(models, x)
    f = psi.apply(x)
    for vals, m in zip(got, models):
        want = np.exp(f @ m.gamma)
        if m.backend == "factored":
            want = want * expit(f @ m.beta)
        assert vals.tobytes() == want.tobytes()
        assert m.eval(x).tobytes() == want.tobytes()
    # one probe gives a float
    assert models[-1].eval(x[0]) == pytest.approx(want[0], rel=1e-12)


# -- nearest-neighbour ratio --------------------------------------------------


def test_knn_worked_example():
    m = fit_knn([[0.0], [2.0]], [[0.0], [1.0], [3.0]], M=1)
    assert m.eval(np.array([[0.0]]))[0] == pytest.approx(1.5)


def test_knn_identical_samples_give_unit_ratio():
    rng = np.random.default_rng(25)
    pts = rng.normal(size=(12, 2))
    m = fit_knn(pts, pts, M=1)
    assert np.allclose(m.eval(pts), 1.0)


def test_knn_default_neighbour_count():
    rng = np.random.default_rng(26)
    m = fit_knn(rng.normal(size=(250, 3)), rng.normal(size=(100, 3)))
    assert m.M == math.ceil(250 ** (2.0 / 5.0))


def test_knn_rejects_m_larger_than_source():
    with pytest.raises(ValueError):
        fit_knn([[0.0], [1.0]], [[0.0]], M=3)


def test_knn_empty_ball_floor_is_flagged():
    # probe far from every target point: W = 0 floored to 1
    m = fit_knn([[0.0], [1.0]], [[100.0], [101.0]], M=1)
    vals, n_floored = eval_knn([m], np.array([[0.0]]))
    assert n_floored == [1]
    assert vals[0, 0] == pytest.approx(1.0)  # (2/2) * 1 / max(0, 1)


def test_knn_matches_exhaustive_counting(rng):
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n_s = int(rng.integers(2, 31))
        n_t = int(rng.integers(1, 31))
        src = rng.normal(size=(n_s, d))
        tgt = rng.normal(size=(n_t, d))
        if rng.random() < 0.3:  # duplicate points exercise the tie rule
            tgt[0] = src[0]
        M = int(rng.integers(1, min(5, n_s) + 1))
        x = src[0] if rng.random() < 0.3 else rng.normal(size=d)
        m = fit_knn(src, tgt, M=M)
        got = m.eval(np.atleast_2d(x))[0]
        assert got == brute_knn_ratio(src, tgt, M, x)


def test_knn_rigid_motion_invariance():
    rng = np.random.default_rng(27)
    src = rng.normal(size=(40, 3))
    tgt = rng.normal(size=(35, 3))
    probes = rng.normal(size=(20, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = rng.normal(size=3)
    base = fit_knn(src, tgt, M=3).eval(probes)
    moved = fit_knn(src @ q.T + shift, tgt @ q.T + shift, M=3).eval(probes @ q.T + shift)
    assert np.array_equal(base, moved)


def _broadcast_knn(model, x):
    """Reference for the blocked kernel: the former single-broadcast count,
    one (probes, points, d) difference array per side."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    src, tgt = model.source_points, model.target_points
    d2s = np.sum((pts[:, None, :] - src[None, :, :]) ** 2, axis=2)
    rho2 = np.partition(d2s, model.M - 1, axis=1)[:, model.M - 1]
    d2t = np.sum((pts[:, None, :] - tgt[None, :, :]) ** 2, axis=2)
    w = np.sum(d2t <= rho2[:, None], axis=1).astype(float)
    vals = (model.n_target / model.n_source) * model.M / np.maximum(w, 1)
    return vals, int(np.sum(w < 1))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("prescale", [False, True])
def test_knn_blocked_kernel_is_bitwise_the_broadcast(d, prescale):
    rng = np.random.default_rng(100 + d)
    # lattice points: many exact distance ties, and duplicates of source
    # points in the target sit exactly on the ball boundary
    src = rng.integers(-3, 4, size=(40, d)).astype(float)
    tgt = np.vstack([rng.integers(-3, 4, size=(60, d)).astype(float), src[:15],
                     rng.normal(size=(30, d)) + 40.0])
    # prescaled, every input is divided by the source's per-coordinate spread
    scale = src.std(axis=0) if prescale else np.ones(d)
    for n_probe in (1, 255, 256, 257, 513):
        probes = np.vstack([src, rng.integers(-3, 4, size=(n_probe // 2, d)).astype(float),
                            rng.normal(size=(n_probe, d))])[:n_probe] / scale
        for M in (1, 7, len(src)):
            m = fit_knn(src / scale, tgt / scale, M=M)
            (vals,), (n_floored,) = eval_knn([m], probes)
            ref_vals, ref_floored = _broadcast_knn(m, probes)
            assert np.array_equal(vals, ref_vals), (n_probe, M)
            assert n_floored == ref_floored
    noisy = rng.normal(size=(300, d))
    assert np.array_equal(_sq_dists(noisy, _lift(tgt)),
                          np.sum((noisy[:, None, :] - tgt[None, :, :]) ** 2, axis=2))
    # probes beside the source but far from every target point floor their
    # empty balls, and the count of them is unchanged
    far = fit_knn(src / scale, tgt[-30:] / scale, M=3)
    probes = rng.integers(-3, 4, size=(300, d)).astype(float) / scale
    (vals,), (n_floored,) = eval_knn([far], probes)
    ref_vals, ref_floored = _broadcast_knn(far, probes)
    assert n_floored == ref_floored > 0
    assert np.array_equal(vals, ref_vals)


def _shared_knn_models(sources, tgt, Ms):
    """knn models over one target array."""
    return [RatioModel(backend="knn", M=M, source_points=src, target_points=tgt,
                       n_source=len(src), n_target=len(tgt))
            for src, M in zip(sources, Ms)]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("prescale", [False, True])
def test_knn_shared_pass_is_bitwise_the_per_model_broadcast(d, prescale):
    rng = np.random.default_rng(200 + d)
    # lattice sources of different sizes; the target repeats some of each, so
    # duplicates sit exactly on ball boundaries, and holds a far cluster
    sources = [rng.integers(-3, 4, size=(n, d)).astype(float) for n in (40, 23, 61)]
    tgt = np.vstack([rng.integers(-3, 4, size=(60, d)).astype(float), sources[0][:15],
                     sources[1][:5], sources[2][:9], rng.normal(size=(30, d)) + 40.0])
    # prescaled, every input is divided by one per-coordinate factor
    scale = np.std(np.vstack(sources), axis=0) + 0.5 if prescale else np.ones(d)
    sources, tgt = [src / scale for src in sources], tgt / scale
    for Ms in ((len(sources[0]),), (1, 7), (7, len(sources[1]), 1)):
        k = len(Ms)
        models = _shared_knn_models(sources[:k], tgt, Ms)
        for n_probe in (1, KNN_BLOCK - 1, KNN_BLOCK, KNN_BLOCK + 1, 2 * KNN_BLOCK + 1, 257):
            probes = np.vstack([sources[0], rng.integers(-3, 4, size=(n_probe // 2, d)) / scale,
                                rng.normal(size=(n_probe, d)) / scale])[:n_probe]
            vals, floored = eval_knn(models, probes)
            assert vals.shape == (k, n_probe)
            for m, v, f in zip(models, vals, floored):
                ref_vals, ref_floored = _broadcast_knn(m, probes)
                assert np.array_equal(v, ref_vals), (k, n_probe, m.M)
                assert f == ref_floored
    # probes beside the sources but far from every target point floor their
    # empty balls in every column
    far = _shared_knn_models(sources, tgt[-30:], (3, 1, 5))
    probes = rng.integers(-3, 4, size=(3 * KNN_BLOCK + 7, d)).astype(float) / scale
    vals, floored = eval_knn(far, probes)
    for m, v, f in zip(far, vals, floored):
        ref_vals, ref_floored = _broadcast_knn(m, probes)
        assert f == ref_floored > 0
        assert np.array_equal(v, ref_vals)


def _broadcast_in_chunks(model, probes, rows=250):
    """_broadcast_knn over chunks of probe rows, so that its (probes, points,
    d) difference arrays stay small; each probe's value is its own."""
    parts = [_broadcast_knn(model, probes[lo:lo + rows]) for lo in range(0, len(probes), rows)]
    return np.concatenate([v for v, _ in parts]), sum(f for _, f in parts)


@pytest.mark.parametrize("d_kl", [1.0, 3.0])
@pytest.mark.parametrize("wrong", [False, True])
def test_knn_kernel_is_bitwise_the_broadcast_at_the_benchmark_design(d_kl, wrong):
    # the mc-knn design: sites 250/500/750 and a 2,500-point target; every
    # site's arm model probed at all sites' units of that arm, as score_table
    # does, on raw or misspecified features
    shift = ShiftConfig(site_sizes=(250, 500, 750), n_target=2500, d_kl=d_kl)
    sites, target, _ = gen_covariate_shift(shift, np.random.default_rng(300 + int(d_kl)))
    feat = misspecify_features if wrong else np.atleast_2d
    tgt = feat(target.xs)
    for arm in (1, 0):
        models = [fit_knn(feat(s.x_matrix[s.z_vec == arm]), tgt) for s in sites]
        probes = np.concatenate([feat(s.x_matrix[s.z_vec == arm]) for s in sites])
        vals, floored = eval_knn(models, probes)
        for m, v, f in zip(models, vals, floored):
            ref_vals, ref_floored = _broadcast_in_chunks(m, probes)
            assert v.tobytes() == ref_vals.tobytes(), (arm, m.n_source)
            assert f == ref_floored


def test_knn_counts_a_ball_of_more_than_65535_target_points():
    # the first probe's closed ball holds 70,000 duplicates of it, more than a
    # 16-bit count can hold; the second's ball is empty and the third's holds
    # the whole target
    tgt = np.vstack([np.zeros((70_000, 2)), np.full((5, 2), 9.0)])
    m = fit_knn([[0.0, 0.0], [40.0, 40.0]], tgt, M=1)
    probes = np.array([[0.0, 0.0], [40.0, 40.0], [9.0, 9.0]])
    (vals,), (n_floored,) = eval_knn([m], probes)
    ref_vals, ref_floored = _broadcast_knn(m, probes)
    assert vals.tobytes() == ref_vals.tobytes()
    assert n_floored == ref_floored == 1
    assert vals.tolist() == [(70_005 / 2) / 70_000, 70_005 / 2, (70_005 / 2) / 70_005]


def test_knn_shared_pass_refuses_models_that_do_not_share():
    rng = np.random.default_rng(5)
    src, tgt = rng.normal(size=(30, 3)), rng.normal(size=(50, 3))
    base = fit_knn(src, tgt, M=3)
    probes = rng.normal(size=(4, 3))
    other_target = fit_knn(src, tgt[:-1], M=3)
    tilt = RatioModel(backend="tilting", gamma=np.zeros(4), psi=IDENTITY_PLUS_INTERCEPT)
    for models in ([base, other_target], [base, tilt]):
        with pytest.raises(ValueError, match="sharing one target"):
            eval_knn(models, probes)
    # a copy of the target with equal values is shared
    copy = fit_knn(src[:20], tgt.copy(), M=2)
    vals, _ = eval_knn([base, copy], probes)
    assert np.array_equal(vals[1], copy.eval(probes))


def test_knn_rejects_probes_of_the_wrong_width():
    rng = np.random.default_rng(6)
    m = fit_knn(rng.normal(size=(30, 3)), rng.normal(size=(50, 3)), M=3)
    for width in (2, 4):
        with pytest.raises(ValueError, match=f"probes have {width} columns; the knn model has 3"):
            m.eval(rng.normal(size=(5, width)))
        with pytest.raises(ValueError, match=f"{width} columns"):
            m.eval(np.zeros(width))


# -- Gaussian oracle ----------------------------------------------------------


def test_oracle_ratio_examples():
    assert oracle_gaussian_ratio([1.0], [0.0], 1.0, [0.5]) == pytest.approx(1.0)
    x = np.array([0.3, -0.7])
    assert oracle_gaussian_ratio([0.4, 0.4], [0.4, 0.4], 2.0, x) == pytest.approx(1.0)
    assert oracle_gaussian_ratio([1.0], [0.0], 1.0, [1.0]) == pytest.approx(
        math.exp(0.5), abs=1e-12)


def test_oracle_ratio_matches_density_quotient():
    rng = np.random.default_rng(28)
    mu_s, mu_t, sigma = np.array([0.7, -0.2]), np.array([-0.1, -0.1]), 1.7
    for _ in range(20):
        x = rng.normal(size=2)
        num = np.prod(stats.norm.pdf(x, mu_s, sigma))
        den = np.prod(stats.norm.pdf(x, mu_t, sigma))
        got = oracle_gaussian_ratio(mu_s, mu_t, sigma, x)
        assert got == pytest.approx(num / den, rel=1e-10)
