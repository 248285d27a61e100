"""Message protocol: transcripts, replay, federated-vs-centralized equality,
FedAvg training dynamics, and the privacy audit."""
import re

import numpy as np
import pytest

from fedcause import (
    FedAvgDivergence,
    FedConfig,
    IDENTITY_PLUS_INTERCEPT,
    MessageLog,
    PrivacyError,
    PropensitySet,
    SiteDataset,
    TargetCovariates,
    audit_messages,
    clb_ipw,
    expected_message_count,
    fit_knn,
    replay,
    run_algorithm1,
    run_algorithm2,
    score_table,
)
from fedcause import fedsim
from fedcause.density_ratio import IDENTITY, RatioModel
from fedcause.fedsim import (MESSAGE_KINDS, SiteMessage, centralized_algorithm2,
                             fedavg_train, suggest_learning_rate)
from fedcause.nuisance import (OutcomeModel, _arm_design, assemble_propensity,
                               fit_scores, weighted_loss_and_grad)
from conftest import fuzz_dataset, fuzz_scores


def _linear_sites(rng, n_sites=2, n=30, d=2):
    sites = []
    b1, b0 = np.array([1.0, -0.5]), np.array([0.25, 0.5])
    for k in range(1, n_sites + 1):
        x = rng.normal(size=(n, d))
        z = (rng.random(n) < 0.5).astype(int)
        z[:2] = [0, 1]
        y = np.where(z == 1, x @ b1, x @ b0)
        sites.append(SiteDataset.from_arrays(k, x, z, y))
    return sites


def _const_scores(site_ids, v=0.5):
    return PropensitySet(e={(k, z): (lambda x: np.full(len(np.atleast_2d(x)), v))
                            for k in site_ids for z in (0, 1)})


def _fitted_ratios(sites, target):
    p, failed = fit_scores(sites, target, "tilting", wrong=False)
    assert failed == {}
    return {pair: score.ratio for pair, score in p.e.items()}


def test_message_count_formula():
    assert expected_message_count(3, 50, 2) == 3 * (2 * 50 * 2 + 3) + 2
    assert expected_message_count(1, 1, 2) == 1 * (2 * 1 * 2 + 3) + 2
    # general fold count: K * (2RF + F + 1) + F
    assert expected_message_count(4, 7, 3) == 4 * (2 * 7 * 3 + 3 + 1) + 3


def test_algorithm1_matches_direct_pooled_estimate(rng):
    sites, _ = fuzz_dataset(rng, n_sites=3, d=2)
    p = score_table(sites, fuzz_scores(rng, sites, 2))
    rep, log = run_algorithm1(sites, p)
    direct = clb_ipw(sites, p)
    assert rep.tau_hat == direct.tau_hat
    assert rep.var_hat == direct.var_hat
    assert (rep.ci_lo, rep.ci_hi) == (direct.ci_lo, direct.ci_hi)
    assert len(log) == 3
    assert all(m.kind == "aggregates" for m in log)


def test_algorithm1_replay_is_bitwise(rng):
    sites, _ = fuzz_dataset(rng, n_sites=2, d=1)
    p = score_table(sites, fuzz_scores(rng, sites, 1))
    rep, log = run_algorithm1(sites, p)
    again = replay(log)
    assert again == rep


def test_log_jsonl_round_trip(tmp_path, rng):
    sites, _ = fuzz_dataset(rng, n_sites=2, d=2)
    p = score_table(sites, fuzz_scores(rng, sites, 2))
    _, log = run_algorithm1(sites, p)
    line = log.messages[0].to_json_line()
    import json
    keys = list(json.loads(line).keys())
    assert keys == ["round", "from", "kind", "payload"]
    path = tmp_path / "run.msgs.jsonl"
    log.save(path)
    back = MessageLog.load(path)
    assert back == log
    assert replay(back) == replay(log)

    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=2, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    rep, log2 = run_algorithm2(sites, target, _fitted_ratios(sites, target),
                               psi_om=IDENTITY_PLUS_INTERCEPT, cfg=FedConfig(rounds=3),
                               F=2, rng=np.random.default_rng(0))
    path, path2 = tmp_path / "aipw.msgs.jsonl", tmp_path / "aipw2.msgs.jsonl"
    log2.save(path)
    back = MessageLog.load(path)
    back.save(path2)
    assert path2.read_bytes() == path.read_bytes()
    assert back == log2
    assert replay(back) == rep


def test_algorithm2_encodes_each_message_once(tmp_path, monkeypatch):
    import json
    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=2, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    ratios = _fitted_ratios(sites, target)
    calls = []
    real = json.dumps

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    _, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                            cfg=FedConfig(rounds=4), F=2, rng=np.random.default_rng(0))
    log.save(tmp_path / "run.msgs.jsonl")
    assert len(log) == expected_message_count(2, 4, 2)
    assert len(calls) == len(log)


def test_algorithm2_transcript_matches_expected_count():
    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=2, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    ratios = _fitted_ratios(sites, target)
    cfg = FedConfig(rounds=4)
    rep, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                              cfg=cfg, F=2, rng=np.random.default_rng(0))
    assert len(log) == expected_message_count(2, 4, 2)
    kinds = {m.kind for m in log}
    assert kinds <= set(MESSAGE_KINDS)
    assert replay(log) == rep


def _two_site_transcript():
    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=2, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    _, log = run_algorithm2(sites, target, _fitted_ratios(sites, target),
                            psi_om=IDENTITY_PLUS_INTERCEPT, cfg=FedConfig(rounds=2),
                            F=2, rng=np.random.default_rng(0))
    return log.messages


def test_replay_refuses_every_truncated_protocol_two_transcript():
    msgs = _two_site_transcript()
    replay(MessageLog(msgs))
    for end in range(len(msgs)):
        with pytest.raises(ValueError):
            replay(MessageLog(msgs[:end]))
    # the last message is site 2's fold-1 aggregates
    with pytest.raises(ValueError, match="fold 1: site 2 sent 0 aggregates messages"):
        replay(MessageLog(msgs[:-1]))
    # cut where fold 1 would start, the folds look complete but the units do not
    fold1 = next(i for i, m in enumerate(msgs) if m.payload.get("fold") == 1)
    with pytest.raises(ValueError, match="site 1: its aggregates over folds 0-0 cover"):
        replay(MessageLog(msgs[:fold1]))


def test_replay_refuses_a_dropped_or_repeated_fold_message():
    msgs = _two_site_transcript()
    aggs = [i for i, m in enumerate(msgs) if m.kind == "aggregates"]
    terms = [i for i, m in enumerate(msgs) if m.kind == "target_mean_term"]
    assert [msgs[i].payload["fold"] for i in terms] == [0, 1]
    first = aggs[0]
    assert (msgs[first].payload["fold"], msgs[first].payload["site_id"]) == (0, 1)
    with pytest.raises(ValueError, match="fold 0: site 1 sent 0 aggregates messages"):
        replay(MessageLog(msgs[:first] + msgs[first + 1:]))
    with pytest.raises(ValueError, match="fold 0: site 1 sent 2 aggregates messages"):
        replay(MessageLog(msgs[:first] + [msgs[first]] + msgs[first:]))
    t = terms[1]
    with pytest.raises(ValueError, match="fold 1: 2 target_mean_term messages"):
        replay(MessageLog(msgs[:t] + [msgs[t]] + msgs[t:]))
    with pytest.raises(ValueError, match="fold 1: 0 target_mean_term messages"):
        replay(MessageLog(msgs[:t] + msgs[t + 1:]))


def test_algorithm2_equals_centralized_run():
    rng = np.random.default_rng(4)
    sites = _linear_sites(rng, n_sites=3, n=20)
    target = TargetCovariates(rng.normal(size=(25, 2)))
    ratios = _fitted_ratios(sites, target)
    cfg = FedConfig(rounds=5)
    rep_f, _ = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                              cfg=cfg, F=2, rng=np.random.default_rng(11))
    rep_c, _ = centralized_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                                      cfg=cfg, F=2, rng=np.random.default_rng(11))
    assert rep_f == rep_c


def test_algorithm2_without_training_reduces_to_pooled_ipw():
    rng = np.random.default_rng(5)
    sites = _linear_sites(rng, n_sites=2, n=26)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    ratios = _fitted_ratios(sites, target)
    rep, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY,
                              train=False, rng=np.random.default_rng(0))
    counts = {(s.site_id, z): int(np.sum(s.z_vec == z)) for s in sites for z in (0, 1)}
    p = score_table(sites, assemble_propensity(ratios, counts,
                                               n_pooled=sum(counts.values())))
    direct = clb_ipw(sites, p)
    assert rep.tau_hat == direct.tau_hat
    assert rep.var_hat >= 0.0


def test_algorithm2_needs_two_target_rows(monkeypatch):
    import fedcause.fedsim as fedsim
    rng = np.random.default_rng(5)
    sites = _linear_sites(rng, n_sites=2, n=26)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    ratios = _fitted_ratios(sites, target)
    one_row = TargetCovariates(target.xs[:1])

    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained before the target check")

    monkeypatch.setattr(fedsim, "fedavg_train", no_training)
    for run in (run_algorithm2, centralized_algorithm2):
        for train in (True, False):
            with pytest.raises(ValueError, match="needs at least 2 target rows"):
                run(sites, one_row, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                    cfg=FedConfig(rounds=2), train=train, rng=np.random.default_rng(0))


def test_algorithm2_rejects_neighbour_ratio_models():
    rng = np.random.default_rng(6)
    sites = _linear_sites(rng, n_sites=1, n=20)
    target = TargetCovariates(rng.normal(size=(15, 2)))
    ratios = {(1, 1): fit_knn(sites[0].x_matrix[sites[0].z_vec == 1], target.xs, M=2),
              (1, 0): fit_knn(sites[0].x_matrix[sites[0].z_vec == 0], target.xs, M=2)}
    with pytest.raises(PrivacyError):
        run_algorithm2(sites, target, ratios, psi_om=IDENTITY)


def test_fedavg_reaches_pooled_weighted_least_squares():
    rng = np.random.default_rng(7)
    sites = _linear_sites(rng, n_sites=3, n=40)
    p = score_table(sites, _const_scores([1, 2, 3]))
    cfg = FedConfig(rounds=400)
    m1, m0, info = fedavg_train(sites, p, IDENTITY, cfg=cfg)
    assert np.allclose(m1.theta, [0.0, 1.0, -0.5], atol=1e-6)
    assert np.allclose(m0.theta, [0.0, 0.25, 0.5], atol=1e-6)
    assert info["rounds_run"] == 400


def test_fedavg_evaluates_no_score_after_the_table_is_built():
    rng = np.random.default_rng(12)
    sites = _linear_sites(rng, n_sites=3, n=30)
    calls = []

    def half(x):
        calls.append(None)
        return np.full(len(np.atleast_2d(x)), 0.5)

    table = score_table(sites, PropensitySet(e={(k, z): half for k in (1, 2, 3)
                                                for z in (0, 1)}))
    assert len(calls) == 3 * 2 * 3  # sites x arms x score columns
    calls.clear()
    fedavg_train(sites, table, IDENTITY, cfg=FedConfig(rounds=5))
    assert calls == []


def test_fedavg_builds_each_arm_design_once_per_fold(monkeypatch):
    rng = np.random.default_rng(16)
    sites = _linear_sites(rng, n_sites=3, n=30)
    table = score_table(sites, _const_scores([1, 2, 3]))
    calls = []

    def counted(site, *args, **kwargs):
        calls.append((site.site_id, args[2]))
        return _arm_design(site, *args, **kwargs)

    monkeypatch.setattr(fedsim, "_arm_design", counted)
    fedavg_train(sites, table, IDENTITY, cfg=FedConfig(rounds=5))
    assert sorted(calls) == sorted((k, arm) for k in (1, 2, 3) for arm in (1, 0))


def test_algorithm2_evaluates_each_published_score_once_per_unit(monkeypatch):
    rng = np.random.default_rng(13)
    sites = _linear_sites(rng, n_sites=2, n=30)
    target = TargetCovariates(rng.normal(size=(40, 2)))
    ratios = _fitted_ratios(sites, target)
    rows = []
    real = RatioModel.eval

    def counted(self, x):
        rows.append(len(np.atleast_2d(x)))
        return real(self, x)

    monkeypatch.setattr(RatioModel, "eval", counted)
    run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                   cfg=FedConfig(rounds=4), F=2, rng=np.random.default_rng(14))
    assert sum(rows) == sum(s.n for s in sites) * len(sites)


def test_factored_models_round_trip_exactly_and_audit_clean():
    import json
    rng = np.random.default_rng(21)
    sites = _linear_sites(rng, n_sites=2, n=30)
    target = TargetCovariates(rng.normal(size=(40, 2)))
    ratios = _fitted_ratios(sites, target)
    for m in ratios.values():
        assert m.backend == "factored"
        back = RatioModel.from_json_obj(json.loads(json.dumps(m.to_json_obj())))
        assert back.psi == m.psi
        assert np.array_equal(back.gamma, m.gamma) and np.array_equal(back.beta, m.beta)
        assert np.array_equal(back.eval(target.xs), m.eval(target.xs))
    _, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                            cfg=FedConfig(rounds=2), F=2, rng=np.random.default_rng(0))
    assert audit_messages(log) == []
    for msg in log.by_kind("publish_ratio_model"):
        for slot in ("model1", "model0"):
            assert list(msg.payload[slot]) == ["backend", "gamma", "beta", "psi"]


def _reference_fedavg(sites, table, psi, cfg, include):
    """Averaging rounds that rebuild each local objective at every round
    through weighted_loss_and_grad."""
    lr = suggest_learning_rate({s.site_id: {arm: _arm_design(s, table, psi, arm,
                                                             include.get(s.site_id))[:3]
                                            for arm in (1, 0)} for s in sites})
    theta = {arm: np.zeros(psi.output_dim(sites[0].d)) for arm in (1, 0)}
    for _ in range(cfg.rounds):
        updates = []
        for s in sites:
            inc = include.get(s.site_id)
            n_arm = {arm: int(np.sum((s.z_vec == arm) & inc)) for arm in (1, 0)}
            upd = {}
            for arm in (1, 0):
                m = OutcomeModel(arm=arm, psi=psi, theta=theta[arm].copy())
                _, grad, n_excl = weighted_loss_and_grad(m, s, table, include=inc)
                n_used = n_arm[arm] - n_excl
                th = theta[arm] if n_used == 0 else theta[arm] - (lr / n_used) * grad
                upd[arm] = (th - theta[arm], n_used)
            updates.append(upd)
        for arm in (1, 0):
            tot = sum(float(u[arm][1]) for u in updates)
            if tot <= 0.0:
                continue
            step = np.zeros(len(theta[arm]))
            for u in updates:
                if u[arm][1] > 0:
                    step += (float(u[arm][1]) / tot) * u[arm][0]
            theta[arm] = theta[arm] + step
    return theta


def test_fedavg_cached_local_step_is_bitwise_the_per_step_loss():
    rng = np.random.default_rng(15)
    sites = _linear_sites(rng, n_sites=3, n=40)
    e = {(k, z): (lambda x, c=0.1 * k + 0.05 * z: c * (1.5 + np.tanh(np.atleast_2d(x)[:, 0])))
         for k in (1, 2, 3) for z in (0, 1) if (k, z) != (2, 0)}
    table = score_table(sites, PropensitySet(e=e))
    include = {s.site_id: rng.random(s.n) < 0.7 for s in sites}
    include[3] &= sites[2].z_vec == 1  # site 3 trains no control units
    cfg = FedConfig(rounds=6)
    m1, m0, _ = fedavg_train(sites, table, IDENTITY_PLUS_INTERCEPT, cfg=cfg,
                             include=include)
    ref = _reference_fedavg(sites, table, IDENTITY_PLUS_INTERCEPT, cfg, include)
    assert m1.theta.tobytes() == ref[1].tobytes()
    assert m0.theta.tobytes() == ref[0].tobytes()
    assert not np.array_equal(m1.theta, 0.0) and not np.array_equal(m0.theta, 0.0)


def test_fedavg_loss_trace_decreases_with_suggested_rate():
    rng = np.random.default_rng(8)
    sites = _linear_sites(rng, n_sites=2, n=30)
    p = score_table(sites, _const_scores([1, 2]))
    _, _, info = fedavg_train(sites, p, IDENTITY, cfg=FedConfig(rounds=30))
    assert info["learning_rate"] > 0
    trace = info["loss_trace"]
    assert trace[-1] <= trace[0]


def test_fedavg_divergence_detection(monkeypatch):
    rng = np.random.default_rng(9)
    sites = _linear_sites(rng, n_sites=2, n=30)
    p = score_table(sites, _const_scores([1, 2]))
    monkeypatch.setattr(fedsim, "suggest_learning_rate", lambda arms: 25.0)
    with pytest.raises(FedAvgDivergence) as err:
        fedavg_train(sites, p, IDENTITY, cfg=FedConfig(rounds=60))
    assert len(err.value.trace) >= 6


def test_audit_passes_live_logs(rng):
    sites, _ = fuzz_dataset(rng, n_sites=3, d=2)
    p = score_table(sites, fuzz_scores(rng, sites, 2))
    _, log = run_algorithm1(sites, p)
    assert audit_messages(log) == []


def test_audit_flags_record_shaped_payloads():
    log = MessageLog([SiteMessage(sender=1, kind="aggregates", round=0,
                                  payload={"site_id": 1, "G1": list(range(100))})])
    issues = audit_messages(log)
    assert issues and any("raw records" in s or "length" in s for s in issues)


def test_audit_flags_unknown_kind_and_server_spoofing():
    log = MessageLog([SiteMessage(sender=2, kind="covariates", round=0, payload={})])
    assert audit_messages(log)
    log2 = MessageLog([SiteMessage(sender=2, kind="model_params", round=0,
                                   payload={"to": 1, "arm": 1, "model": {}})])
    assert any("server" in s for s in audit_messages(log2))


def test_audit_flags_published_neighbour_model_keys():
    knn = {"backend": "knn", "M": 5, "n_source": 30, "n_target": 40,
           "source_points_ref": "site-1/arm-1"}
    log = MessageLog([SiteMessage(sender=1, kind="publish_ratio_model", round=0,
                                  payload={"site_id": 1, "n1": 30, "n0": 25,
                                           "model1": knn, "model0": None})])
    issues = audit_messages(log)
    for key in ("M", "n_source", "n_target", "source_points_ref"):
        assert any(f"unexpected model key {key!r}" in s for s in issues)


@pytest.mark.parametrize("line, reason", [
    ('{"round": 0, "kind": "aggregates", "payload": {}}', "record lacks key 'from'"),
    ('[1, 2]', "record is not a JSON object"),
    ('{"round": 0, "from": 1, "kind": "aggre', ""),
])
def test_load_names_the_line_of_a_bad_record(tmp_path, line, reason):
    good = SiteMessage(1, "aggregates", 0, {"site_id": 1}).to_json_line()
    path = tmp_path / "log.jsonl"
    path.write_text(f"{good}\n\n{line}\n{good}\n")
    with pytest.raises(ValueError, match="line 3: " + re.escape(reason)):
        MessageLog.load(path)
