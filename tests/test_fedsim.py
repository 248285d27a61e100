"""Message protocol: transcripts, replay, federated-vs-in-memory equality,
the one-round outcome fit, and the privacy audit."""
import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

from fedcause import (
    IDENTITY_PLUS_INTERCEPT,
    MessageLog,
    PrivacyError,
    PropensitySet,
    SiteDataset,
    TargetCovariates,
    audit_messages,
    clb_ipw,
    decoupled_aipw,
    expected_message_count,
    fit_knn,
    fit_outcome_direct,
    replay,
    run_algorithm1,
    run_algorithm2,
    score_table,
)
from fedcause import fedsim, nuisance
from fedcause.density_ratio import IDENTITY, FeatureMap
from fedcause.fedsim import MESSAGE_KINDS, SiteMessage, fit_outcome_blocks
from fedcause.nuisance import (assemble_propensity, crossfit_split, fit_scores,
                               solve_outcome_blocks)
from conftest import fuzz_dataset, fuzz_scores, usable_arm_rows


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


@pytest.mark.parametrize("n_sites", [1, 2, 3])
@pytest.mark.parametrize("F", [2, 3])
def test_message_count_formula(n_sites, F):
    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=n_sites, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    _, log = run_algorithm2(sites, target, _fitted_ratios(sites, target),
                            psi_om=IDENTITY_PLUS_INTERCEPT, F=F, rng=np.random.default_rng(0))
    # K publish messages, and per fold K outcome blocks, K aggregates and
    # one target term; the rounds argument is ignored
    assert len(log) == expected_message_count(n_sites, 7, F) == n_sites * (2 * F + 1) + F
    assert expected_message_count(n_sites, 50, F) == len(log)


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
                               psi_om=IDENTITY_PLUS_INTERCEPT, F=2, rng=np.random.default_rng(0))
    path, path2 = tmp_path / "aipw.msgs.jsonl", tmp_path / "aipw2.msgs.jsonl"
    log2.save(path)
    back = MessageLog.load(path)
    back.save(path2)
    assert path2.read_bytes() == path.read_bytes()
    assert back == log2
    assert replay(back) == rep


def test_algorithm2_encodes_each_message_once(tmp_path, monkeypatch):
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
                            F=2, rng=np.random.default_rng(0))
    log.save(tmp_path / "run.msgs.jsonl")
    assert len(log) == expected_message_count(2, 4, 2)
    assert len(calls) == len(log)


def test_algorithm2_transcript_matches_expected_count():
    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=2, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    ratios = _fitted_ratios(sites, target)
    rep, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                              F=2, rng=np.random.default_rng(0))
    assert len(log) == expected_message_count(2, 4, 2)
    kinds = {m.kind for m in log}
    assert kinds <= set(MESSAGE_KINDS)
    assert replay(log) == rep


def _two_site_transcript():
    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=2, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    _, log = run_algorithm2(sites, target, _fitted_ratios(sites, target),
                            psi_om=IDENTITY_PLUS_INTERCEPT, F=2, rng=np.random.default_rng(0))
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


def test_replay_refuses_target_terms_that_disagree_on_n_target():
    # the folds share one target sample; a server that misstates its size in
    # one fold's term would rescale that fold's target-term variance
    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=2, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    rep, log = run_algorithm2(sites, target, _fitted_ratios(sites, target),
                              psi_om=IDENTITY_PLUS_INTERCEPT, F=3, rng=np.random.default_rng(0))
    assert replay(log) == rep
    msgs = log.messages
    terms = [i for i, m in enumerate(msgs) if m.kind == "target_mean_term"]
    assert [msgs[i].payload["n_target"] for i in terms] == [30, 30, 30]
    for t in terms[1:]:
        with pytest.raises(ValueError, match=f"message {t}: target_mean_term n_target is 8, "
                                             f"but message {terms[0]} gives 30"):
            replay(MessageLog(_tampered(msgs, t, n_target=8)))
    with pytest.raises(ValueError, match=f"message {terms[1]}: target_mean_term n_target "
                                         f"is 30, but message {terms[0]} gives 8"):
        replay(MessageLog(_tampered(msgs, terms[0], n_target=8)))
    assert audit_messages(MessageLog(_tampered(msgs, terms[1], n_target=8))) == []


def _tampered(msgs, i, **changes):
    """msgs with message i's payload updated by changes; None deletes a key."""
    pay = {k: v for k, v in {**msgs[i].payload, **changes}.items() if v is not None}
    return msgs[:i] + [dataclasses.replace(msgs[i], payload=pay, line=None)] + msgs[i + 1:]


def test_replay_refuses_a_dropped_or_repeated_outcome_blocks_message():
    msgs = _two_site_transcript()
    blocks = [i for i, m in enumerate(msgs) if m.kind == "outcome_blocks"]
    assert [(msgs[i].payload["fold"], msgs[i].payload["site_id"]) for i in blocks] == [
        (0, 1), (0, 2), (1, 1), (1, 2)]
    b = blocks[2]
    with pytest.raises(ValueError, match="fold 1: site 1 sent 0 outcome_blocks messages"):
        replay(MessageLog(msgs[:b] + msgs[b + 1:]))
    with pytest.raises(ValueError, match="fold 1: site 1 sent 2 outcome_blocks messages"):
        replay(MessageLog(msgs[:b] + [msgs[b]] + msgs[b:]))


def test_replay_refuses_a_transcript_without_its_outcome_fit():
    # every protocol-two run trains, so the corrections rest on the blocks
    sites, target, p = _site_one_all_treated()
    ratios = {pair: score.ratio for pair, score in p.e.items()}
    for flavor in ("clb", "meta"):
        _, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                                flavor=flavor, F=2, rng=np.random.default_rng(4))
        msgs = [m for m in log if m.kind != "outcome_blocks"]
        assert len(msgs) == len(log) - 6
        with pytest.raises(ValueError, match="fold 0: site 1 sent 0 outcome_blocks messages"):
            replay(MessageLog(msgs))


@pytest.mark.parametrize("key, value, reason", [
    ("gram1", [1.0] * 5, "gram1 is not a list of 6 finite numbers"),
    ("cross0", [1.0] * 4, "cross0 is not a list of 3 finite numbers"),
    ("gram0", [1.0] * 5 + [float("nan")], "gram0 is not a list of 6 finite numbers"),
    ("cross1", [1.0, "abc", 2.0], "cross1 is not a list of 3 finite numbers"),
    ("cross1", None, "cross1 is not a non-empty list"),
], ids=["short-gram", "long-cross", "nan", "non-numeric", "no-cross1"])
def test_replay_refuses_a_malformed_outcome_blocks_payload(key, value, reason):
    msgs = _two_site_transcript()
    replay(MessageLog(msgs))
    i = next(i for i, m in enumerate(msgs) if m.kind == "outcome_blocks")
    with pytest.raises(ValueError, match=f"message {i}: outcome_blocks " + re.escape(reason)):
        replay(MessageLog(_tampered(msgs, i, **{key: value})))


@pytest.mark.parametrize("key, value, reason", [
    ("n1", "abc", "n1 is 'abc', not an integer from 0 to 2**53"),
    ("n0", 12.0, "n0 is 12.0, not an integer from 0 to 2**53"),
    ("n0", True, "n0 is True, not an integer from 0 to 2**53"),
    ("model1", None, "lacks model1"),
], ids=["n1-string", "n0-float", "n0-bool", "no-model1"])
def test_replay_refuses_a_malformed_published_model(key, value, reason):
    msgs = _two_site_transcript()
    assert msgs[1].kind == "publish_ratio_model"
    with pytest.raises(ValueError, match="message 1: publish_ratio_model " + re.escape(reason)):
        replay(MessageLog(_tampered(msgs, 1, **{key: value})))


def test_replay_refuses_a_second_publish_from_one_site():
    msgs = _two_site_transcript()
    assert [(m.kind, m.sender) for m in msgs[:2]] == [("publish_ratio_model", 1),
                                                      ("publish_ratio_model", 2)]
    tampered = MessageLog([msgs[0]] + msgs)
    assert audit_messages(tampered) == []  # each message alone keeps to the schema
    with pytest.raises(ValueError, match="message 1: a second publish_ratio_model message "
                                         "from site 1"):
        replay(tampered)


def test_algorithm2_refuses_a_model_sized_for_another_dimension():
    # psi (1, x) on d = 2 needs 3 coefficients; d is not on the wire, so only
    # the server, which holds the target, can size a published model
    rng = np.random.default_rng(3)
    sites = _linear_sites(rng, n_sites=2, n=24)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    ratios = _fitted_ratios(sites, target)
    m = ratios[(2, 0)]
    ratios[(2, 0)] = dataclasses.replace(m, gamma=m.gamma[:2], beta=m.beta[:2])
    with pytest.raises(ValueError, match="message 1: publish_ratio_model model0 has 2 "
                                         "coefficients; psi identity_plus_intercept on "
                                         "d = 2 needs 3"):
        run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                       rng=np.random.default_rng(0))


def _protocol_one_transcript():
    rng = np.random.default_rng(1)
    sites, _ = fuzz_dataset(rng, n_sites=3)
    rep, log = run_algorithm1(sites, score_table(sites, fuzz_scores(rng, sites, sites[0].d)))
    assert replay(log) == rep
    return log.messages


def test_replay_refuses_a_repeated_protocol_one_site():
    msgs = _protocol_one_transcript()
    with pytest.raises(ValueError, match="message 2: a second aggregates message from site 1"):
        replay(MessageLog(msgs[:2] + [msgs[0]] + msgs[2:]))
    with pytest.raises(ValueError, match="message 3: a second aggregates message from site 2"):
        replay(MessageLog(msgs + [msgs[1]]))


def test_replay_refuses_an_unknown_kind():
    mystery = SiteMessage(1, "mystery_kind", 0, {"raw_rows": [1.0, 2.0]})
    for msgs in (_protocol_one_transcript(), _two_site_transcript()):
        with pytest.raises(ValueError, match=f"message {len(msgs)}: unknown kind 'mystery_kind'"):
            replay(MessageLog(msgs + [mystery]))
    with pytest.raises(ValueError, match="message 0: unknown kind 'mystery_kind'"):
        replay(MessageLog([mystery] + _protocol_one_transcript()))


@pytest.mark.parametrize("key, value, reason", [
    ("G1", "1e3", "G1 is '1e3', not a finite number"),
    ("G1", float("nan"), "G1 is nan, not a finite number"),
    ("w2_0", None, "w2_0 is None, not a finite number"),
    ("n_floored", 1.5, "n_floored is 1.5, not an integer from 0 to 2**53"),
    # 10**400 overflows a float, and a float holds no count past 2**53 exactly
    ("G1", 10 ** 400, "G1 is an integer of 1329 bits, not a finite number"),
    ("N1", -10 ** 400, "N1 is an integer of 1329 bits, not a finite number >= 0"),
    ("n_units", 10 ** 400, "n_units is an integer of 1329 bits, not an integer from 0 to 2**53"),
    ("site_id", 10 ** 400, "site_id is an integer of 1329 bits, not an integer from 0 to 2**53"),
    ("n_floored", 2 ** 53 + 1, "n_floored is 9007199254740993, not an integer from 0 to 2**53"),
], ids=["string", "nan", "missing", "float-count", "huge-sum", "huge-sum+", "huge-count",
        "huge-site-id", "count-past-float"])
def test_replay_refuses_a_malformed_protocol_one_aggregate(key, value, reason):
    tampered = MessageLog(_tampered(_protocol_one_transcript(), 1, **{key: value}))
    [violation] = audit_messages(tampered)
    assert violation.startswith("message 1 (") and ": aggregates " + reason in violation
    with pytest.raises(ValueError, match="message 1: aggregates " + re.escape(reason)):
        replay(tampered)


@pytest.mark.parametrize("kind, key, value, reason", [
    ("aggregates", "G0", "1e3", "G0 is '1e3', not a finite number"),
    ("aggregates", "N1", float("inf"), "N1 is inf, not a finite number"),
    ("target_mean_term", "n_target", 30.5, "n_target is 30.5, not an integer from 0 to 2**53"),
    ("target_mean_term", "value", float("nan"), "value is nan, not a finite number"),
    ("aggregates", "fold", 0.7, "fold is 0.7, not an integer from 0 to 2**53"),
    ("aggregates", "fold", -1, "fold is -1, not an integer from 0 to 2**53"),
    ("outcome_blocks", "fold", True, "fold is True, not an integer from 0 to 2**53"),
    ("target_mean_term", "fold", "1", "fold is '1', not an integer from 0 to 2**53"),
], ids=["aggregate-string", "aggregate-inf", "fractional-target-count", "nan-term",
        "fractional-fold", "negative-fold", "bool-fold", "string-fold"])
def test_replay_refuses_a_malformed_protocol_two_payload(kind, key, value, reason):
    msgs = _two_site_transcript()
    i = next(i for i, m in enumerate(msgs) if m.kind == kind)
    with pytest.raises(ValueError, match=f"message {i}: {kind} " + re.escape(reason)):
        replay(MessageLog(_tampered(msgs, i, **{key: value})))


@pytest.mark.parametrize("protocol, kind", [
    ("one", "aggregates"), ("two", "aggregates"), ("two", "publish_ratio_model"),
    ("two", "outcome_blocks"), ("two", "target_mean_term"),
], ids=["one-aggregates", "two-aggregates", "published-model", "outcome-blocks",
        "target-term"])
def test_replay_refuses_a_key_outside_the_schema(protocol, kind):
    # the audit flags an added key; replay refuses it, where it used to read
    # only the keys it needs and reproduce the untampered estimate
    msgs = _protocol_one_transcript() if protocol == "one" else _two_site_transcript()
    i = next(i for i, m in enumerate(msgs) if m.kind == kind)
    tampered = MessageLog(_tampered(msgs, i, raw_y=[0.5, 1.5]))
    assert audit_messages(tampered) == [
        f"message {i} ({kind!r} from {msgs[i].sender!r}): unexpected key 'raw_y'"]
    with pytest.raises(ValueError, match=f"message {i}: {kind} key 'raw_y' is outside its schema"):
        replay(tampered)


# one value per mutation; _MISSING deletes the key
_MISSING = object()
_MUTATIONS = {"type-swap": "x", "nan": float("nan"), "inf": float("inf"),
              "-inf": float("-inf"), "negative": -3, "fraction": 0.5, "bool": True,
              "null": None, "missing": _MISSING, "long-list": [0.5] * 65,
              "long-string": "x" * 257, "huge-int": 10 ** 400}


def _field_type(msg, key):
    """The field type fedsim.SCHEMA gives key in msg's payload variant."""
    _, variants = fedsim.SCHEMA[msg.kind]
    return next(spec[key] for spec in variants.values() if set(msg.payload) <= set(spec))


def _meta_transcript():
    """Protocol two's meta flavour, with site 1's corrections as exclusions."""
    sites, target, p = _site_one_all_treated()
    rep, log = run_algorithm2(sites, target, {pair: score.ratio for pair, score in p.e.items()},
                              psi_om=IDENTITY_PLUS_INTERCEPT, flavor="meta", F=2,
                              rng=np.random.default_rng(4))
    first = next(m for m in log if m.kind == "aggregates")
    assert replay(log) == rep and first.payload["excluded"]
    return log.messages


@pytest.mark.parametrize("protocol", ["one", "two", "two-meta"])
def test_every_payload_mutation_is_refused_by_name_or_admitted_by_the_schema(protocol):
    msgs = {"one": _protocol_one_transcript, "two": _two_site_transcript,
            "two-meta": _meta_transcript}[protocol]()
    refused = admitted = 0
    for i, m in enumerate(msgs):
        cases = [(key, name, value) for key in m.payload for name, value in _MUTATIONS.items()]
        for key, name, value in cases + [("zz_extra", "extra", 1.0)]:
            pay = {k: v for k, v in m.payload.items() if k != key}
            if value is not _MISSING:
                pay[key] = value
            log = MessageLog(msgs[:i] + [dataclasses.replace(m, payload=pay, line=None)]
                             + msgs[i + 1:])
            # the schema admits a fractional sum, a negative one where the
            # sum may be negative, a null model slot and a short reason
            typ = None if name == "extra" else _field_type(m, key)
            if (typ, name) in {("sum", "negative"), ("sum", "fraction"), ("sum+", "fraction"),
                               ("model", "null"), ("reason", "type-swap")}:
                replay(log)
                assert audit_messages(log) == [], (i, key, name)
                admitted += 1
                continue
            with pytest.raises(ValueError) as err:
                replay(log)
            assert re.match(rf"message {i}: .*\b{key}\b", str(err.value)), (key, name, err.value)
            refused += 1
    assert refused > 3 * admitted > 0


def test_replay_refuses_a_second_aggregate_variant():
    msgs = _two_site_transcript()
    i = [i for i, m in enumerate(msgs) if m.kind == "aggregates"][1]
    pay = msgs[i].payload
    exclusion = {"fold": pay["fold"], "site_id": pay["site_id"], "excluded": "no arm-1 units"}
    tampered = MessageLog(msgs[:i] + [dataclasses.replace(msgs[i], payload=exclusion, line=None)]
                          + msgs[i + 1:])
    assert audit_messages(tampered) == []  # each message alone keeps to the schema
    with pytest.raises(ValueError, match=f"message {i}: aggregates holds exclusion, but this "
                                         "transcript's aggregates hold fold_sums"):
        replay(tampered)
    # protocol one sends sums only
    one = _protocol_one_transcript()
    deltas = {"fold": 0, "site_id": 2, "d1": 0.5, "d0": 0.25, "n1_hat": 3.0, "n0_hat": 2.0,
              "s2_1": 1.0, "s2_0": 1.0, "n_units": 9}
    with pytest.raises(ValueError, match="message 1: aggregates holds deltas, but this "
                                         "transcript's aggregates hold sums"):
        replay(MessageLog(one[:1] + [dataclasses.replace(one[1], payload=deltas, line=None)]
                          + one[2:]))


@pytest.mark.parametrize("protocol, kind, change, reason", [
    ("two", "aggregates", {"sender": 2}, "aggregates from is 2, not 1"),
    ("two", "aggregates", {"sender": True}, "aggregates from is True, not 1"),
    ("two", "publish_ratio_model", {"sender": "server"},
     "publish_ratio_model from is 'server', not 1"),
    ("two", "target_mean_term", {"sender": 1}, "target_mean_term from is 1, not 'server'"),
    ("two", "aggregates", {"round": 7}, "aggregates round is 7, not its fold 0"),
    ("two", "outcome_blocks", {"round": 1}, "outcome_blocks round is 1, not its fold 0"),
    ("two", "publish_ratio_model", {"round": 1},
     "publish_ratio_model round is 1, not 0, as it names no fold"),
    ("one", "aggregates", {"round": 3}, "aggregates round is 3, not 0, as it names no fold"),
    ("two", "aggregates", {"kind": ["aggregates"]}, "unknown kind a list of length 1"),
], ids=["spoofed-site", "bool-site", "server-publishes", "site-sends-server-term",
        "round-7", "blocks-round", "publish-round", "protocol-one-round", "list-kind"])
def test_replay_and_audit_refuse_a_wrong_envelope(protocol, kind, change, reason):
    msgs = _protocol_one_transcript() if protocol == "one" else _two_site_transcript()
    i = next(i for i, m in enumerate(msgs) if m.kind == kind)
    msg = dataclasses.replace(msgs[i], line=None, **change)
    tampered = MessageLog(msgs[:i] + [msg] + msgs[i + 1:])
    with pytest.raises(ValueError, match=f"message {i}: " + re.escape(reason)):
        replay(tampered)
    # a list kind is named by its length, as every fault names a list
    shown = "a list of length 1" if isinstance(msg.kind, list) else repr(msg.kind)
    where = f"message {i} ({shown} from {msg.sender!r})"
    assert audit_messages(tampered) == [f"{where}: {reason}"]


def test_spec_schema_tables_are_the_wire_schema():
    path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "spec-schema.md"
    heading = re.compile(r"^#### `(\w+)`(?: \((\w+)\))?$")
    row = re.compile(r"^\| `(\w+)` \| `([\w+?]+)` \| (\w+) \|$")
    documented, table = {}, None
    for line in path.read_text().splitlines():
        if heading.match(line):
            table = documented.setdefault(heading.match(line).groups(), {})
        elif row.match(line) and table is not None:
            key, typ, sender = row.match(line).groups()
            table[key] = (typ, sender)
    # a kind with one variant has a table without a variant name
    assert documented == {
        (kind, variant if len(variants) > 1 else None): {k: (t, sender) for k, t in spec.items()}
        for kind, (sender, variants) in fedsim.SCHEMA.items()
        for variant, spec in variants.items()}
    # replay builds SiteAggregates and MetaDeltas from exactly these keys;
    # protocol two's clb sums leave out the moments its correction multiplies by 0
    _, variants = fedsim.SCHEMA["aggregates"]
    sums, deltas = ({f.name for f in dataclasses.fields(cls)}
                    for cls in (fedsim.SiteAggregates, fedsim.MetaDeltas))
    assert set(variants["sums"]) == sums
    assert set(variants["fold_sums"]) == sums - {"w2_1", "w2y_1", "w2_0", "w2y_0"} | {"fold"}
    assert set(variants["deltas"]) == deltas | {"fold"}


def test_replay_refuses_protocol_two_sums_that_carry_unread_moments():
    msgs = _two_site_transcript()
    i = next(i for i, m in enumerate(msgs) if m.kind == "aggregates")
    unread = {"w2_1": 2.5, "w2y_1": -1.0, "w2_0": 3.0, "w2y_0": 0.5}
    for key, value in unread.items():
        tampered = MessageLog(_tampered(msgs, i, **{key: value}))
        assert audit_messages(tampered) == [
            f"message {i} ('aggregates' from {msgs[i].sender!r}): unexpected key {key!r}"]
        with pytest.raises(ValueError, match=f"message {i}: aggregates key {key!r} is outside"):
            replay(tampered)
    # with all four it still reads as fold_sums, since protocol two sends no
    # sums, and the refusal names each of the four
    tampered = MessageLog(_tampered(msgs, i, **unread))
    assert audit_messages(tampered) == [
        f"message {i} ('aggregates' from {msgs[i].sender!r}): unexpected key {key!r}"
        for key in unread]
    with pytest.raises(ValueError, match=re.escape(
            f"message {i}: aggregates key 'w2_1' is outside its schema, "
            "as are 'w2y_1', 'w2_0', 'w2y_0'")):
        replay(tampered)


def test_algorithm2_equals_centralized_run():
    rng = np.random.default_rng(4)
    sites = _linear_sites(rng, n_sites=3, n=20)
    target = TargetCovariates(rng.normal(size=(25, 2)))
    ratios = _fitted_ratios(sites, target)
    counts = {(s.site_id, z): int(np.sum(s.z_vec == z)) for s in sites for z in (0, 1)}
    table = score_table(sites, assemble_propensity(ratios, counts, sum(s.n for s in sites)))
    for flavor in ("clb", "meta"):
        rep_f, _ = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                                  flavor=flavor, F=2, rng=np.random.default_rng(11))
        rep_c = decoupled_aipw(sites, target, table, IDENTITY_PLUS_INTERCEPT, flavor=flavor,
                               fold_plan=crossfit_split(sites, 2, np.random.default_rng(11)))
        assert rep_f == rep_c


def _site_one_all_treated():
    """Three sites of 40 rows with tilting scores; site 1 has no controls, so
    its meta corrections are exclusions."""
    rng = np.random.default_rng(9)
    sites = _linear_sites(rng, n_sites=3, n=40)
    s1 = sites[0]
    sites[0] = SiteDataset.from_arrays(1, s1.x_matrix, np.ones(s1.n, dtype=int), s1.y_vec)
    target = TargetCovariates(rng.normal(size=(50, 2)))
    p, failed = fit_scores(sites, target, "tilting", wrong=False)
    assert failed == {} and (1, 0) not in p.e
    return sites, target, p


def test_algorithm2_meta_report_counts_an_excluded_site_as_decoupled_aipw_does():
    # site 1's units still count in n_pooled, in replay as in the in-memory sum
    sites, target, p = _site_one_all_treated()
    ratios = {pair: score.ratio for pair, score in p.e.items()}
    rep, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                              flavor="meta", F=2, rng=np.random.default_rng(4))
    assert sum(m.payload.get("excluded") is not None for m in log) == 2
    ref = decoupled_aipw(sites, target, score_table(sites, p), IDENTITY_PLUS_INTERCEPT,
                         flavor="meta", F=2, rng=np.random.default_rng(4))
    assert rep == ref
    assert rep.n_effective == 120


def test_meta_aipw_names_the_excluded_site_in_site_order():
    sites, target, p = _site_one_all_treated()
    ratios = {pair: score.ratio for pair, score in p.e.items()}
    rep, _ = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                            flavor="meta", F=2, rng=np.random.default_rng(4))
    ref = decoupled_aipw(sites, target, score_table(sites, p), IDENTITY_PLUS_INTERCEPT,
                         flavor="meta", F=2, rng=np.random.default_rng(4))
    for report in (rep, ref):
        diagnostics = report.per_site_diagnostics
        assert [row[:2] for row in diagnostics] == [(1, False), (2, True), (3, True)] * 2
        assert diagnostics[0][2] == "fold=0 missing arm score model"
        assert diagnostics[3][2] == "fold=1 missing arm score model"


def test_replay_does_not_depend_on_the_order_of_a_folds_aggregates():
    sites, target, p = _site_one_all_treated()
    ratios = {pair: score.ratio for pair, score in p.e.items()}
    for flavor in ("clb", "meta"):
        rep, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                                  flavor=flavor, F=2, rng=np.random.default_rng(4))
        msgs = list(log)
        fold0 = [i for i, m in enumerate(msgs)
                 if m.kind == "aggregates" and m.payload["fold"] == 0]
        assert len(fold0) == 3
        for i, m in zip(fold0, [msgs[i] for i in reversed(fold0)]):
            msgs[i] = m
        assert replay(MessageLog(msgs)) == replay(log) == rep


def test_algorithm2_needs_two_target_rows(monkeypatch):
    import fedcause.fedsim as fedsim
    rng = np.random.default_rng(5)
    sites = _linear_sites(rng, n_sites=2, n=26)
    target = TargetCovariates(rng.normal(size=(30, 2)))
    ratios = _fitted_ratios(sites, target)
    one_row = TargetCovariates(target.xs[:1])

    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained before the target check")

    monkeypatch.setattr(fedsim, "fit_outcome_blocks", no_training)
    with pytest.raises(ValueError, match="needs at least 2 target rows"):
        run_algorithm2(sites, one_row, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                       rng=np.random.default_rng(0))


def test_algorithm2_rejects_neighbour_ratio_models():
    rng = np.random.default_rng(6)
    sites = _linear_sites(rng, n_sites=1, n=20)
    target = TargetCovariates(rng.normal(size=(15, 2)))
    ratios = {(1, 1): fit_knn(sites[0].x_matrix[sites[0].z_vec == 1], target.xs, M=2),
              (1, 0): fit_knn(sites[0].x_matrix[sites[0].z_vec == 0], target.xs, M=2)}
    with pytest.raises(PrivacyError):
        run_algorithm2(sites, target, ratios, psi_om=IDENTITY)


def test_block_solve_matches_stacked_weighted_lstsq():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        sites = _linear_sites(rng, n_sites=3, n=40)
        for s in sites:
            s.y_vec[:] += rng.normal(size=s.n)
        e = {(k, z): (lambda x, a=rng.normal(0, 0.5, size=2), b=rng.uniform(0.05, 0.4):
                      b / (1 + np.exp(-np.atleast_2d(x) @ a)))
             for k in (1, 2, 3) for z in (0, 1)}
        table = score_table(sites, PropensitySet(e=e))
        for arm in (1, 0):
            theta = solve_outcome_blocks([nuisance.outcome_block(s, table, IDENTITY, arm)
                                          for s in sites], arm)
            parts = [usable_arm_rows(table, s, arm) for s in sites]
            x, y, w = (np.concatenate([t[j] for t in parts]) for j in range(3))
            D = IDENTITY.design(x)
            ref, *_ = np.linalg.lstsq(D * np.sqrt(w)[:, None], y * np.sqrt(w), rcond=None)
            worst = max(worst, np.max(np.abs(theta - ref)) / np.max(np.abs(ref)))
    assert worst <= 1e-12, worst


def test_outcome_blocks_evaluate_no_score_after_the_table_is_built():
    rng = np.random.default_rng(12)
    sites = _linear_sites(rng, n_sites=3, n=30)
    calls = []

    def half(x):
        calls.append(None)
        return np.full(len(np.atleast_2d(x)), 0.5)

    table = score_table(sites, PropensitySet(e={(k, z): half for k in (1, 2, 3)
                                                for z in (0, 1)}))
    assert len(calls) == 2 * 3  # arms x score columns, each over every site's rows
    calls.clear()
    fit_outcome_blocks(sites, table, IDENTITY, {}, 0, MessageLog())
    assert calls == []


def test_outcome_blocks_build_each_site_design_once(monkeypatch):
    rng = np.random.default_rng(16)
    sites = _linear_sites(rng, n_sites=3, n=30)
    table = score_table(sites, _const_scores([1, 2, 3]))
    calls = []

    real = FeatureMap.design

    def counted(self, x):
        calls.append(len(x))
        return real(self, x)

    monkeypatch.setattr(FeatureMap, "design", counted)
    log = MessageLog()
    for fold in (0, 1):
        include = {s.site_id: np.arange(s.n) % 2 != fold for s in sites}
        fit_outcome_blocks(sites, table, IDENTITY, include, fold, log)
    # one full-site design per site, its rows shared by both arms and folds
    assert calls == [s.n for s in sites]
    assert [m.kind for m in log] == ["outcome_blocks"] * 6


def test_outcome_blocks_are_bitwise_the_in_memory_fit():
    rng = np.random.default_rng(15)
    sites = _linear_sites(rng, n_sites=3, n=40)
    e = {(k, z): (lambda x, c=0.1 * k + 0.05 * z: c * (1.5 + np.tanh(np.atleast_2d(x)[:, 0])))
         for k in (1, 2, 3) for z in (0, 1) if (k, z) != (2, 0)}
    table = score_table(sites, PropensitySet(e=e))
    include = {s.site_id: rng.random(s.n) < 0.7 for s in sites}
    include[3] &= sites[2].z_vec == 1  # site 3 trains no control units
    log = MessageLog()
    theta1, theta0 = fit_outcome_blocks(sites, table, IDENTITY_PLUS_INTERCEPT, include, 4, log)
    for theta, arm in ((theta1, 1), (theta0, 0)):
        ref = fit_outcome_direct(sites, arm, IDENTITY_PLUS_INTERCEPT, table, include=include)
        assert theta.tobytes() == ref.tobytes()
        assert not np.array_equal(theta, 0.0)
    # site 3 sends zeros for its empty control arm
    assert log.messages[2].payload["gram0"] == [0.0] * 6
    assert audit_messages(log) == []


def test_algorithm2_evaluates_each_published_score_once_per_unit(monkeypatch):
    rng = np.random.default_rng(13)
    sites = _linear_sites(rng, n_sites=2, n=30)
    target = TargetCovariates(rng.normal(size=(40, 2)))
    ratios = _fitted_ratios(sites, target)
    rows = []
    real = nuisance.eval_ratios

    def counted(models, x):
        rows.append(len(models) * len(np.atleast_2d(x)))
        return real(models, x)

    monkeypatch.setattr(nuisance, "eval_ratios", counted)
    run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                   F=2, rng=np.random.default_rng(14))
    assert sum(rows) == sum(s.n for s in sites) * len(sites)


def test_factored_models_round_trip_exactly_and_audit_clean():
    rng = np.random.default_rng(21)
    sites = _linear_sites(rng, n_sites=2, n=30)
    target = TargetCovariates(rng.normal(size=(40, 2)))
    ratios = _fitted_ratios(sites, target)
    for m in ratios.values():
        assert m.backend == "factored"
        # fedsim's writer, JSON text, then its reader
        back, faults = fedsim._read_model(json.loads(json.dumps(fedsim._model_obj(m))))
        assert faults == [] and back.backend == "factored" and back.psi == m.psi
        assert back.gamma.tobytes() == m.gamma.tobytes()
        assert back.beta.tobytes() == m.beta.tobytes()
        assert back.eval(target.xs).tobytes() == m.eval(target.xs).tobytes()
    _, log = run_algorithm2(sites, target, ratios, psi_om=IDENTITY_PLUS_INTERCEPT,
                            F=2, rng=np.random.default_rng(0))
    assert audit_messages(log) == []
    for msg in (m for m in log if m.kind == "publish_ratio_model"):
        for slot in ("model1", "model0"):
            assert list(msg.payload[slot]) == ["backend", "gamma", "beta", "psi"]


def test_a_protocol_two_run_on_ten_covariates_audits_clean_and_replays(tmp_path):
    # p = 11 under (1, x), so each gram triangle holds 66 numbers: more than
    # AUDIT_MAX_LEN, but sized by p, which the schema caps instead
    rng = np.random.default_rng(17)
    sites = []
    for k in (1, 2):
        x = rng.normal(size=(200, 10))
        z = (rng.random(200) < 0.5).astype(int)
        sites.append(SiteDataset.from_arrays(k, x, z, x @ rng.normal(size=10) + z))
    target = TargetCovariates(rng.normal(size=(300, 10)))
    rep, log = run_algorithm2(sites, target, _fitted_ratios(sites, target),
                              psi_om=IDENTITY_PLUS_INTERCEPT, F=2, rng=np.random.default_rng(0))
    assert [len(m.payload["gram1"]) for m in log if m.kind == "outcome_blocks"] == [66] * 4
    assert audit_messages(log) == []
    log.save(tmp_path / "run.msgs.jsonl")
    assert replay(MessageLog.load(tmp_path / "run.msgs.jsonl")) == rep


_RECORDS = [1234.5 + i for i in range(100)]


@pytest.mark.parametrize("kind, key, value", [
    ("outcome_blocks", "cross1", _RECORDS[:65]),
    ("publish_ratio_model", "model1", {"gamma": _RECORDS[:65], "beta": _RECORDS[:65]}),
    ("publish_ratio_model", "model1", {"backend": "tilting", "beta": _RECORDS[:65]}),
    ("publish_ratio_model", "model1", {"gamma": "row 1234.5"}),
    ("publish_ratio_model", "model1", {"psi": ("unit 1234.5; " * 20)[:257]}),
    ("aggregates", "excluded", ("unit 1234.5; " * 20)[:257]),
    ("aggregates", "G1", _RECORDS),
    ("aggregates", "raw_y", _RECORDS),
], ids=["long-first-cross1", "long-gamma", "tilting-beta", "string-gamma", "long-psi",
        "long-reason", "list-in-scalar", "list-in-added-key"])
def test_record_shaped_payloads_are_refused_by_name_without_their_values(kind, key, value):
    msgs = _meta_transcript() if key == "excluded" else _two_site_transcript()
    i = next(i for i, m in enumerate(msgs) if m.kind == kind)
    if key == "model1":  # fields changed inside the published factored model
        assert msgs[i].payload[key]["backend"] == "factored"
        value = {**msgs[i].payload[key], **value}
    tampered = MessageLog(_tampered(msgs, i, **{key: value}))
    violations = audit_messages(tampered)
    assert len(violations) == 1
    assert violations[0].startswith(f"message {i} ({kind!r} from ") and key in violations[0]
    with pytest.raises(ValueError, match=rf"message {i}: {kind} .*\b{key}\b") as err:
        replay(tampered)
    assert all("1234.5" not in text for text in violations + [str(err.value)])


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
    log2 = MessageLog([SiteMessage(sender=2, kind="target_mean_term", round=0,
                                   payload={"fold": 0, "value": 0.0})])
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
