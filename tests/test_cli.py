"""End-to-end command line contracts."""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fedcause
from fedcause import MessageLog, SweepSpec, ShiftConfig, audit_messages, replay
from fedcause.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    # a small, mildly shifted design keeps these runs quick
    cfg = {"site_sizes": [150, 200, 250], "n_target": 400, "d_kl": 0.5}
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["generate", "--config", str(cfg_path), "--seed", "7",
               "--out", str(out / "d")])
    assert rc == 0
    return out / "d"


def test_generate_writes_expected_files(data_dir):
    names = sorted(os.listdir(data_dir))
    assert names == ["manifest.json", "site_1.csv", "site_2.csv", "site_3.csv",
                     "target.csv"]
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["true_tau"] == pytest.approx(-0.25)
    assert manifest["d_kl"] == 0.5
    assert len(manifest["site_means"]) == 3
    assert "d_kl_convention" in manifest
    assert manifest["config"]["site_sizes"] == [150, 200, 250]


def test_generate_same_seed_same_bytes(tmp_path, data_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"site_sizes": [150, 200, 250],
                                    "n_target": 400, "d_kl": 0.5}))
    rc = main(["generate", "--config", str(cfg_path), "--seed", "7",
               "--out", str(tmp_path / "again")])
    assert rc == 0
    for name in ("site_1.csv", "site_2.csv", "site_3.csv", "target.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (data_dir / name).read_bytes()


# sha256 of every file `generate` writes for a small design at seed 3; a
# change to these bytes is a change to the dataset format or the generator
GENERATE_SHA256 = {
    "manifest.json": "32b7fc6db7c6df8bb7fa73f1a22ef3a30588da4e55ceea25e28a3c91206f82f9",
    "site_1.csv": "0ec453652147523e0348d35dbe3cd04982a12fc8d3e56d14f4ccccfabcde4bcc",
    "site_2.csv": "83b6e8d1b9b2e00c91077a930f460a4b280fbc4412dec0f1d2865f0c0b493ac7",
    "target.csv": "cb99868c6bdec51b1ebb7e38021888a093d286e28e77ef403b445377857d6169",
}


def test_generate_bytes_are_pinned(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_sites": 2, "site_sizes": [7, 5], "n_target": 6,
                                    "d_kl": 0.5}))
    out = tmp_path / "d"
    assert main(["generate", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == GENERATE_SHA256


def _generate_sites(tmp_path, n_sites, out):
    cfg_path = tmp_path / f"cfg{n_sites}.json"
    cfg_path.write_text(json.dumps({"n_sites": n_sites, "site_sizes": [100] * n_sites,
                                    "n_target": 300}))
    return main(["generate", "--config", str(cfg_path), "--out", str(out)])


def test_generate_refuses_to_leave_stale_site_files(capsys, tmp_path):
    out = tmp_path / "d"
    assert _generate_sites(tmp_path, 5, out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert _generate_sites(tmp_path, 3, out) == 1
    assert capsys.readouterr().err == (f"error: {out / 'site_4.csv'} is not a site file "
                                       "of this run; remove it or choose another --out\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # rewriting the same names in place still works
    assert _generate_sites(tmp_path, 5, out) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _run_estimate(capsys, data_dir, *extra):
    rc = main(["estimate", "--data", str(data_dir), *extra])
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out.strip().splitlines()[-1])


def test_estimate_oracle_ratio(capsys, data_dir):
    rep = _run_estimate(capsys, data_dir, "--estimator", "meta-ipw",
                        "--ratio", "oracle")
    assert rep["estimator_name"] == "MetaIPW"
    assert rep["ci_lo"] <= rep["tau_hat"] <= rep["ci_hi"]
    rep = _run_estimate(capsys, data_dir, "--estimator", "clb-ipw",
                        "--ratio", "oracle")
    assert rep["estimator_name"] == "ClbIPW"


def test_estimate_fitted_ratios(capsys, data_dir):
    rep = _run_estimate(capsys, data_dir, "--estimator", "clb-aipw",
                        "--ratio", "tilting", "--seed", "3")
    assert rep["estimator_name"] == "ClbAIPW"
    rep = _run_estimate(capsys, data_dir, "--estimator", "meta-aipw",
                        "--ratio", "tilting", "--seed", "3")
    assert rep["estimator_name"] == "MetaAIPW"


def test_estimate_federated_ipw_logs_clean_transcript(capsys, data_dir, tmp_path):
    log_path = tmp_path / "run.msgs.jsonl"
    rep = _run_estimate(capsys, data_dir, "--estimator", "clb-ipw",
                        "--ratio", "tilting", "--federated",
                        "--log", str(log_path))
    log = MessageLog.load(log_path)
    assert audit_messages(log) == []
    assert replay(log).tau_hat == rep["tau_hat"]


def test_estimate_federated_aipw_round_trip(capsys, data_dir, tmp_path):
    log_path = tmp_path / "aipw.msgs.jsonl"
    rep = _run_estimate(capsys, data_dir, "--estimator", "clb-aipw",
                        "--ratio", "tilting", "--federated", "--seed", "5",
                        "--log", str(log_path))
    log = MessageLog.load(log_path)
    # each site's publish message, and per fold its outcome blocks and
    # aggregates plus the server's target term
    assert len(log) == 17
    assert audit_messages(log) == []
    back = replay(log)
    assert back.tau_hat == rep["tau_hat"]
    assert back.var_hat == rep["var_hat"]


def test_estimate_fits_a_far_dataset_in_memory_and_federated(capsys, tmp_path):
    # at heterogeneity 3 a moment-matching tilt per (site, arm) separates on
    # this dataset; the factored fit per site does not
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d_kl": 3}))
    data = tmp_path / "d"
    assert main(["generate", "--config", str(cfg_path), "--seed", "1",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    rep = _run_estimate(capsys, data, "--estimator", "clb-ipw", "--ratio", "tilting")
    assert rep["estimator_name"] == "ClbIPW"
    log_path = tmp_path / "far.msgs.jsonl"
    rep = _run_estimate(capsys, data, "--estimator", "clb-aipw", "--ratio", "tilting",
                        "--federated", "--log", str(log_path))
    log = MessageLog.load(log_path)
    assert audit_messages(log) == []
    assert replay(log).tau_hat == rep["tau_hat"]
    assert _printed_clb_aipw(capsys, data) == _printed_clb_aipw(capsys, data, "--federated")


def _printed_clb_aipw(capsys, data, *extra, ratio="tilting"):
    """stdout of one clb-aipw estimate, with tilting ratios by default."""
    rc = main(["estimate", "--data", str(data), "--estimator", "clb-aipw",
               "--ratio", ratio, *extra])
    out = capsys.readouterr().out
    assert rc == 0
    return out


@pytest.mark.parametrize("ratio", ["tilting", "oracle"])
def test_estimate_federated_aipw_prints_the_in_memory_report(capsys, data_dir, tmp_path,
                                                             ratio):
    # both paths solve the same per-site normal equations in site order; the
    # oracle scores are factored models too, so the sites publish them
    for seed in ("0", "5"):
        log_path = tmp_path / f"{ratio}{seed}.msgs.jsonl"
        out = _printed_clb_aipw(capsys, data_dir, "--seed", seed, "--federated",
                                "--log", str(log_path), ratio=ratio)
        assert out == _printed_clb_aipw(capsys, data_dir, "--seed", seed, ratio=ratio)
        log = MessageLog.load(log_path)
        assert audit_messages(log) == []
        assert replay(log).to_json() + "\n" == out


@pytest.mark.parametrize("ratio", ["tilting", "oracle"])
def test_estimate_federated_meta_aipw_prints_the_in_memory_report(capsys, data_dir, tmp_path,
                                                                  ratio):
    # protocol two's meta flavour: the outcome fit pools every site's blocks,
    # and each site sends its fold deltas
    log_path = tmp_path / f"meta-{ratio}.msgs.jsonl"
    args = ["estimate", "--data", str(data_dir), "--estimator", "meta-aipw",
            "--ratio", ratio, "--seed", "5"]
    assert main(args) == 0
    in_memory = capsys.readouterr().out
    assert main([*args, "--federated", "--log", str(log_path)]) == 0
    out = capsys.readouterr().out
    assert out == in_memory and json.loads(out)["estimator_name"] == "MetaAIPW"
    log = MessageLog.load(log_path)
    assert len(log) == 17 and audit_messages(log) == []
    assert replay(log).to_json() + "\n" == out


def test_estimate_names_the_site_of_a_failed_fit(capsys, data_dir, monkeypatch):
    from fedcause import TiltingError, nuisance

    def fail(*a, **kw):
        raise TiltingError("separation: forced", separated=True)

    monkeypatch.setattr(nuisance, "fit_logistic_ratio_blocks", fail)
    for extra in (["--estimator", "clb-ipw"], ["--estimator", "clb-aipw", "--federated"]):
        rc = main(["estimate", "--data", str(data_dir), *extra])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "", extra
        assert captured.err == "error: site 1: ratio fit failed: separation: forced\n", extra


# sha256 of the printed report and of the transcript of one federated
# clb-aipw run on data_dir; a change to these bytes is a change to the
# protocol's arithmetic or messages
FEDERATED_SHA256 = {
    "report": "298c37d43be81f933a28397b9a0f854bd562aa260ea471ed2d79fe189039c28a",
    "transcript": "e267c7681e61fb0b1b25f40f403863f03960554f75e9ed59909c55ea9058e8de",
}


def test_estimate_federated_aipw_bytes_are_pinned(capsys, data_dir, tmp_path):
    log_path = tmp_path / "pinned.msgs.jsonl"
    rc = main(["estimate", "--data", str(data_dir), "--estimator", "clb-aipw",
               "--ratio", "tilting", "--federated", "--log", str(log_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FEDERATED_SHA256["report"]
    assert hashlib.sha256(log_path.read_bytes()).hexdigest() == FEDERATED_SHA256["transcript"]


# sha256 of the printed in-memory clb-aipw report with knn ratios on the
# knn_data_dir design
KNN_REPORT_SHA256 = "4245b830652e1ba687d1ef73e290e6af1403f966a1fb0290a151f097ed8c3757"


@pytest.fixture(scope="module")
def knn_data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("knn")
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps({"site_sizes": [60, 120, 180], "n_target": 600,
                                    "d_kl": 1.0}))
    assert main(["generate", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(out / "d")]) == 0
    return out / "d"


def test_estimate_knn_report_bytes_are_pinned(capsys, knn_data_dir):
    rc = main(["estimate", "--data", str(knn_data_dir), "--estimator", "clb-aipw",
               "--ratio", "knn", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["estimator_name"] == "ClbAIPW"
    assert hashlib.sha256(out.encode()).hexdigest() == KNN_REPORT_SHA256


def test_estimate_federated_refuses_knn_ratios(capsys, knn_data_dir):
    rc = main(["estimate", "--data", str(knn_data_dir), "--estimator", "clb-aipw",
               "--ratio", "knn", "--federated"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: pair (1, 1): nearest-neighbour ratio models embed raw unit records" in err


def test_estimate_rejects_an_empty_site_file(capsys, data_dir, tmp_path):
    clone = tmp_path / "emptysite"
    clone.mkdir()
    for name in ("site_1.csv", "site_2.csv", "target.csv"):
        (clone / name).write_bytes((data_dir / name).read_bytes())
    header = (data_dir / "site_3.csv").read_text().splitlines()[0]
    (clone / "site_3.csv").write_text(header + "\n")
    rc = main(["estimate", "--data", str(clone), "--estimator", "clb-ipw"])
    err = capsys.readouterr().err
    assert rc == 1 and "error:" in err and "site_3.csv" in err


def test_estimate_aipw_needs_two_target_rows(capsys, data_dir, tmp_path):
    clone = tmp_path / "onetarget"
    clone.mkdir()
    for name in ("site_1.csv", "site_2.csv", "site_3.csv"):
        (clone / name).write_bytes((data_dir / name).read_bytes())
    # keep the row nearest the target mean, so every site ratio fit converges
    header, *rows = (data_dir / "target.csv").read_text().splitlines()
    xs = np.array([[float(v) for v in row.split(",")] for row in rows])
    central = rows[int(np.argmin(np.sum((xs - xs.mean(axis=0)) ** 2, axis=1)))]
    (clone / "target.csv").write_text(f"{header}\n{central}\n")
    for extra in (["--estimator", "clb-aipw"], ["--estimator", "meta-aipw"],
                  ["--estimator", "clb-aipw", "--federated"]):
        rc = main(["estimate", "--data", str(clone), *extra])
        captured = capsys.readouterr()
        assert rc == 1, extra
        assert captured.out == ""
        assert captured.err == ("error: the target-term variance needs at least "
                                "2 target rows\n"), extra


def test_estimate_federated_rejects_per_site_estimator(capsys, data_dir):
    rc = main(["estimate", "--data", str(data_dir), "--estimator", "meta-ipw",
               "--federated"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: --federated does not run meta-ipw")
    assert "aipw" not in err and "clb" not in err


def test_estimate_oracle_needs_manifest(capsys, data_dir, tmp_path):
    clone = tmp_path / "nomanifest"
    clone.mkdir()
    for name in ("site_1.csv", "site_2.csv", "site_3.csv", "target.csv"):
        (clone / name).write_bytes((data_dir / name).read_bytes())
    rc = main(["estimate", "--data", str(clone), "--estimator", "clb-ipw",
               "--ratio", "oracle"])
    err = capsys.readouterr().err
    assert rc == 1 and "manifest" in err


@pytest.mark.parametrize("edit", ["drop_site_3", "site_sizes", "n_target"])
def test_estimate_oracle_checks_the_manifest_against_the_data(capsys, data_dir,
                                                              tmp_path, edit):
    clone = tmp_path / "mismatch"
    clone.mkdir()
    for name in ("site_1.csv", "site_2.csv", "site_3.csv", "target.csv"):
        if not (edit == "drop_site_3" and name == "site_3.csv"):
            (clone / name).write_bytes((data_dir / name).read_bytes())
    manifest = json.loads((data_dir / "manifest.json").read_text())
    if edit == "site_sizes":
        manifest["config"]["site_sizes"] = [150, 250, 200]
    elif edit == "n_target":
        manifest["config"]["n_target"] = 401
    (clone / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["estimate", "--data", str(clone), "--estimator", "clb-ipw",
               "--ratio", "oracle"])
    captured = capsys.readouterr()
    loaded = {"drop_site_3": "(2, [150, 200], 400)", "site_sizes": "(3, [150, 200, 250], 400)",
              "n_target": "(3, [150, 200, 250], 400)"}[edit]
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: manifest.json describes n_sites, site_sizes, "
                                   "n_target (")
    assert captured.err.endswith(f" but the data dir holds {loaded}\n")


def test_estimate_rejects_a_ci_level_outside_the_unit_interval(capsys, data_dir):
    for extra in (["--estimator", "meta-ipw"], ["--estimator", "clb-aipw"],
                  ["--estimator", "clb-ipw", "--federated"],
                  ["--estimator", "clb-aipw", "--federated"]):
        rc = main(["estimate", "--data", str(data_dir), "--ci", "1.5", *extra])
        captured = capsys.readouterr()
        assert rc == 1, extra
        assert captured.out == ""
        assert captured.err == "error: ci_level must lie in (0, 1)\n", extra


def test_estimate_checks_the_ci_level_before_any_fit(capsys, data_dir, monkeypatch):
    import fedcause.harness as harness
    real = harness.fit_scores
    calls = []

    def counted(*a, **kw):
        calls.append(None)
        return real(*a, **kw)

    monkeypatch.setattr(harness, "fit_scores", counted)
    rc = main(["estimate", "--data", str(data_dir), "--estimator", "clb-aipw",
               "--federated", "--ci", "1.5"])
    assert rc == 1
    assert capsys.readouterr().err == "error: ci_level must lie in (0, 1)\n"
    assert calls == []


@pytest.mark.parametrize("field,value", [
    ("sigma", float("inf")), ("noise_sd", float("nan")), ("d_kl", "x"),
    ("mu_target", float("-inf"))])
def test_generate_refuses_a_non_finite_config_value(capsys, tmp_path, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number$"):
        ShiftConfig(**{field: value})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    out = tmp_path / "d"
    rc = main(["generate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {field} must be a finite number\n"
    assert not out.exists()


def test_estimate_warns_of_a_site_without_controls(capsys, data_dir, tmp_path):
    clone = tmp_path / "treatedonly"
    clone.mkdir()
    for name in ("site_1.csv", "site_3.csv", "target.csv"):
        (clone / name).write_bytes((data_dir / name).read_bytes())
    header, *rows = (data_dir / "site_2.csv").read_text().splitlines()
    treated = [row for row in rows if row.split(",")[1] == "1"]
    (clone / "site_2.csv").write_text("\n".join([header, *treated]) + "\n")
    rc = main(["estimate", "--data", str(clone), "--estimator", "meta-ipw"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ("warning: site 2 lacks control units; "
                            "Meta-IPW will exclude it\n")
    rep = json.loads(captured.out)
    assert [tuple(t[:2]) for t in rep["per_site_diagnostics"]] == [
        (1, True), (2, False), (3, True)]


def test_sweep_cli_round_trip(tmp_path, capsys):
    spec = SweepSpec(d_kl_grid=(0.0, 1.0), replications=2, placements=1,
                     estimators=("clb_ipw",), nuisance_mode="oracle",
                     meta_weight_mode="vanilla",
                     shift=ShiftConfig(site_sizes=(40, 50, 60), n_target=100))
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(spec.to_json_obj()))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-kl", "--config", str(cfg_path), "--seed", "2",
               "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2


def test_sweep_cli_rejects_an_unknown_config_key(tmp_path, capsys):
    spec = SweepSpec(d_kl_grid=(0.0,), estimators=("clb_ipw",),
                     meta_weight_mode="vanilla",
                     shift=ShiftConfig(site_sizes=(40, 50, 60), n_target=100))
    obj = spec.to_json_obj()
    obj["replication"] = obj.pop("replications")  # misspelled
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(obj))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-kl", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and "'replication'" in err
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("max_fail_frac", -1, "max_fail_frac must lie in [0, 1]"),
    ("max_fail_frac", 1.5, "max_fail_frac must lie in [0, 1]"),
    ("replications", 2.5, "replications must be an integer >= 1"),
    ("placements", 1.5, "placements must be an integer >= 1"),
    ("folds", 2.5, "folds must be an integer >= 2")])
def test_sweep_cli_refuses_an_out_of_range_config_value(tmp_path, capsys, field, value,
                                                        message):
    obj = SweepSpec(d_kl_grid=(0.0,), replications=2, estimators=("clb_ipw",),
                    meta_weight_mode="vanilla",
                    shift=ShiftConfig(site_sizes=(40, 50, 60), n_target=100)).to_json_obj()
    obj[field] = value
    with pytest.raises(ValueError) as exc:
        SweepSpec.from_json_obj(obj)
    assert str(exc.value) == message
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(obj))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-kl", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,jobs", [("sweep-kl", "0"), ("ci-grid", "-4")])
def test_sweep_cli_refuses_fewer_than_one_job(tmp_path, capsys, monkeypatch, command, jobs):
    from fedcause import harness
    spec = SweepSpec(d_kl_grid=(0.0,), replications=2, estimators=("clb_ipw",),
                     meta_weight_mode="vanilla",
                     shift=ShiftConfig(site_sizes=(40, 50, 60), n_target=100))
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(spec.to_json_obj()))
    reps = []
    monkeypatch.setattr(harness, "_run_one_rep", lambda *a: reps.append(a))
    out = tmp_path / "sweep.csv"
    rc = main([command, "--config", str(cfg_path), "--jobs", jobs, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: jobs must be >= 1\n"
    assert reps == [] and not out.exists()


def test_sweep_cli_reports_excisions(tmp_path, capsys, monkeypatch):
    from fedcause import TiltingError, nuisance
    spec = SweepSpec(d_kl_grid=(1.0,), replications=3, placements=1,
                     estimators=("meta_ipw", "clb_ipw"), nuisance_mode="tilting",
                     meta_weight_mode="vanilla",
                     shift=ShiftConfig(site_sizes=(50, 60, 70), n_target=150))
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(spec.to_json_obj()))
    args = ["sweep-kl", "--config", str(cfg_path), "--seed", "12",
            "--out", str(tmp_path / "sweep.csv")]
    assert main(args) == 0
    assert "dropped" not in capsys.readouterr().err

    real = nuisance.fit_logistic_ratio_blocks
    calls = []

    def fail_first(*a, **kw):
        calls.append(None)
        if len(calls) == 1:
            raise TiltingError("forced", separated=True)
        return real(*a, **kw)

    monkeypatch.setattr(nuisance, "fit_logistic_ratio_blocks", fail_first)
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "d_kl 1: 1 of 3 replications dropped a site whose score fit failed" in err


def test_ci_grid_cli_reports_excisions(tmp_path, capsys, monkeypatch):
    from fedcause import TiltingError, nuisance
    spec = SweepSpec(replications=3, placements=1, estimators=("clb_ipw",),
                     nuisance_mode="tilting", meta_weight_mode="vanilla",
                     shift=ShiftConfig(site_sizes=(50, 60, 70), n_target=150))
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(spec.to_json_obj()))
    out = tmp_path / "grid.csv"
    args = ["ci-grid", "--config", str(cfg_path), "--seed", "12", "--out", str(out)]
    assert main(args) == 0
    assert "dropped" not in capsys.readouterr().err

    real = nuisance.fit_logistic_ratio_blocks
    calls = []

    def fail_first(*a, **kw):
        calls.append(None)
        if len(calls) == 1:
            raise TiltingError("forced", separated=True)
        return real(*a, **kw)

    monkeypatch.setattr(nuisance, "fit_logistic_ratio_blocks", fail_first)
    assert main(args) == 0
    err = capsys.readouterr().err.splitlines()
    assert [ln for ln in err if "dropped" in ln] == [
        "ps_spec correct, om_spec correct: 1 of 3 replications dropped a site whose "
        "score fit failed"]


# a fresh interpreter generates a dataset, runs a federated clb-aipw estimate
# on it and a serial Monte Carlo sweep, then prints the modules those loaded
# beyond numpy's own (numpy 1.x loads numpy.ma with numpy)
_FOOTPRINT_SCRIPT = """
import json, sys
import numpy
before = set(sys.modules)
from fedcause import ShiftConfig, SweepSpec, run_monte_carlo
from fedcause.cli import main
cfg, out = sys.argv[1:]
assert main(["generate", "--config", cfg, "--seed", "1", "--out", out]) == 0
assert main(["estimate", "--data", out, "--estimator", "clb-aipw", "--federated"]) == 0
run_monte_carlo(SweepSpec(d_kl_grid=(1.0,), replications=1,
                          shift=ShiftConfig(site_sizes=(50, 60, 70), n_target=120)), seed=1)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_a_serial_run_loads_neither_the_process_pool_nor_masked_arrays(tmp_path):
    # only jobs > 1 needs a process pool; a serial run keeps its memory
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"site_sizes": [60, 80, 100], "n_target": 150}))
    src = str(pathlib.Path(fedcause.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, str(cfg_path),
                           str(tmp_path / "d")], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout.splitlines()[-1])
    assert "fedcause.harness" in added and "fedcause.fedsim" in added
    heavy = ("multiprocessing", "concurrent.futures.process", "numpy.ma")
    assert [m for m in added if any(m == h or m.startswith(h + ".") for h in heavy)] == []
