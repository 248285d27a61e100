"""Command line entry points: dataset generation, one-shot estimation
(optionally as a logged message protocol), and the Monte Carlo sweeps."""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from .core import (read_sites_csv, read_target_csv, validate_dataset,
                   write_sites_csv, write_target_csv)
from .density_ratio import IDENTITY_PLUS_INTERCEPT
from .estimators import clb_ipw, decoupled_aipw, meta_ipw
from .fedsim import run_algorithm1, run_algorithm2
from .harness import SweepSpec, ci_grid, oracle_shift_propensity, sweep_kl
from .nuisance import PropensitySet, fit_scores, score_table
from .synthgen import ShiftConfig, gen_covariate_shift, place_site_means

_EST_IDS = {"meta-ipw": "meta_ipw", "clb-ipw": "clb_ipw",
            "meta-aipw": "meta_aipw", "clb-aipw": "clb_aipw"}


def _load_shift_config(path) -> ShiftConfig:
    with open(path) as fh:
        return ShiftConfig(**json.load(fh))


def _cmd_generate(args) -> int:
    cfg = _load_shift_config(args.config) if args.config else ShiftConfig()
    rng = np.random.default_rng(args.seed)
    means = place_site_means(cfg.d_kl, cfg.n_sites, cfg.sigma, cfg.mu_target, rng)
    sites, target, true_tau = gen_covariate_shift(cfg, rng, means=means)
    # `estimate` loads every site_*.csv, so one this run does not write
    # would be pooled against this run's manifest
    ours = {f"site_{s.site_id}.csv" for s in sites}
    for f in sorted(glob.glob(os.path.join(glob.escape(args.out), "site_*.csv"))):
        if os.path.basename(f) not in ours:
            raise RuntimeError(f"{f} is not a site file of this run; remove it or "
                               "choose another --out")
    os.makedirs(args.out, exist_ok=True)
    for s in sites:
        write_sites_csv([s], os.path.join(args.out, f"site_{s.site_id}.csv"))
    write_target_csv(target, os.path.join(args.out, "target.csv"))
    manifest = {
        "seed": args.seed,
        "true_tau": true_tau,
        "site_means": [float(v) for v in means],
        "d_kl": cfg.d_kl,
        # the dial applies the scalar squared-deviation formula verbatim,
        # with no dimension factor
        "d_kl_convention": "sum over sites of (mu_k - mu_target)^2 / (2 sigma^2)",
        "config": cfg.to_json_obj(),
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(sites)} site files, target.csv, manifest.json to {args.out}")
    return 0


def _load_data_dir(path):
    site_files = sorted(glob.glob(os.path.join(glob.escape(path), "site_*.csv")))
    sites = []
    if site_files:
        for f in site_files:
            sites.extend(read_sites_csv(f))
    else:
        single = os.path.join(path, "sites.csv")
        if not os.path.exists(single):
            raise FileNotFoundError(f"no site_*.csv or sites.csv under {path}")
        sites = read_sites_csv(single)
    sites.sort(key=lambda s: s.site_id)
    target = read_target_csv(os.path.join(path, "target.csv"))
    manifest = None
    mpath = os.path.join(path, "manifest.json")
    if os.path.exists(mpath):
        with open(mpath) as fh:
            manifest = json.load(fh)
    return sites, target, manifest


def _build_scores(args, sites, target, manifest) -> PropensitySet:
    """Oracle scores from the manifest, or one fitted ratio model per
    (site, arm); a failed fit is an error that names its site."""
    if args.ratio == "oracle":
        if manifest is None:
            raise RuntimeError("--ratio oracle needs manifest.json in the data dir")
        shift = ShiftConfig(**manifest["config"])
        described = (shift.n_sites, list(shift.site_sizes), shift.n_target)
        loaded = (len(sites), [s.n for s in sites], target.n)
        if described != loaded:
            raise RuntimeError(f"manifest.json describes n_sites, site_sizes, n_target "
                               f"{described} but the data dir holds {loaded}")
        return oracle_shift_propensity(shift, manifest["site_means"], sites)
    p, failed = fit_scores(sites, target, args.ratio, wrong=False)
    if failed:
        site_id = min(failed)
        raise RuntimeError(f"site {site_id}: ratio fit failed: {failed[site_id]}")
    return p


def _cmd_estimate(args) -> int:
    if not 0.0 < args.ci < 1.0:
        raise ValueError("ci_level must lie in (0, 1)")
    sites, target, manifest = _load_data_dir(args.data)
    report_check = validate_dataset(sites, target)
    if not report_check.ok:
        for e in report_check.errors:
            print(f"invalid dataset: {e}", file=sys.stderr)
        return 1
    for w in report_check.warnings:
        print(f"warning: {w}", file=sys.stderr)
    est = _EST_IDS[args.estimator]

    if args.federated:
        if est not in ("clb_ipw", "clb_aipw"):
            raise RuntimeError(
                "--federated supports clb-ipw and clb-aipw; the per-site "
                "estimators need no protocol beyond their own aggregates")
        if est == "clb_ipw":
            table = score_table(sites, _build_scores(args, sites, target, manifest))
            report, log = run_algorithm1(sites, table, ci_level=args.ci)
        else:
            p = _build_scores(args, sites, target, manifest)
            ratios = {pair: score.ratio for pair, score in p.e.items()}
            report, log = run_algorithm2(
                sites, target, ratios, IDENTITY_PLUS_INTERCEPT, flavor="clb", F=args.folds,
                rng=np.random.default_rng(args.seed), ci_level=args.ci)
        if args.log:
            log.save(args.log)
            print(f"wrote {len(log)} messages to {args.log}", file=sys.stderr)
        print(report.to_json())
        return 0

    table = score_table(sites, _build_scores(args, sites, target, manifest))
    if est == "meta_ipw":
        report = meta_ipw(sites, table, ci_level=args.ci)
    elif est == "clb_ipw":
        report = clb_ipw(sites, table, ci_level=args.ci)
    else:
        flavor = "meta" if est == "meta_aipw" else "clb"
        report = decoupled_aipw(sites, target, table, IDENTITY_PLUS_INTERCEPT,
                                flavor=flavor, F=args.folds,
                                rng=np.random.default_rng(args.seed),
                                ci_level=args.ci)
    print(report.to_json())
    return 0


def _load_sweep_spec(path) -> SweepSpec:
    with open(path) as fh:
        return SweepSpec.from_json_obj(json.load(fh))


def _report_excisions(label: str, cell) -> None:
    """One stderr line for a sweep cell whose replications dropped a site."""
    if cell.n_excised:
        print(f"{label}: {cell.n_excised} of {cell.n_reps} replications dropped "
              "a site whose score fit failed", file=sys.stderr)


def _cmd_sweep_kl(args) -> int:
    spec = _load_sweep_spec(args.config) if args.config else SweepSpec()
    result = sweep_kl(spec, args.seed, args.out, jobs=args.jobs)
    for d_kl in spec.d_kl_grid:
        _report_excisions(f"d_kl {float(d_kl):g}", result.cells[(float(d_kl), spec.estimators[0])])
    print(f"wrote {args.out}")
    return 0


def _cmd_ci_grid(args) -> int:
    spec = _load_sweep_spec(args.config) if args.config else SweepSpec(
        nuisance_mode="tilting")
    for (est, ps, om), cell in ci_grid(spec, args.seed, args.out, jobs=args.jobs).items():
        if est == spec.estimators[0]:
            _report_excisions(f"ps_spec {ps}, om_spec {om}", cell)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fedcause",
        description="Collaborative treatment-effect estimation simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic multi-site dataset")
    g.add_argument("--config", help="ShiftConfig JSON file (defaults built in)")
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_generate)

    e = sub.add_parser("estimate", help="estimate the effect from a data dir")
    e.add_argument("--data", required=True)
    e.add_argument("--estimator", choices=sorted(_EST_IDS), required=True)
    e.add_argument("--ratio", choices=("tilting", "knn", "oracle"),
                   default="tilting")
    e.add_argument("--ci", type=float, default=0.95)
    e.add_argument("--folds", type=int, default=2)
    e.add_argument("--seed", type=int, default=0, help="fold-split seed")
    e.add_argument("--federated", action="store_true",
                   help="run the message protocol instead of in-memory math")
    e.add_argument("--log", help="write the message transcript (JSONL)")
    e.set_defaults(fn=_cmd_estimate)

    s = sub.add_parser("sweep-kl", help="MSE/bias sweep over the heterogeneity dial")
    s.add_argument("--config", help="SweepSpec JSON file")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(fn=_cmd_sweep_kl)

    c = sub.add_parser("ci-grid", help="interval quality over model misspecification")
    c.add_argument("--config", help="SweepSpec JSON file")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.add_argument("--jobs", type=int, default=1)
    c.set_defaults(fn=_cmd_ci_grid)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
