"""Shared fixtures, hand-rolled oracles, and the acceptance summary hook.

Acceptance tests register one line per criterion through record_criterion;
the terminal-summary hook prints them after the normal pytest output so the
pass/fail verdicts survive output capturing.
"""
import numpy as np
import pytest

from fedcause import PropensitySet, SiteDataset, TargetCovariates
from fedcause.synthgen import SelectConfig, gen_sampling_selecting

_CRITERION_LINES = []


def record_criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d}: {status}  {name}"
    if detail:
        line += f"  [{detail}]"
    _CRITERION_LINES.append((num, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# independent K-NN oracle: exhaustive loops, no tree structure


def brute_knn_ratio(source: np.ndarray, target: np.ndarray, M: int, x: np.ndarray) -> float:
    source = np.atleast_2d(np.asarray(source, dtype=float))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    x = np.asarray(x, dtype=float).reshape(-1)
    ds = np.sort(np.sqrt(np.sum((source - x) ** 2, axis=1)))
    rho = ds[M - 1]
    dt = np.sqrt(np.sum((target - x) ** 2, axis=1))
    w = int(np.sum(dt <= rho))
    return (len(target) / len(source)) * M / max(w, 1)


# ---------------------------------------------------------------------------
# two-site generative design with a smooth selection mechanism; the drop
# probability is a constant 0.55 so selection cells always sum to one exactly


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def smooth_two_site_config(n_total: int, n_target=None) -> SelectConfig:
    selection = {
        (1, 1): lambda xs: 0.10 + 0.10 * _sigmoid(xs[:, 0]),
        (1, 0): lambda xs: 0.10 + 0.10 * _sigmoid(-xs[:, 0]),
        (2, 1): lambda xs: 0.05 + 0.05 * _sigmoid(xs[:, 1]),
        (2, 0): lambda xs: 0.05 + 0.05 * _sigmoid(-xs[:, 1]),
    }
    return SelectConfig(
        n_total=n_total,
        selection=selection,
        drop=lambda xs: np.full(len(xs), 0.55),
        sampler=lambda rng, n: rng.normal(0.0, 1.0, size=(n, 2)),
        d=2,
        n_target=n_target,
    )


SMOOTH_Y1 = lambda xs: 1.0 + 0.8 * xs[:, 0] + 0.4 * xs[:, 1]
SMOOTH_Y0 = lambda xs: 0.3 * xs[:, 0] - 0.2 * xs[:, 1]
SMOOTH_TRUE_TAU = 1.0  # E[y1 - y0] at x ~ N(0, I)


def draw_smooth_two_site(n_total: int, seed: int, n_target=None):
    cfg = smooth_two_site_config(n_total, n_target=n_target)
    rng = np.random.default_rng(seed)
    return gen_sampling_selecting(cfg, (SMOOTH_Y1, SMOOTH_Y0), rng)


# ---------------------------------------------------------------------------
# disjoint-support design: each site observes one half-plane only, both of
# its arms included, so per-site scores vanish on half the target support
# while the pooled scores stay positive everywhere


def disjoint_two_site_config(n_total: int, n_target=None) -> SelectConfig:
    pos = lambda xs: (xs[:, 0] > 0).astype(float)
    neg = lambda xs: (xs[:, 0] <= 0).astype(float)
    selection = {
        (1, 1): lambda xs: pos(xs) * 0.5 * _sigmoid(0.5 * xs[:, 1] + 0.2),
        (1, 0): lambda xs: pos(xs) * 0.5 * (1.0 - _sigmoid(0.5 * xs[:, 1] + 0.2)),
        (2, 1): lambda xs: neg(xs) * 0.5 * _sigmoid(-0.3 * xs[:, 1]),
        (2, 0): lambda xs: neg(xs) * 0.5 * (1.0 - _sigmoid(-0.3 * xs[:, 1])),
    }
    return SelectConfig(
        n_total=n_total,
        selection=selection,
        drop=lambda xs: np.full(len(xs), 0.5),
        sampler=lambda rng, n: rng.normal(0.0, 1.0, size=(n, 2)),
        d=2,
        n_target=n_target,
    )


DISJOINT_Y1 = lambda xs: 1.0 + 0.8 * xs[:, 0] + 0.4 * xs[:, 1]
DISJOINT_Y0 = lambda xs: 0.3 * xs[:, 0] - 0.2 * xs[:, 1]
DISJOINT_TRUE_TAU = 1.0


def draw_disjoint_two_site(n_total: int, seed: int, n_target=None):
    cfg = disjoint_two_site_config(n_total, n_target=n_target)
    rng = np.random.default_rng(seed)
    return gen_sampling_selecting(cfg, (DISJOINT_Y1, DISJOINT_Y0), rng)


# ---------------------------------------------------------------------------
# small random multi-site datasets with strictly positive synthetic scores,
# used by the fuzzing tests (scale invariance, federated equivalence, audits)


def fuzz_dataset(rng, n_sites=None, d=None, min_n=8, max_n=40):
    n_sites = int(rng.integers(1, 4)) if n_sites is None else n_sites
    d = int(rng.integers(1, 4)) if d is None else d
    sites = []
    for k in range(1, n_sites + 1):
        n = int(rng.integers(min_n, max_n + 1))
        x = rng.normal(rng.normal(0, 0.5), 1.0, size=(n, d))
        z = rng.integers(0, 2, size=n)
        # force both arms so the pooled estimators stay well defined
        z[0], z[1] = 1, 0
        y = rng.normal(0.0, 1.0, size=n) + x @ rng.normal(0.5, 0.5, size=d)
        sites.append(SiteDataset.from_arrays(k, x, z.astype(int), y))
    n_t = int(rng.integers(6, 30))
    target = TargetCovariates(rng.normal(0.0, 1.0, size=(n_t, d)))
    return sites, target


def fuzz_scores(rng, sites, d):
    """Random smooth strictly positive selection scores for every (k, z)."""
    e = {}
    for s in sites:
        for z in (0, 1):
            a = rng.normal(0.0, 0.4, size=d)
            b = rng.uniform(0.05, 0.4)
            e[(s.site_id, z)] = (
                lambda x, a=a, b=b: b * (0.2 + 0.8 * _sigmoid(np.atleast_2d(x) @ a))
            )
    return PropensitySet(e=e)


def usable_arm_rows(table, site, arm):
    """(x, y, w) of one arm's units with a positive pooled score, w being
    1 / pooled score: the rows an outcome fit reads, from masks alone."""
    pooled = table.pooled(site.site_id)
    mask = (site.z_vec == arm) & (pooled > 0.0)
    return site.x_matrix[mask], site.y_vec[mask], 1.0 / pooled[mask]


@pytest.fixture
def rng():
    return np.random.default_rng(612)
