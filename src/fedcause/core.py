"""Shared data model, validation and CSV round-trip.

All estimator and simulator modules consume the types defined here. Types are
treated as immutable after construction and are safe to share across parallel
workers.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ESTIMATOR_NAMES = ("MetaIPW", "ClbIPW", "MetaAIPW", "ClbAIPW")

# 17 significant digits round-trips any finite float64 exactly
_FLOAT_FMT = "%.17g"
# rows formatted per `%` operation; a block's text stays near 100 KB
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class SiteDataset:
    """All units held by one data site, as three aligned arrays.

    Parameters
    ----------
    site_id : int
        1-based site index.
    x_matrix : ndarray, shape (n, d)
        Covariates, one row per unit.
    z_vec : ndarray of int, shape (n,)
        Treatment arms in {0, 1}.
    y_vec : ndarray, shape (n,)
        Outcomes.
    """

    site_id: int
    x_matrix: np.ndarray
    z_vec: np.ndarray
    y_vec: np.ndarray

    @classmethod
    def from_arrays(cls, site_id: int, x: np.ndarray, z, y) -> "SiteDataset":
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=int)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array of shape (n, d)")
        if z.shape != (len(x),) or y.shape != (len(x),):
            raise ValueError("z and y must be 1-d arrays with one entry per row of x")
        return cls(site_id=site_id, x_matrix=x, z_vec=z, y_vec=y)

    @property
    def n(self) -> int:
        return len(self.y_vec)

    @property
    def d(self) -> int:
        return self.x_matrix.shape[1]


@dataclass(frozen=True)
class TargetCovariates:
    """Public covariate sample from the population of interest, shape (n, d)."""

    xs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def d(self) -> int:
        return self.xs.shape[1]


@dataclass
class EstimateReport:
    """Point estimate with plug-in variance and a normal-quantile interval.

    ``var_hat`` is scaled so that the squared standard error equals
    ``var_hat / n_effective``; ``n_effective`` is 1 for the per-site-combined
    Meta estimator and the pooled observed count for the CLB and AIPW
    estimators.
    """

    estimator_name: str
    tau_hat: float
    var_hat: float
    n_effective: float
    ci_level: float
    ci_lo: float
    ci_hi: float
    per_site_diagnostics: list = field(default_factory=list)
    notes: str = ""

    def __post_init__(self):
        if self.estimator_name not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator_name {self.estimator_name!r}")
        if not (0.0 < self.ci_level < 1.0):
            raise ValueError("ci_level must lie in (0, 1)")
        if self.var_hat < 0:
            raise ValueError("var_hat must be non-negative")
        if not (self.ci_lo <= self.tau_hat <= self.ci_hi):
            raise ValueError("interval must bracket the point estimate")

    def to_json(self) -> str:
        obj = {
            "estimator_name": self.estimator_name,
            "tau_hat": self.tau_hat,
            "var_hat": self.var_hat,
            "n_effective": self.n_effective,
            "ci_level": self.ci_level,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "per_site_diagnostics": [list(t) for t in self.per_site_diagnostics],
            "notes": self.notes,
        }
        return json.dumps(obj)


@dataclass
class ValidationReport:
    ok: bool
    errors: list
    warnings: list


def validate_dataset(sites: Sequence[SiteDataset], target: TargetCovariates) -> ValidationReport:
    """Check the multi-site data model and report violations.

    A site with a missing treatment arm is reported as a warning, not an
    error: the pooled CLB estimators tolerate under-coverage while the
    per-site Meta estimator excludes such sites.
    """
    errors, warnings = [], []
    if not sites:
        errors.append("no sites provided")
        return ValidationReport(False, errors, warnings)

    seen = set()
    d = np.shape(sites[0].x_matrix)[-1]
    for s in sites:
        if s.site_id in seen:
            errors.append(f"duplicate site_id {s.site_id}")
        seen.add(s.site_id)
        if s.site_id < 1:
            errors.append(f"site_id {s.site_id} is not >= 1")
        if s.n == 0:
            errors.append(f"site {s.site_id} has no records")
            continue
        if (np.shape(s.x_matrix) != (s.n, d) or np.shape(s.z_vec) != (s.n,)
                or np.ndim(s.y_vec) != 1):
            errors.append(f"dimension mismatch site {s.site_id}")
        x = s.x_matrix
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(s.y_vec)):
            errors.append(f"non-finite value in site {s.site_id}")
        zv = s.z_vec
        if not np.all((zv == 0) | (zv == 1)):
            errors.append(f"site {s.site_id} has z outside {{0,1}}")
        else:
            if not np.any(zv == 0):
                warnings.append(f"site {s.site_id} lacks control units; Meta-IPW will exclude it")
            if not np.any(zv == 1):
                warnings.append(f"site {s.site_id} lacks treated units; Meta-IPW will exclude it")

    if target.n == 0:
        errors.append("target covariate set is empty")
    elif target.d != d:
        errors.append("dimension mismatch between target and sites")
    elif not np.all(np.isfinite(target.xs)):
        errors.append("non-finite value in target covariates")

    return ValidationReport(not errors, errors, warnings)


# ---------------------------------------------------------------------------
# CSV interchange. Dataset header: site_id,z,y,x1,...,xd  Target header: x1,...,xd


def _csv_line(fields) -> str:
    # what csv.writer emits for fields that need no quoting
    return ",".join(fields) + "\r\n"


def _write_rows(fh, row: str, columns) -> None:
    """Rows of the `row` format, one `%` per block of _CHUNK_ROWS rows. Each
    block goes through object dtype, so every value reaches `%` as its own
    Python scalar: an int column is never rounded through float64."""
    for a in range(0, len(columns[0]), _CHUNK_ROWS):
        block = np.column_stack([c[a:a + _CHUNK_ROWS].astype(object) for c in columns])
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_sites_csv(sites: Sequence[SiteDataset], path) -> None:
    if not sites:
        raise ValueError("no sites to write")
    d = sites[0].d
    for s in sites:
        if s.d != d:
            raise ValueError(f"site {s.site_id} has {s.d} covariates; "
                             f"site {sites[0].site_id} has {d}")
    row = _csv_line(["%d", "%d"] + [_FLOAT_FMT] * (d + 1))
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(["site_id", "z", "y"] + [f"x{j + 1}" for j in range(d)]))
        for s in sites:
            _write_rows(fh, row, [np.full(s.n, s.site_id), s.z_vec, s.y_vec, s.x_matrix])


def _read_body(fh, dtype, ndmin: int) -> np.ndarray:
    # the rows after the header, parsed in bulk; numpy's float parser is
    # correctly rounded, blank lines are skipped, and a short, long or
    # non-numeric row (or an int column holding "1.0") raises ValueError
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=ndmin)


def read_sites_csv(path) -> list:
    """Sites in ascending site_id order, each keeping its rows' file order."""
    with open(path) as fh:
        d = len(fh.readline().split(",")) - 3
        if d < 1:
            raise ValueError(f"{path}: header must be site_id,z,y,x1,...,xd")
        rows = _read_body(fh, [("site_id", np.int64), ("z", np.int64), ("y", float),
                               ("x", float, (d,))], 1)
    if len(rows) == 0:
        raise ValueError(f"{path}: no data rows")
    ids = rows["site_id"]
    return [SiteDataset.from_arrays(k, rows["x"][ids == k], rows["z"][ids == k],
                                    rows["y"][ids == k]) for k in sorted(set(ids.tolist()))]


def write_target_csv(target: TargetCovariates, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line([f"x{j + 1}" for j in range(target.d)]))
        _write_rows(fh, _csv_line([_FLOAT_FMT] * target.d), [target.xs])


def read_target_csv(path) -> TargetCovariates:
    with open(path) as fh:
        d = len(fh.readline().split(","))
        xs = _read_body(fh, float, 2)
    if len(xs) and xs.shape[1] != d:
        raise ValueError(f"{path}: header names {d} columns but rows hold {xs.shape[1]}")
    return TargetCovariates(xs=xs)
