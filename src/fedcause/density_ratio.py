"""Density-ratio estimation between a source sample and target covariates.

Three backends are provided. The parametric backend is an exponential tilt
exp(psi(x)' gamma) on a feature map, fitted either by moment matching (the
convex dual of entropy balancing) or by logistic discrimination of source
against target; one block Newton loop solves both. The factored backend
multiplies such a tilt by a logistic arm propensity expit(psi(x)' beta). The
nonparametric backend forms a ratio of nearest-neighbour counts. An analytic
Gaussian oracle supports testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

FEATURE_MAP_NAMES = ("identity", "identity_plus_intercept", "misspecified")


def misspecify_features(x) -> np.ndarray:
    """Wrong-model covariate transform (x1*x2, x2^2, x3/max(1, x1*x2)) of
    3-d covariates; other widths raise ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("misspecified transform requires d = 3")
    x2d = np.atleast_2d(x)
    f1 = x2d[:, 0] * x2d[:, 1]
    f2 = x2d[:, 1] ** 2
    f3 = x2d[:, 2] / np.maximum(1.0, f1)
    out = np.column_stack([f1, f2, f3])
    return out[0] if x.ndim == 1 else out


def _with_constant(x2d: np.ndarray) -> np.ndarray:
    """(1, x) rows: a ones column, then x, copied a column at a time, which
    is faster than one strided copy of the block."""
    out = np.empty((len(x2d), x2d.shape[1] + 1))
    out[:, 0] = 1.0
    for j in range(x2d.shape[1]):
        out[:, j + 1] = x2d[:, j]
    return out


@dataclass(frozen=True)
class FeatureMap:
    """Named representation function psi.

    identity                x -> x
    identity_plus_intercept x -> (1, x)
    misspecified            x -> (1, x1*x2, x2^2, x3/max(1, x1*x2)); the
                            constant column keeps a free normalization when
                            the map is used for ratio fitting
    """

    name: str

    def __post_init__(self):
        if self.name not in FEATURE_MAP_NAMES:
            raise ValueError(f"unknown feature map {self.name!r}")

    @property
    def has_intercept(self) -> bool:
        return self.name != "identity"

    def output_dim(self, d: int) -> int:
        if self.name == "identity":
            return d
        if self.name == "identity_plus_intercept":
            return d + 1
        return 4

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x2d = np.atleast_2d(x)
        if self.name == "identity":
            out = x2d
        elif self.name == "identity_plus_intercept":
            out = _with_constant(x2d)
        else:
            out = _with_constant(misspecify_features(x2d))
        return out[0] if single else out

    def design(self, x) -> np.ndarray:
        """Regression design: apply() with a constant column guaranteed."""
        f = self.apply(x)
        if self.has_intercept:
            return f
        out = _with_constant(np.atleast_2d(f))
        return out[0] if f.ndim == 1 else out


IDENTITY = FeatureMap("identity")
IDENTITY_PLUS_INTERCEPT = FeatureMap("identity_plus_intercept")
MISSPECIFIED = FeatureMap("misspecified")


class TiltingError(Exception):
    """A tilt fit (moment matching or logistic) did not converge.

    Attributes: ``residual`` is the last Newton decrement, ``iterations`` the
    Newton iterations used, ``separated`` flags the case where no finite fit
    exists: the target moments lie outside the reachable set and the dual is
    unbounded below, or the logistic labels are separated.
    """

    def __init__(self, message, residual=float("nan"), iterations=0, separated=False):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.separated = separated


# probes per block of the nearest-neighbour kernel; a distance buffer takes 256 B per target
# point, in a 2 MB L2 for 2,500 points (mc-knn) but not for the full design's 10,000
KNN_BLOCK = 32


def _lift(points: np.ndarray) -> np.ndarray:
    """(d, 2, n) rows (1, t_j) per coordinate j of n points: [p_j, -1] @
    (1, t_j) is p_j - t_j exactly, as both products are exact."""
    return np.stack((np.ones((points.shape[1], len(points))), points.T), axis=1)


def _sq_dists(probes: np.ndarray, lifted: np.ndarray, buf=None) -> np.ndarray:
    """(len(probes), n) squared Euclidean distances to the n points of lifted
    = _lift(points), one product p_j - t_j per coordinate, squared and added
    from the left: for fewer than 8 coordinates, bitwise the sum over the last
    axis of the broadcast difference. Result and temporary live in buf if given."""
    left = np.stack((probes.T, np.full(probes.T.shape, -1.0)), axis=2)
    shape = (2, len(probes), lifted.shape[2])
    out, diff = np.empty(shape) if buf is None else buf[:np.prod(shape)].reshape(shape)
    np.matmul(left[0], lifted[0], out=out)
    out *= out
    for a, b in zip(left[1:], lifted[1:]):
        np.matmul(a, b, out=diff)
        diff *= diff
        out += diff
    return out


def eval_knn(models, x):
    """(values, n_floored) at probes x of knn models sharing one target_points
    array: a (K, n) array and K counts. A probe block's target distances are
    computed once for all models; squared distances on both sides keep
    boundary ties (duplicate points) inside the closed ball."""
    tgt = models[0].target_points
    if not all(m.backend == "knn" and np.array_equal(m.target_points, tgt) for m in models):
        raise ValueError("eval_knn needs knn models sharing one target")
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != tgt.shape[1]:
        raise ValueError(f"probes have {pts.shape[1]} columns; the knn model has {tgt.shape[1]}")
    w = np.empty((len(models), len(pts)))
    buf = np.empty(2 * KNN_BLOCK * (len(tgt) + max(m.n_source for m in models)))
    lifted, sources = _lift(tgt), [_lift(m.source_points) for m in models]
    for lo in range(0, len(pts), KNN_BLOCK):
        block = pts[lo:lo + KNN_BLOCK]
        d2t = _sq_dists(block, lifted, buf)
        # each model's squared radius, copied along its row into the free half;
        # counts sum in uint32, as uint16 would wrap above 65,535 points
        rho2 = buf[d2t.size:2 * d2t.size].reshape(d2t.shape)
        for wk, m, src in zip(w, models, sources):
            d2s = _sq_dists(block, src, buf[2 * d2t.size:])
            d2s.partition(m.M - 1, axis=1)
            np.copyto(rho2, d2s[:, m.M - 1, None])
            wk[lo:lo + KNN_BLOCK] = (d2t <= rho2).view(np.uint8).sum(axis=1, dtype=np.uint32)
    c = np.array([(m.n_target / m.n_source) * m.M for m in models])
    return c[:, None] / np.maximum(w, 1), [int(np.sum(wk < 1)) for wk in w]


@dataclass
class RatioModel:
    """A fitted density-ratio function of x.

    backend "tilting": eval(x) = exp(psi(x)' gamma), strictly positive.
    backend "factored": eval(x) = exp(psi(x)' gamma) * expit(psi(x)' beta), a
    tilt times a logistic arm propensity on the same feature map.
    backend "knn": eval(x) = (n_target/n_source) * M / max(W, 1) where W
    counts target points inside the closed ball reaching x's M-th nearest
    source neighbour.
    """

    backend: str
    gamma: Optional[np.ndarray] = None
    psi: Optional[FeatureMap] = None
    beta: Optional[np.ndarray] = None
    M: Optional[int] = None
    source_points: Optional[np.ndarray] = None
    target_points: Optional[np.ndarray] = None
    n_source: Optional[int] = None
    n_target: Optional[int] = None
    fit_info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.backend not in ("tilting", "factored", "knn"):
            raise ValueError(f"unknown backend {self.backend!r}")

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        vals = eval_ratios([self], x)[0]
        return float(vals[0]) if x.ndim == 1 else vals


def eval_ratios(models: Sequence[RatioModel], x) -> np.ndarray:
    """(K, n) values at probes x of K models that share one pass: knn models
    sharing a target (eval_knn), or tilting and factored models on the
    feature map of the first, for which psi(x) is formed once."""
    if models[0].backend == "knn":
        return eval_knn(models, x)[0]
    f = np.atleast_2d(models[0].psi.apply(x))
    out = np.empty((len(models), len(f)))
    for vals, m in zip(out, models):
        np.exp(f @ m.gamma, out=vals)
        if m.backend == "factored":
            vals *= expit(f @ m.beta)
    return out


def _unstandardize(g, mu, sd, has_intercept: bool) -> np.ndarray:
    graw = g / sd
    if has_intercept:
        graw[0] = g[0] - float(((mu / sd)[1:] * g[1:]).sum())
    return graw


def expit(t) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-t)); exp(-t) may overflow to inf,
    which gives the correct limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))


# a logistic fit has converged once half its Newton decrement is at most
# LOGISTIC_TOL, and gives up after LOGISTIC_MAX_ITER Newton steps
LOGISTIC_TOL = 1e-10
LOGISTIC_MAX_ITER = 100


class LogisticBlock(NamedTuple):
    """One party's rows in a logistic fit: its psi-features standardized by
    the fit's map and stored one feature per row, (p, n), with their column
    means and centred cross-product matrix."""

    features: np.ndarray
    mean: np.ndarray
    scatter: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LogisticScale:
    """The affine map a logistic fit works in: (psi(x) - mu) / sd with the
    intercept column held at 1, or psi(x) / sd when psi has no intercept.
    One party announces it from its own features and every party applies it
    to its own rows, so a party's block is built once for all its fits."""

    psi: FeatureMap
    mu: np.ndarray
    sd: np.ndarray

    @classmethod
    def announce(cls, psi: FeatureMap, x) -> Tuple["LogisticScale", LogisticBlock]:
        """The map set by the feature means and sds of x, and x's block."""
        f = _feature_rows(psi, x)
        mean = f.mean(axis=1)
        sd = np.sqrt(np.mean((f - mean[:, None]) ** 2, axis=1))
        sd[sd == 0] = 1.0
        scale = cls(psi, mean if psi.has_intercept else np.zeros(len(mean)), sd)
        return scale, scale._standardize(f)

    def block(self, x) -> LogisticBlock:
        """The block of x under this map."""
        return self._standardize(_feature_rows(self.psi, x))

    def _standardize(self, f: np.ndarray) -> LogisticBlock:
        """The block of the feature rows f, standardized in place."""
        f -= self.mu[:, None]
        f /= self.sd[:, None]
        if self.psi.has_intercept:
            f[0] = 1.0
        mean = f.mean(axis=1)
        c = f - mean[:, None]
        return LogisticBlock(f, mean, c @ c.T)


def _feature_rows(psi: FeatureMap, x) -> np.ndarray:
    """A new (p, n) array of psi(x), one feature per row."""
    return np.array(psi.apply(np.atleast_2d(np.asarray(x, dtype=float))).T, order="C")


def _pooled_scale(blocks: Sequence[LogisticBlock], has_icpt: bool) -> np.ndarray:
    """T with T @ b the coefficients b in the features standardized by the
    pooled column means and sds of every block's rows. The pooled moments
    combine the blocks' own (Chan, Golub and LeVeque, 1979)."""
    n = np.array([blk.n for blk in blocks], dtype=float)
    means = np.array([blk.mean for blk in blocks])
    mean = n @ means / n.sum()
    m2 = sum(np.diag(blk.scatter) for blk in blocks) + n @ (means - mean) ** 2
    s = np.sqrt(m2 / n.sum())
    s[s == 0] = 1.0
    T = np.diag(s)
    if has_icpt:
        T[0, 0] = 1.0
        T[0, 1:] = mean[1:]
    return T


def _logistic_loss(t):
    """log(1 + exp(t)) summed over rows, and its derivative expit(t) per row,
    sharing one exp(-|t|)."""
    e = np.exp(-np.abs(t))
    return (float(np.sum(np.maximum(t, 0.0) + np.log1p(e))),
            np.maximum(e, t >= 0.0) / (1.0 + e))


def _exponential_loss(t):
    """exp(t) summed over rows, and its derivative exp(t) per row."""
    with np.errstate(over="ignore"):
        e = np.exp(t)
    return float(np.sum(e)), e


def _linear_loss(t):
    """-t summed over rows, and its derivative -1 per row."""
    return -float(np.sum(t)), np.full(len(t), -1.0)


# the second derivative per row of each curved loss, from its first
_CURVATURE = {_logistic_loss: lambda q: q * (1.0 - q), _exponential_loss: lambda e: e}


def _newton_blocks(blocks, T: np.ndarray, start: Optional[np.ndarray] = None):
    """Minimize the sum over ``blocks`` of (features, loss) of each row's loss
    of t = b @ features by Newton's method, with the stops, step halving and
    block-order sums of fit_logistic_blocks; T maps b to the pooled scale,
    and the own-side test needs every block logistic. Hessian weights are
    formed at accepted iterates only. It starts at ``start`` if that passes
    the separation tests with a loss no larger than at zero, else at zero.
    Returns (b, step, fit_info), step being the Newton step at b.
    """
    n = sum(a.shape[1] for a, _ in blocks)
    logistic = all(loss is _logistic_loss for _, loss in blocks)

    def separated(b, fitted):
        return ((logistic and all((t < 0.0).all() for t, _ in fitted))
                or float(np.linalg.norm(T @ b)) > 50.0)

    def evaluate(b):
        """The summed loss, and each block's predictor and derivative."""
        f, fitted = 0.0, []
        for a, loss in blocks:
            t = b @ a
            ft, d = loss(t)
            f += ft
            fitted.append((t, d))
        return f, fitted

    b = np.zeros(T.shape[0])
    if start is not None:
        # each row's loss at zero is loss(0), so the loss at zero needs no pass
        cand = evaluate(start)
        if (cand[0] <= sum(a.shape[1] * loss(np.zeros(1))[0] for a, loss in blocks)
                and not separated(start, cand[1])):
            b = start
    cur, fitted = cand if b is start else evaluate(b)
    dec = math.inf
    for it in range(1, LOGISTIC_MAX_ITER + 1):
        if separated(b, fitted):
            raise TiltingError(
                f"separation: no maximum likelihood estimate after {it - 1} iterations",
                residual=dec, iterations=it - 1, separated=True)
        grad = np.zeros(len(b))
        H = np.zeros((len(b), len(b)))
        for (a, loss), (_, d) in zip(blocks, fitted):
            grad += a @ d
            if loss in _CURVATURE:
                H += (a * _CURVATURE[loss](d)) @ a.T
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, -grad, rcond=None)[0]
        dec = float(-grad @ step)
        if 0.5 * dec <= LOGISTIC_TOL:
            # quasi-complete separation also ends with a vanishing decrement;
            # tell it by a direction of near-zero information that still
            # moves the linear predictor (a collinear feature moves nothing)
            Tinv = np.linalg.inv(T)
            lam, vec = np.linalg.eigh(Tinv.T @ H @ Tinv / n)
            flat = Tinv @ vec[:, lam <= 1e-9]
            if flat.size and np.max(sum(np.sum((flat.T @ a) ** 2, axis=1)
                                        for a, _ in blocks) / n) > 1e-6:
                raise TiltingError(
                    f"separation: no maximum likelihood estimate, the likelihood "
                    f"is flat along a direction after {it} iterations",
                    residual=0.5 * dec, iterations=it, separated=True)
            return b, step, {"iterations": it, "residual": 0.5 * dec, "stop": "converged"}
        ts = 1.0
        for _ in range(50):
            cand = evaluate(b + ts * step)
            if cand[0] <= cur:
                break
            ts *= 0.5
        else:
            raise TiltingError(
                f"stalled: no decrease along the Newton step, decrement {dec:.3g}",
                residual=dec, iterations=it, separated=False)
        b = b + ts * step
        cur, fitted = cand
    raise TiltingError(
        f"no convergence in {LOGISTIC_MAX_ITER} iterations, Newton decrement {dec:.3g}",
        residual=dec, iterations=LOGISTIC_MAX_ITER, separated=False)


def fit_logistic_blocks(blocks, scale: LogisticScale):
    """Maximum-likelihood logistic regression over row blocks:
    P(label = 1 | x) = expit(psi(x)' beta) on the rows of every block.

    ``blocks`` is a sequence of (LogisticBlock, labels), each block built
    with ``scale``; labels is an array of 0/1 per row, or one 0/1 label for
    the whole block. Newton's method starts from Fisher's discriminant,
    formed from block moments (_discriminant), when psi has an intercept and
    that start passes _newton_blocks' checks, and from zero otherwise. Each
    evaluation sums the blocks' negative log-likelihood, gradient and Hessian
    in block order, so no block is stacked with another (the split of Wu et
    al., JAMIA 2012). Steps are halved until the negative log-likelihood does
    not increase. The fit stops for one of four reasons:

    - converged: half the squared Newton decrement (the predicted remaining
      decrease of the negative log-likelihood) is <= LOGISTIC_TOL; the fit
      returns the last iterate plus its Newton step, the maximum likelihood
      estimate to rounding;
    - separated: the current coefficients put every row strictly on its own
      label's side, their norm exceeds 50, or the decrement vanished while
      the information per row along some direction of the linear predictor
      is <= 1e-9 (quasi-complete separation); the maximum likelihood estimate
      does not exist and TiltingError is raised with separated=True;
    - stalled: step halving finds no decrease; TiltingError, separated=False;
    - capped: TiltingError with separated=False after LOGISTIC_MAX_ITER steps.

    The norm and the information are read in the features standardized by
    the pooled means and sds of all rows, whatever map ``scale`` announces.
    Labels of a single class are separated by definition. Returns (beta,
    fit_info) with beta on the scale of psi(x).
    """
    # each row's features are multiplied by s = 1 - 2 * label, so its signed
    # predictor t = s * eta is b @ features, negative on its own side; its
    # loss is log(1 + exp(t)) and its gradient features * expit(t)
    signed, labelled = [], []
    for blk, labels in blocks:
        y = np.asarray(labels, dtype=float)
        if y.ndim and y.shape != (blk.n,):
            raise ValueError("a block needs one label per row")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0 or 1")
        labelled.append((blk, y))
        signed.append((blk.features * (1.0 - 2.0 * y) if np.any(y) else blk.features,
                       _logistic_loss))
    if sum(blk.n for blk, _ in blocks) == 0:
        raise ValueError("a logistic fit needs rows")
    if all(not np.any(y) for _, y in labelled) or all(np.all(y) for _, y in labelled):
        raise TiltingError("separation: every label is the same", residual=math.inf,
                           iterations=0, separated=True)
    has_icpt = scale.psi.has_intercept
    T = _pooled_scale([blk for blk, _ in blocks], has_icpt)
    b, step, info = _newton_blocks(signed, T, _discriminant(labelled) if has_icpt else None)
    return _unstandardize(b + step, scale.mu, scale.sd, has_icpt), info


def _discriminant(labelled) -> Optional[np.ndarray]:
    """Fisher's linear discriminant of label 1 against 0 over (LogisticBlock,
    labels) pairs whose first feature is the constant, from each block's
    moments and its label-1 rows' count and sum: the logistic coefficients
    when both labels' rows are Gaussian with one covariance (Efron, JASA
    1975). None if a label has no rows or the within-label scatter is singular."""
    n = sum(blk.n for blk, _ in labelled)
    mean = sum(blk.n * blk.mean for blk, _ in labelled) / n
    n1 = sum(np.sum(y) if y.ndim else y * blk.n for blk, y in labelled)
    if not 0 < n1 < n:
        return None
    mean1 = sum(blk.features @ y if y.ndim else y * blk.n * blk.mean for blk, y in labelled) / n1
    # d = mean1 - mean0; within labels, the scatter is the pooled less n1 n0 / n d d'
    d = (mean1 - mean) * n / (n - n1)
    within = sum(blk.scatter + blk.n * np.outer(blk.mean - mean, blk.mean - mean)
                 for blk, _ in labelled) - n1 * (n - n1) / n * np.outer(d, d)
    try:
        w = np.linalg.solve(within[1:, 1:] / n, d[1:])
    except np.linalg.LinAlgError:
        return None
    return np.r_[math.log(n1 / (n - n1)) - w @ (mean1 - d / 2.0)[1:], w]


def fit_tilting(source, target, psi: FeatureMap = IDENTITY_PLUS_INTERCEPT) -> RatioModel:
    """Fit exp(psi(x)' gamma) so source units reweighted by it match target
    feature totals: sum_source psi exp(psi' gamma) = sum_target psi.

    Minimizes the convex dual of entropy balancing (Hainmueller, Political
    Analysis 2012), sum_source exp(psi' gamma) - gamma' sum_target psi, by
    the loop of fit_logistic_blocks on a source block with loss exp(t) and a
    target block with loss -t, standardized by the source's map. It stops as
    that fit does, separated when the dual is unbounded below; once it has
    converged, one more Newton step takes gamma to rounding.

    The returned model reweights source toward target: it estimates
    (n_target/n_source) p_target/p_source, not the selection-side ratio.
    """
    src = np.atleast_2d(np.asarray(source, dtype=float))
    tgt = np.atleast_2d(np.asarray(target, dtype=float))
    if src.size == 0 or tgt.size == 0:
        raise ValueError("source and target must be non-empty")
    if src.shape[1] != tgt.shape[1]:
        raise ValueError("source and target dimension mismatch")
    scale, src_block = LogisticScale.announce(psi, src)
    tgt_block = scale.block(tgt)
    T = _pooled_scale([src_block, tgt_block], psi.has_intercept)
    b, step, info = _newton_blocks([(src_block.features, _exponential_loss),
                                    (tgt_block.features, _linear_loss)], T)
    gamma = _unstandardize(b + step, scale.mu, scale.sd, psi.has_intercept)
    return RatioModel(backend="tilting", gamma=gamma, psi=psi, fit_info=info)


def fit_logistic_ratio_blocks(source: LogisticBlock, target: LogisticBlock,
                              scale: LogisticScale) -> RatioModel:
    """Exponential-tilt model of p_source/p_target fitted by logistic
    discrimination of source against target (Qin, Biometrika 1998).

    The pooled-sample log-odds of "source" is psi(x)' beta; the density ratio
    is exp(psi(x)' beta) * n_target / n_source, so log(n_target/n_source) is
    added to the intercept, which psi must have. The fit is
    fit_logistic_blocks on the source block labelled 1 and the target block
    labelled 0, both built with ``scale``. Where fit_tilting needs the
    target's moments inside the source's reachable set, this fit exists
    unless a hyperplane in psi-space separates the two samples, however far
    apart their means lie. Raises TiltingError as fit_logistic_blocks does.
    """
    beta, info = fit_logistic_blocks([(source, 1.0), (target, 0.0)], scale)
    beta[0] += math.log(target.n / source.n)
    return RatioModel(backend="tilting", gamma=beta, psi=scale.psi, fit_info=info)


def fit_knn(source, target, M: Optional[int] = None) -> RatioModel:
    """Nearest-neighbour count-ratio estimator of p_source / p_target.

    For a probe x, rho is the Euclidean distance to its M-th nearest source
    point and W counts target points with distance <= rho (closed ball, ties
    included). The estimate is (n_target/n_source) * M / max(W, 1); the floor
    guards empty balls, and eval_knn counts the probes it floors. M
    defaults to ceil(n_source^(2/(2+d))). Distances are taken on raw
    coordinates.
    """
    src = np.atleast_2d(np.asarray(source, dtype=float))
    tgt = np.atleast_2d(np.asarray(target, dtype=float))
    if src.shape[1] != tgt.shape[1]:
        raise ValueError("source and target dimension mismatch")
    n_s, d = src.shape
    if M is None:
        M = math.ceil(n_s ** (2.0 / (2.0 + d)))
    M = int(M)
    if M < 1:
        raise ValueError("M must be >= 1")
    if M > n_s:
        raise ValueError(f"M={M} exceeds the source size {n_s}")
    return RatioModel(backend="knn", M=M,
                      source_points=np.ascontiguousarray(src),
                      target_points=np.ascontiguousarray(tgt),
                      n_source=n_s, n_target=len(tgt))


def oracle_gaussian_ratio(mu_source, mu_target, sigma: float, x):
    """Exact p_source/p_target for equal-covariance isotropic Gaussians:
    exp((mu_s - mu_t)' x / sigma^2 + (|mu_t|^2 - |mu_s|^2) / (2 sigma^2)).

    Scalar means with 1-d x treat x as a batch of scalar probes; vector means
    with 1-d x treat x as a single point.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    ms = np.atleast_1d(np.asarray(mu_source, dtype=float))
    mt = np.atleast_1d(np.asarray(mu_target, dtype=float))
    d = len(ms)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x2d, single = x.reshape(1, 1), True
    elif x.ndim == 1 and d == 1:
        x2d, single = x.reshape(-1, 1), False
    elif x.ndim == 1:
        x2d, single = x.reshape(1, -1), True
    else:
        x2d, single = x, False
    val = np.exp(x2d @ (ms - mt) / sigma ** 2 + (mt @ mt - ms @ ms) / (2.0 * sigma ** 2))
    return float(val[0]) if single else val
