"""Sensitivity analysis: ordinary least squares with exact t-based inference.

The solver uses one QR decomposition (never the normal equations), reads
aliased predictor columns off the diagonal of its R factor, and computes
two-sided p-values from the t-distribution through a continued-fraction
evaluation of the regularized incomplete beta function, accurate to ~1e-13
absolute.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .population import records_to_csv
from .sweep import SweepTable

__all__ = [
    "DesignMatrix",
    "PredictorStats",
    "RegressionReport",
    "RankDeficiencyError",
    "PREDICTOR_ORDER",
    "SENSITIVITY_MODES",
    "fit_ols",
    "t_sf",
    "regularized_incomplete_beta",
    "sensitivity",
    "build_design",
    "series",
    "series_to_csv",
    "report_to_text",
    "report_to_csv",
    "P_VALUE_FLOOR",
]

PREDICTOR_ORDER = ("storm", "rainfall", "time_of_day", "threshold", "w_cdm", "w_hrf", "w_crf")
SENSITIVITY_MODES = ("drop-one-weight", "no-intercept", "intercept-full")

# Values below this print as "<2e-16", mirroring the usual R summary floor.
P_VALUE_FLOOR = 2.2e-16

ALIAS_REL_TOL = 1e-8


class RankDeficiencyError(InputError):
    """A design with aliased columns; `advice`, if any, ends the message."""

    def __init__(self, aliased: list[str], detail: str, advice: str = ""):
        self.aliased = aliased
        self.detail = detail
        super().__init__(
            f"design matrix is rank deficient; aliased columns: {', '.join(aliased)} ({detail})."
            + (f" {advice}" if advice else ""))


@dataclass(frozen=True)
class DesignMatrix:
    names: tuple[str, ...]
    x: np.ndarray  # (n, p)
    y: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        if self.x.ndim != 2 or self.y.ndim != 1:
            raise InputError("design requires a 2-D X and 1-D y")
        if self.x.shape[0] != self.y.shape[0]:
            raise InputError("X and y row counts differ")
        if self.x.shape[1] != len(self.names):
            raise InputError("column names do not match X width")
        if not np.isfinite(self.x).all() or not np.isfinite(self.y).all():
            raise InputError("design contains non-finite values")


@dataclass(frozen=True)
class PredictorStats:
    name: str
    coefficient: float
    std_error: float
    t_statistic: float
    p_value: float


@dataclass(frozen=True)
class RegressionReport:
    predictors: tuple[PredictorStats, ...]
    df_resid: int
    r_squared: float
    condition_number: float
    n_obs: int

    def by_name(self, name: str) -> PredictorStats:
        for p in self.predictors:
            if p.name == name:
                return p
        raise KeyError(name)


def fit_ols(m: DesignMatrix) -> RegressionReport:
    """Least squares through QR with t-distribution inference.

    Raises RankDeficiencyError naming the aliased columns, if any.
    """
    n, p = m.x.shape
    if n <= p:
        raise InputError(f"need more observations ({n}) than columns ({p}) for inference")
    # Fit in column-major order: the products below round differently for a
    # row-major X, and the report must not depend on how the caller laid X out.
    x = np.asfortranarray(m.x)
    norms = np.linalg.norm(x, axis=0)
    q, r = np.linalg.qr(x)
    # Column j is aliased when its part orthogonal to the columns before it,
    # |R[j, j]|, is numerically zero next to its norm.
    aliased = np.abs(np.diag(r)) <= ALIAS_REL_TOL * norms
    if aliased.any():
        kept: list[str] = []
        detail: dict[str, str] = {}
        for name, is_aliased, norm in zip(m.names, aliased, norms):
            if not is_aliased:
                kept.append(name)
            elif norm == 0.0:
                detail[name] = "all-zero column"
            else:
                detail[name] = f"linear combination of {', '.join(kept)}"
        raise RankDeficiencyError(list(detail), "; ".join(f"{k}: {v}" for k, v in detail.items()))

    y = m.y.astype(float)
    beta = np.linalg.solve(r, q.T @ y)
    fitted = x @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    df = n - p
    sigma2 = rss / df if df > 0 else 0.0
    r_inv = np.linalg.solve(r, np.eye(p))
    xtx_inv = r_inv @ r_inv.T
    se = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))

    if "intercept" in m.names:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0

    # X = QR with Q's columns orthonormal, so X and the p x p R have the
    # same singular values.
    sing = np.linalg.svd(r, compute_uv=False)
    condition = float(sing[0] / sing[-1]) if sing[-1] > 0 else math.inf

    stats: list[PredictorStats] = []
    for k, name in enumerate(m.names):
        b = float(beta[k])
        s = float(se[k])
        if s == 0.0:
            # Degenerate: zero residual variance. The sign convention keeps
            # exact fits readable (slope with no noise -> p = 0).
            t_stat = 0.0 if b == 0.0 else math.copysign(math.inf, b)
            p_val = 1.0 if b == 0.0 else 0.0
        else:
            t_stat = b / s
            p_val = 2.0 * t_sf(abs(t_stat), df)
            p_val = min(p_val, 1.0)
        stats.append(PredictorStats(name, b, s, t_stat, p_val))
    return RegressionReport(
        predictors=tuple(stats),
        df_resid=df,
        r_squared=r_squared,
        condition_number=condition,
        n_obs=n,
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by the continued fraction with the standard symmetry switch."""
    if a <= 0 or b <= 0:
        raise InputError("incomplete beta requires a, b > 0")
    if not 0.0 <= x <= 1.0:
        raise InputError(f"incomplete beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    # Modified Lentz continued-fraction evaluation, two coefficients (the
    # even and the odd one) per iteration, at most 500 iterations.
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise InputError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def t_sf(t: float, df: int | float) -> float:
    """Upper-tail probability P(T > t) for Student's t with df degrees of
    freedom."""
    if not math.isfinite(t):
        raise InputError(f"t statistic must be finite, got {t}")
    if df < 1:
        raise InputError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    half_tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return half_tail if t > 0 else 1.0 - half_tail


def build_design(rows: SweepTable, mode: str) -> DesignMatrix:
    """Assemble predictors from sweep rows in the fixed reporting order."""
    if mode not in SENSITIVITY_MODES:
        raise InputError(f"unknown sensitivity mode {mode!r}; choose from {SENSITIVITY_MODES}")
    if not rows:
        raise InputError("no sweep rows to analyze")

    y = rows.columns["evacuated"].astype(float)
    if mode == "no-intercept":
        names = PREDICTOR_ORDER
    elif mode == "drop-one-weight":
        names = ("intercept",) + tuple(n for n in PREDICTOR_ORDER if n != "w_crf")
    else:  # intercept-full
        names = ("intercept",) + PREDICTOR_ORDER
    # Column-major, written one column at a time: fit_ols's QR reads X in
    # this order, so it takes X without a copy.
    x = np.empty((len(rows), len(names)), order="F")
    for k, name in enumerate(names):
        if name == "intercept":
            x[:, k] = 1.0
        else:
            x[:, k] = rows.columns[name]
    return DesignMatrix(names=tuple(names), x=x, y=y)


def sensitivity(rows: SweepTable, mode: str = "drop-one-weight") -> RegressionReport:
    """Fit evacuated ~ sweep predictors under the named collinearity mode.

    An exact-sum weight grid makes the full model singular, so intercept-full
    raises RankDeficiencyError on such sweeps; that diagnostic is the point
    of the mode, and its error names the two modes that drop a weight
    column. The other modes' errors name the aliased columns alone.
    """
    try:
        return fit_ols(build_design(rows, mode))
    except RankDeficiencyError as exc:
        if mode != "intercept-full":
            raise
        raise RankDeficiencyError(exc.aliased, exc.detail, "Choose --mode drop-one-weight or "
                                  "--mode no-intercept to fit these results.") from None


def format_p(p: float) -> str:
    if p < P_VALUE_FLOOR:
        return "<2e-16"
    return f"{p:.6g}"


def report_to_text(report: RegressionReport) -> str:
    rows = [("predictor", "coefficient", "std_error", "t_value", "p_value")]
    for p in report.predictors:
        rows.append((
            p.name,
            f"{p.coefficient:.6g}",
            f"{p.std_error:.6g}",
            f"{p.t_statistic:.4g}",
            format_p(p.p_value),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(r)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.append("")
    lines.append(f"observations: {report.n_obs}   residual df: {report.df_resid}   "
                 f"R-squared: {report.r_squared:.6f}   condition: {report.condition_number:.6g}")
    return "\n".join(lines) + "\n"


def report_to_csv(report: RegressionReport) -> str:
    buf = io.StringIO()
    # The aliased column is always 0: fit_ols refuses a design with aliased
    # columns. It stays so the documented format does not change.
    buf.write("predictor,coefficient,std_error,t_value,p_value,aliased\n")
    for p in report.predictors:
        buf.write(
            f"{p.name},{repr(p.coefficient)},{repr(p.std_error)},"
            f"{repr(p.t_statistic)},{repr(p.p_value)},0\n"
        )
    return buf.getvalue()


@dataclass(frozen=True)
class SeriesPoint:
    """One point of a series; its fields, in order, are the CSV's columns."""

    x: float
    series: str
    mean_evacuated: float
    n: int


def series(
    rows: SweepTable,
    storm: int,
    rainfall: float,
    time_of_day: float,
    threshold: float,
) -> list[SeriesPoint]:
    """Mean evacuated versus each weight within one scenario+threshold slice.

    One series per weight kind; the mean at weight value v pools every row
    in the slice with that value (all replicates, all settings of the other
    two weights).
    """
    col = rows.columns
    in_slice = ((col["storm"] == storm) & (col["rainfall"] == rainfall)
                & (col["time_of_day"] == time_of_day) & (col["threshold"] == threshold))
    if not in_slice.any():
        raise InputError(
            f"no rows match slice storm={storm} rainfall={rainfall} "
            f"time_of_day={time_of_day} threshold={threshold}"
        )
    evacuated = col["evacuated"][in_slice]
    out: list[SeriesPoint] = []
    for kind in ("w_cdm", "w_hrf", "w_crf"):
        values, group = np.unique(col[kind][in_slice], return_inverse=True)
        for k, v in enumerate(values.tolist()):
            # Summed as Python ints, so the mean is that of the exact total.
            vals = evacuated[group == k].tolist()
            out.append(SeriesPoint(v, kind, sum(vals) / len(vals), len(vals)))
    return out


def series_to_csv(points: list[SeriesPoint]) -> str:
    return records_to_csv(SeriesPoint, points)
