import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import evacsim
from evacsim import stats
from evacsim.errors import InputError
from evacsim.stats import (
    DesignMatrix,
    RankDeficiencyError,
    build_design,
    fit_ols,
    format_p,
    regularized_incomplete_beta,
    report_to_csv,
    sensitivity,
    series,
    series_to_csv,
    t_sf,
)
from evacsim.sweep import SweepRow, SweepTable


def make_rows(params_list, evacuated):
    rows = []
    for i, ((storm, rain, tod, threshold, w1, w2, w3), evac) in enumerate(zip(params_list, evacuated)):
        rows.append(SweepRow(
            combo_index=i, replicate=0, seed=i, storm=storm, rainfall=rain,
            time_of_day=tod, threshold=threshold, w_cdm=w1, w_hrf=w2, w_crf=w3,
            evacuated=evac, ticks=100, truncated=False,
        ))
    return SweepTable.from_rows(rows)


def varied_params(n, rng):
    thresholds = [0.7, 0.8, 0.9]
    rains = [0.25, 0.5, 1.0]
    out = []
    for i in range(n):
        w1 = rng.choice([0.1, 0.2, 0.3, 0.4])
        w2 = rng.choice([0.1, 0.2, 0.3])
        out.append((
            int(rng.choice([1, 2])),
            float(rng.choice(rains)),
            float(rng.choice([0.5, 1.0])),
            float(rng.choice(thresholds)),
            float(w1), float(w2), round(1.0 - w1 - w2, 10),
        ))
    return out


# --- fit_ols ---

def test_exact_line_fit():
    x = np.array([0.0, 1.0, 2.0])
    m = DesignMatrix(("intercept", "x"), np.column_stack([np.ones(3), x]), np.array([1.0, 3.0, 5.0]))
    rep = fit_ols(m)
    assert rep.by_name("x").coefficient == pytest.approx(2.0, abs=1e-12)
    assert rep.by_name("intercept").coefficient == pytest.approx(1.0, abs=1e-12)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)


def test_zero_response_gives_zero_coefficients():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    rep = fit_ols(DesignMatrix(("a", "b", "c"), x, np.zeros(40)))
    for p in rep.predictors:
        assert p.coefficient == pytest.approx(0.0, abs=1e-12)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        x = rng.normal(size=(200, 5))
        y = rng.normal(size=200)
        rep = fit_ols(DesignMatrix(tuple(f"c{i}" for i in range(5)), x, y))
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        ours = np.array([p.coefficient for p in rep.predictors])
        assert np.abs(ours - oracle).max() < 1e-8


def test_residuals_orthogonal_to_predictors():
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(120), rng.normal(size=(120, 4))])
    y = rng.normal(size=120) * 3 + x[:, 1]
    rep = fit_ols(DesignMatrix(tuple("abcde"), x, y))
    beta = np.array([p.coefficient for p in rep.predictors])
    resid = y - x @ beta
    for j in range(x.shape[1]):
        col = x[:, j]
        cos = abs(col @ resid) / (np.linalg.norm(col) * np.linalg.norm(resid))
        assert cos < 1e-8


def test_condition_number_is_the_full_designs_singular_value_ratio():
    # Columns on different scales, like the sensitivity design's codes and
    # weights next to its intercept.
    rng = np.random.default_rng(23)
    x = np.column_stack([np.ones(5000), rng.normal(size=(5000, 6)) * [1.0, 0.1, 3.0, 0.02, 10.0,
                                                                      0.5]])
    x[:, 2] += 0.9 * x[:, 1] * 10.0  # and two columns far from orthogonal
    rep = fit_ols(DesignMatrix(tuple("abcdefg"), x, rng.normal(size=5000)))
    sing = np.linalg.svd(x, compute_uv=False)
    assert rep.condition_number == pytest.approx(sing[0] / sing[-1], rel=1e-12)


def test_needs_more_rows_than_columns():
    with pytest.raises(InputError, match="observations"):
        fit_ols(DesignMatrix(("a", "b"), np.ones((2, 2)), np.ones(2)))


def test_rank_deficiency_names_the_aliased_column():
    rng = np.random.default_rng(11)
    a = rng.normal(size=60)
    x = np.column_stack([np.ones(60), a, 2.0 - a])
    y = a * 3 + rng.normal(size=60)
    with pytest.raises(RankDeficiencyError) as exc:
        fit_ols(DesignMatrix(("intercept", "a", "mirror"), x, y))
    assert exc.value.aliased == ["mirror"]


def test_rank_deficiency_names_an_all_zero_column_apart():
    rng = np.random.default_rng(11)
    a = rng.normal(size=60)
    x = np.column_stack([np.ones(60), a, np.zeros(60), 2.0 - a])
    y = a * 3 + rng.normal(size=60)
    with pytest.raises(RankDeficiencyError, match=r"\(zero: all-zero column; "
                       r"mirror: linear combination of intercept, a\)") as exc:
        fit_ols(DesignMatrix(("intercept", "a", "zero", "mirror"), x, y))
    assert exc.value.aliased == ["zero", "mirror"]


# --- t_sf / incomplete beta ---

def test_t_sf_symmetry_point():
    assert t_sf(0.0, 7) == 0.5


def test_t_sf_cauchy_closed_form():
    assert t_sf(1.0, 1) == pytest.approx(0.25, abs=1e-12)


def test_t_sf_matches_quadrature_oracle():
    def t_pdf(x, df):
        c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2)

    for t, df in [(2.5, 30), (0.7, 4), (4.2, 11), (1.3, 2), (8.0, 60)]:
        tail, _err = integrate.quad(t_pdf, t, np.inf, args=(df,))
        assert t_sf(t, df) == pytest.approx(tail, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(min_value=-60.0, max_value=60.0),
    df=st.integers(min_value=1, max_value=500),
)
def test_t_sf_complementarity(t, df):
    assert t_sf(t, df) + t_sf(-t, df) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t, df, expected", [
    (0.5, 1, "0.35241638234956685"),
    (0.5, 7, "0.3162035678446421"),
    (0.5, 129593, "0.3085379632013909"),
    (1.96, 1, "0.15017144588801662"),
    (1.96, 7, "0.045409847684090635"),
    (1.96, 129593, "0.024998964997324673"),
    (4.0, 1, "0.07797913037736925"),
    (4.0, 7, "0.0025949566746484103"),
    (4.0, 129593, "3.1688801131554554e-05"),
    (12.0, 1, "0.026464676059589864"),
    (12.0, 7, "3.1791551890925497e-06"),
    (12.0, 129593, "1.8499545465234868e-33"),
])
def test_t_sf_bits_are_pinned(t, df, expected):
    # The continued fraction runs in pure Python, so these bits hold on any
    # platform; the p-values of every report depend on them.
    assert repr(t_sf(t, df)) == expected


def test_t_sf_monotone_in_statistic():
    prev = 0.5
    for t in [0.0, 0.3, 0.9, 1.7, 2.5, 4.0, 7.0, 20.0]:
        cur = t_sf(t, 12)
        assert cur <= prev + 1e-15
        prev = cur


def test_t_sf_rejects_bad_input():
    with pytest.raises(InputError):
        t_sf(float("nan"), 4)
    with pytest.raises(InputError):
        t_sf(float("inf"), 4)
    with pytest.raises(InputError):
        t_sf(1.0, 0)


def test_incomplete_beta_bounds():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(InputError):
        regularized_incomplete_beta(2.0, 3.0, 1.5)
    with pytest.raises(InputError):
        regularized_incomplete_beta(-1.0, 3.0, 0.5)


def test_format_p_floor():
    assert format_p(1e-20) == "<2e-16"
    assert format_p(0.5) == "0.5"


# --- sensitivity ---

def test_intercept_full_on_exact_sum_grid_is_diagnosed():
    import random
    rng = random.Random(0)
    params = varied_params(300, rng)
    rows = make_rows(params, [rng.randrange(570) for _ in params])
    with pytest.raises(RankDeficiencyError) as exc_info:
        sensitivity(rows, mode="intercept-full")
    assert "w_crf" in str(exc_info.value)
    assert "w_cdm" in str(exc_info.value)  # named in the dependency detail


def test_only_intercept_full_advises_another_mode():
    # One storm level aliases the storm column with the intercept. The
    # refusal of drop-one-weight names it without advice, since the advice
    # would name drop-one-weight itself; intercept-full, which also aliases
    # w_crf, names the two modes that drop a weight column.
    import random
    rng = random.Random(2)
    params = [(1, *p[1:]) for p in varied_params(300, rng)]
    rows = make_rows(params, [rng.randrange(570) for _ in params])
    with pytest.raises(RankDeficiencyError) as dropped:
        sensitivity(rows, mode="drop-one-weight")
    assert str(dropped.value) == ("design matrix is rank deficient; aliased columns: storm "
                                  "(storm: linear combination of intercept).")
    with pytest.raises(RankDeficiencyError) as full:
        sensitivity(rows, mode="intercept-full")
    assert full.value.aliased == ["storm", "w_crf"]
    assert str(full.value).endswith(
        ". Choose --mode drop-one-weight or --mode no-intercept to fit these results.")


def test_drop_one_weight_gives_finite_inference():
    import random
    rng = random.Random(1)
    params = varied_params(400, rng)
    rows = make_rows(params, [rng.randrange(570) for _ in params])
    rep = sensitivity(rows, mode="drop-one-weight")
    assert len(rep.predictors) == 7  # intercept + six retained
    for p in rep.predictors:
        assert math.isfinite(p.p_value)
        assert 0.0 <= p.p_value <= 1.0


def test_recovers_synthetic_ground_truth():
    import random
    rng = random.Random(2)
    params = varied_params(500, rng)
    evac = [int(round(100.0 * p[0] + rng.gauss(0, 3))) for p in params]
    rows = make_rows(params, evac)
    rep = sensitivity(rows, mode="drop-one-weight")
    storm = rep.by_name("storm")
    assert storm.coefficient == pytest.approx(100.0, abs=1.0)
    assert storm.p_value < 0.01


def test_no_intercept_mode_keeps_all_seven():
    import random
    rng = random.Random(3)
    params = varied_params(300, rng)
    rows = make_rows(params, [rng.randrange(570) for _ in params])
    rep = sensitivity(rows, mode="no-intercept")
    assert tuple(p.name for p in rep.predictors) == (
        "storm", "rainfall", "time_of_day", "threshold", "w_cdm", "w_hrf", "w_crf")


def test_report_csv_bytes_are_pinned():
    # The report is a pure function of the rows, byte for byte. These digits
    # come from the column-major fit; the same fit in row-major order rounds
    # the no-intercept report differently.
    rng = random.Random(7)
    triples = ((0.2, 0.2, 0.6), (0.2, 0.4, 0.4), (0.4, 0.2, 0.4), (0.6, 0.2, 0.2))
    rows = []
    for i in range(240):
        storm, rain, tod = rng.choice((1, 2)), rng.choice((0.25, 0.5, 1.0)), rng.choice((0.5, 1.0))
        threshold, w = rng.choice((0.7, 0.8, 0.9)), rng.choice(triples)
        evac = int(100 * storm + 80 * rain + 40 * tod - 200 * threshold + 150 * w[0]
                   + rng.randint(0, 30))
        rows.append(SweepRow(i, 0, i, storm, rain, tod, threshold, *w, evac, 100, False))
    rows = SweepTable.from_rows(rows)
    digests = {mode: hashlib.sha256(report_to_csv(sensitivity(rows, mode)).encode()).hexdigest()
               for mode in ("drop-one-weight", "no-intercept")}
    assert digests == {
        "drop-one-weight": "03ddd79b78971eaa57d5dea504ce4bdabf428d730de79cfe6d9001364862e506",
        "no-intercept": "95f42371b6f790bc1abc48241ae000852349f8545861dbd79b4899d71f403c32",
    }
    assert {line.rsplit(",", 1)[1] for line in report_to_csv(sensitivity(rows)).splitlines()[1:]} == {"0"}


def test_build_design_rejects_unknown_mode_and_empty():
    with pytest.raises(InputError, match="mode"):
        build_design(SweepTable.from_rows(
            [SweepRow(0, 0, 0, 1, 0.25, 0.5, 0.7, 0.1, 0.1, 0.8, 5, 10, False)]), "magic")
    with pytest.raises(InputError, match="no sweep rows"):
        build_design(SweepTable.from_rows([]), "no-intercept")


def test_build_design_columns_hold_the_row_values_bit_for_bit():
    rows = [SweepRow(i, 0, i, 1 + i % 2, 0.1 * i, -0.0, 0.7, 5e-324, 1 / 3, 0.6, 2**53 + i, 9, False)
            for i in range(10)]
    m = build_design(SweepTable.from_rows(rows), "intercept-full")
    expected = [[1.0] + [float(getattr(r, n)) for n in m.names[1:]] for r in rows]
    assert np.asfortranarray(m.x).tobytes("F") == np.asfortranarray(expected).tobytes("F")
    assert m.y.tobytes() == np.array([float(r.evacuated) for r in rows]).tobytes()


def test_sensitivity_looks_up_build_design_at_call_time(monkeypatch):
    # The benchmark's tracer times stats.build_design by replacing the module
    # global, so sensitivity must call it through that name.
    calls = []
    original = stats.build_design

    def spy(rows, mode):
        calls.append(mode)
        return original(rows, mode)

    monkeypatch.setattr(stats, "build_design", spy)
    rng = random.Random(5)
    params = varied_params(60, rng)
    stats.sensitivity(make_rows(params, [rng.randrange(570) for _ in params]), "no-intercept")
    assert calls == ["no-intercept"]


# --- series ---

def test_series_means_match_independent_grouping():
    import random
    rng = random.Random(4)
    params = [(2, 0.5, 1.0, 0.9, w1, w2, round(1.0 - w1 - w2, 10))
              for w1 in (0.1, 0.2, 0.3) for w2 in (0.1, 0.2, 0.3)]
    params = params * 4  # replicates
    rows = make_rows(params, [rng.randrange(570) for _ in params])
    points = series(rows, storm=2, rainfall=0.5, time_of_day=1.0, threshold=0.9)
    # independent batch recomputation
    for p in points:
        vals = [r.evacuated for r in rows if getattr(r, p.series) == p.x]
        assert p.n == len(vals)
        assert p.mean_evacuated == pytest.approx(sum(vals) / len(vals))
    kinds = {p.series for p in points}
    assert kinds == {"w_cdm", "w_hrf", "w_crf"}


@pytest.mark.parametrize("evac, naive_mean", [
    ([2**53 + 1] * 5, lambda v: float(np.sum(v)) / len(v)),  # int64 total, rounded to divide
    ([2**53 + 1, 2**53 + 3, 1, 1, 1], lambda v: np.sum(v.astype(float)) / len(v)),  # float total
])
def test_series_means_are_of_exact_integer_totals(evac, naive_mean):
    rows = make_rows([(1, 0.25, 0.5, 0.7, 0.2, 0.2, 0.6)] * 5, evac)
    points = series(rows, storm=1, rainfall=0.25, time_of_day=0.5, threshold=0.7)
    assert [p.mean_evacuated for p in points] == [sum(evac) / 5] * 3
    assert naive_mean(np.array(evac)) != sum(evac) / 5


def test_series_pools_equal_weights_and_nan():
    nan = float("nan")
    rows = make_rows([(1, 0.25, 0.5, 0.7, w, 0.2, 0.6) for w in (0.0, -0.0, nan, nan, 0.2)],
                     [1, 2, 3, 4, 5])
    points = series(rows, storm=1, rainfall=0.25, time_of_day=0.5, threshold=0.7)
    cdm = [(p.x, p.mean_evacuated, p.n) for p in points if p.series == "w_cdm"]
    assert cdm[:2] == [(0.0, 1.5, 2), (0.2, 5.0, 1)]  # 0.0 == -0.0
    assert math.isnan(cdm[2][0]) and cdm[2][1:] == (3.5, 2)


def test_series_single_combo_gives_single_points():
    rows = make_rows([(1, 0.25, 0.5, 0.7, 0.2, 0.2, 0.6)], [42])
    points = series(rows, storm=1, rainfall=0.25, time_of_day=0.5, threshold=0.7)
    assert len(points) == 3
    assert all(p.n == 1 and p.mean_evacuated == 42 for p in points)
    csv_text = series_to_csv(points)
    assert csv_text.splitlines()[0] == "x,series,mean_evacuated,n"


def test_series_empty_slice_is_error():
    rows = make_rows([(1, 0.25, 0.5, 0.7, 0.2, 0.2, 0.6)], [42])
    with pytest.raises(InputError, match="no rows match"):
        series(rows, storm=2, rainfall=1.0, time_of_day=1.0, threshold=0.9)


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def test_import_pins_blas_to_one_thread():
    # A multi-threaded BLAS changes the last digits of the OLS report with
    # the thread count, so importing evacsim overrides even an explicit one.
    src = Path(evacsim.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), **{var: "4" for var in BLAS_THREAD_VARS}}
    code = ("import os, evacsim; "
            f"print(','.join(os.environ[v] for v in {BLAS_THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == ",".join(["1"] * len(BLAS_THREAD_VARS))
