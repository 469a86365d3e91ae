import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as hst
from scipy import stats as st

from netsafety import association
from netsafety.association import (
    AnalysisConfig,
    build_dataset,
    correlations_table_csv,
    cross_segment_analysis,
    full_model_analysis,
    full_model_table_csv,
    per_metric_correlations,
    run_association,
    shapley_analysis,
    shapley_table_csv,
)
from netsafety.errors import DataError, ParameterError
from netsafety.stats import Dataset

from oracles import MetricsRow, crash_binning_of, metrics_table_of, pooled_abs_r_oracle

PREDICTORS = ("ttc_cv", "ivvr", "ovvr", "osr_1.0", "tci", "ntc")


def make_rows(seg, n, rng, missing_ttc=()):
    rows = []
    for i in range(n):
        rows.append(
            MetricsRow(
                segment_id=seg,
                t_start=i * 600.0,
                t_end=i * 600.0 + 600.0,
                ttc_cv=None if i in missing_ttc else float(rng.uniform(0.5, 2.0)),
                ivvr=float(rng.uniform(0, 0.3)),
                ovvr=float(rng.uniform(0, 0.3)),
                osr={1.0: float(rng.uniform(0, 0.6))},
                tci=float(rng.uniform(0.5, 1.0)),
                f_truck=0.2,
                ntc=float(rng.uniform(0.01, 0.09)),
                n_vehicles=int(rng.integers(3, 20)),
                coverage=1.0,
                e_ttc=float(rng.uniform(5, 40)),
            )
        )
    return rows


def make_binning(counts, slot_minutes=10):
    return crash_binning_of({key: (c, max(c - 1, 0), 0) for key, c in counts.items()}, slot_minutes)


def plant_counts(rows, coef, rng=None, sigma=0.0, slot_minutes=10, offset=0.0):
    table = metrics_table_of(rows)
    base = offset + sum(weight * table.column(name) for name, weight in coef.items())
    counts = {}
    for m, b in zip(rows, base.tolist()):
        noise = float(rng.normal(0, sigma)) if rng is not None and sigma > 0 else 0.0
        counts[(m.segment_id, int(m.t_start // (slot_minutes * 60)))] = max(b + noise, 0.0)
    return counts


def _mk(counts):  # non-integer counts straight into cells
    return crash_binning_of({key: (c, c, c) for key, c in counts.items()})


class TestBuildDataset:
    def test_full_join(self):
        rng = np.random.default_rng(0)
        rows = make_rows("S1", 10, rng)
        binning = make_binning({("S1", i): i for i in range(10)})
        d = build_dataset(metrics_table_of(rows), binning, "AllType", PREDICTORS)
        assert d.n == 10
        assert d.dropped == {"no_crash_data": 0, "absent_metric": 0, "excluded": 0}
        assert d.predictor_names == list(PREDICTORS)
        assert "volume" in d.extras and "e_ttc" in d.extras

    def test_missing_slot_dropped(self):
        rng = np.random.default_rng(1)
        rows = make_rows("S1", 10, rng)
        counts = {("S1", i): i for i in range(10) if i != 4}
        d = build_dataset(metrics_table_of(rows), make_binning(counts), "AllType", PREDICTORS)
        assert d.n == 9 and d.dropped["no_crash_data"] == 1

    def test_absent_metric_dropped(self):
        rng = np.random.default_rng(2)
        rows = make_rows("S1", 10, rng, missing_ttc={2, 5})
        binning = make_binning({("S1", i): 1 + i for i in range(10)})
        d = build_dataset(metrics_table_of(rows), binning, "AllType", PREDICTORS)
        assert d.n == 8 and d.dropped["absent_metric"] == 2

    def test_disjoint_grids_error(self):
        rng = np.random.default_rng(3)
        rows = make_rows("S1", 5, rng)
        with pytest.raises(DataError, match="empty join"):
            build_dataset(metrics_table_of(rows), make_binning({("S2", 0): 1}), "AllType", PREDICTORS)

    def test_row_accounting(self):
        rng = np.random.default_rng(4)
        rows = make_rows("S1", 12, rng, missing_ttc={0})
        counts = {("S1", i): i for i in range(1, 12)}
        d = build_dataset(metrics_table_of(rows), make_binning(counts), "AllType", PREDICTORS)
        assert d.n + sum(d.dropped.values()) == 12

    def test_exclusion_list(self):
        rng = np.random.default_rng(40)
        rows = make_rows("S1", 10, rng)
        binning = make_binning({("S1", i): i for i in range(10)})
        d = build_dataset(metrics_table_of(rows), binning, "AllType", PREDICTORS, exclude_slots=[("S1", 3), ("S1", 7)])
        assert d.n == 8 and d.dropped["excluded"] == 2
        assert ("S1", 3) not in d.row_keys


class TestPerMetricCorrelations:
    def test_noiseless_plant_gives_one(self):
        rng = np.random.default_rng(5)
        rows = make_rows("S1", 40, rng)
        counts = plant_counts(rows, {"osr_1.0": 2.0})
        d = build_dataset(metrics_table_of(rows), _mk(counts), "AllType", PREDICTORS)
        corr = per_metric_correlations(d, ["pearson", "spearman", "kendall"])
        for method in ("pearson", "spearman", "kendall"):
            assert corr[method]["osr_1.0"] == pytest.approx(1.0)

    def test_self_join_smoke(self):
        rng = np.random.default_rng(6)
        rows = make_rows("S1", 30, rng)
        counts = plant_counts(rows, {"ntc": 1.0})
        d = build_dataset(metrics_table_of(rows), _mk(counts), "AllType", PREDICTORS)
        corr = per_metric_correlations(d, ["pearson", "spearman", "kendall"])
        for method in ("pearson", "spearman", "kendall"):
            assert corr[method]["ntc"] == pytest.approx(1.0)

    def test_null_metric_under_null_threshold(self):
        hits = 0
        trials = 60
        n = 100
        threshold = 1.96 / np.sqrt(n - 1)
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            rows = make_rows("S1", n, rng)
            counts = {("S1", i): float(rng.uniform(1, 5)) for i in range(n)}
            d = build_dataset(metrics_table_of(rows), _mk(counts), "AllType", PREDICTORS)
            r = per_metric_correlations(d, ["pearson"])["pearson"]["ivvr"]
            hits += abs(r) < threshold
        assert hits / trials >= 0.90

    def test_constant_column_marked_undefined(self):
        rng = np.random.default_rng(7)
        rows = make_rows("S1", 10, rng)
        for m in rows:
            m.tci = 0.75
        binning = make_binning({("S1", i): i for i in range(10)})
        d = build_dataset(metrics_table_of(rows), binning, "AllType", PREDICTORS)
        corr = per_metric_correlations(d, ["pearson"])
        assert corr["pearson"]["tci"] is None


class TestFullModel:
    def test_synthetic_linear_high_heldout_r2(self):
        rng = np.random.default_rng(8)
        rows = make_rows("S1", 120, rng)
        counts = plant_counts(rows, {"osr_1.0": 5.0, "ntc": 40.0}, rng=rng, sigma=0.05)
        d = build_dataset(metrics_table_of(rows), _mk(counts), "AllType", PREDICTORS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = full_model_analysis(d, AnalysisConfig(seed=0))
        assert reports["linear"].r2 >= 0.95
        assert reports["linear"].f_pvalue < 1e-6
        assert reports["poisson"].n_mse is not None

    def test_null_f_pvalues_uniform(self):
        pvals = []
        for seed in range(150):
            rng = np.random.default_rng(2000 + seed)
            x = rng.normal(size=(40, 3))
            y = rng.normal(size=40)
            from netsafety.stats import ols_fit

            pvals.append(ols_fit(Dataset(x, y, ["a", "b", "c"])).f_pvalue)
        ks = st.kstest(pvals, "uniform")
        assert ks.pvalue > 0.01

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        rows = make_rows("S1", 60, rng)
        counts = plant_counts(rows, {"ovvr": 3.0}, rng=rng, sigma=0.2)
        d = build_dataset(metrics_table_of(rows), _mk(counts), "AllType", PREDICTORS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = full_model_analysis(d, AnalysisConfig(seed=4))
            b = full_model_analysis(d, AnalysisConfig(seed=4))
        assert a["linear"].r2 == b["linear"].r2
        assert a["poisson"].n_mse == b["poisson"].n_mse

    def test_small_sample_warns(self):
        rng = np.random.default_rng(10)
        rows = make_rows("S1", 12, rng)
        binning = make_binning({("S1", i): 1 + i for i in range(12)})
        d = build_dataset(metrics_table_of(rows), binning, "AllType", PREDICTORS)
        with pytest.warns(UserWarning, match="recommend"):
            full_model_analysis(d, AnalysisConfig(seed=0))


def pooled(per_segment):
    """``cross_segment_analysis``'s arguments for these segments: their rows stacked in the dict's order as one
    join, each keyed by its segment, and the segment ids."""
    parts = list(per_segment.items())
    join = Dataset(np.vstack([d.x for _, d in parts]), np.concatenate([d.y for _, d in parts]),
                   list(parts[0][1].predictor_names), row_keys=[(sid, i) for sid, d in parts for i in range(d.n)])
    return join, list(per_segment)


def segment_datasets(rng, n_per=60, invert=None, sigma=0.05):
    out = {}
    for sid in ("S1", "S2", "S3"):
        rows = make_rows(sid, n_per, rng)
        sign = -1.0 if sid == invert else 1.0
        counts = plant_counts(
            rows, {"osr_1.0": sign * 5.0, "ntc": sign * 40.0}, rng=rng, sigma=sigma, offset=10.0
        )
        out[sid] = build_dataset(metrics_table_of(rows), _mk(counts), "AllType", PREDICTORS)
    return out


class TestCrossSegment:
    def test_homogeneous_process_generalizes(self):
        rng = np.random.default_rng(11)
        per_segment = segment_datasets(rng)
        holdout, combos = cross_segment_analysis(*pooled(per_segment))
        from netsafety.stats import ols_fit

        for row in holdout:
            assert not row.unevaluable
            in_sample = ols_fit(per_segment[row.held_out]).r2
            assert abs(row.r2 - in_sample) <= 0.1
        assert [c.size for c in combos] == [1, 2, 3]
        assert combos[1].n_combinations == 3

    def test_inverted_segment_degrades(self):
        rng = np.random.default_rng(12)
        per_segment = segment_datasets(rng, invert="S2", sigma=0.01)
        holdout, _ = cross_segment_analysis(*pooled(per_segment))
        by_id = {h.held_out: h for h in holdout}
        assert by_id["S2"].r2 < 0  # reported unclamped

    def test_two_segments_two_rows(self):
        rng = np.random.default_rng(13)
        per_segment = segment_datasets(rng)
        del per_segment["S3"]
        holdout, combos = cross_segment_analysis(*pooled(per_segment))
        assert len(holdout) == 2
        assert [c.size for c in combos] == [1, 2]

    def test_needs_two_segments(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ParameterError):
            cross_segment_analysis(*pooled({"S1": segment_datasets(rng)["S1"]}))

    def test_pooled_abs_pearson_values(self):
        rng = np.random.default_rng(15)
        per_segment = segment_datasets(rng)
        _, combos = cross_segment_analysis(*pooled(per_segment))
        full = combos[-1]
        assert full.n_combinations == 1
        x = np.vstack([per_segment[s].x for s in sorted(per_segment)])
        y = np.concatenate([per_segment[s].y for s in sorted(per_segment)])
        from netsafety.stats import pearson

        j = list(PREDICTORS).index("osr_1.0")
        assert full.mean_abs_pooled_r["osr_1.0"] == pytest.approx(abs(pearson(x[:, j], y)))


    def test_each_segment_correlated_once_per_predictor(self, monkeypatch):
        # Per-segment |r| comes from one pearson call per (segment, predictor); pooled |r| comes
        # from per-segment sums, so no input reaches pearson twice.
        per_segment = segment_datasets(np.random.default_rng(16))
        seen: dict[tuple[bytes, bytes], int] = {}
        real = association.pearson

        def counting(x, y):
            key = (np.asarray(x).tobytes(), np.asarray(y).tobytes())
            seen[key] = seen.get(key, 0) + 1
            return real(x, y)

        monkeypatch.setattr(association, "pearson", counting)
        _, combos = cross_segment_analysis(*pooled(per_segment))
        monkeypatch.undo()
        assert max(seen.values()) == 1
        assert_combinations_match_oracle(combos, per_segment)


def assert_combinations_match_oracle(combos, per_segment):
    expected = pooled_abs_r_oracle(per_segment)
    assert [(c.size, c.n_combinations) for c in combos] == [row[:2] for row in expected]
    for c, (_, _, pooled, segment_mean) in zip(combos, expected):
        for got, want in ((c.mean_abs_pooled_r, pooled), (c.mean_abs_segment_r, segment_mean)):
            assert got.keys() == want.keys()
            for name in want:
                if want[name] is None or got[name] is None:
                    assert got[name] is want[name], (c.size, name)
                else:
                    assert got[name] == pytest.approx(want[name], rel=1e-12, abs=0), (c.size, name)


def random_segments(seed, sizes=(30, 45, 25, 60), edit=None):
    """Four segments of random predictors a..d with y = a + noise; ``edit(index, x, y)`` alters one in place."""
    rng = np.random.default_rng(seed)
    out = {}
    for i, n in enumerate(sizes):
        x = rng.normal(size=(n, 4))
        y = x[:, 0] + rng.normal(size=n)
        if edit is not None:
            edit(i, x, y)
        out[f"S{i + 1}"] = Dataset(x, y, ["a", "b", "c", "d"])
    return out


class TestPooledCorrelationsAgainstOracle:
    """Pooled |r| from per-segment sums equals |r| on the stacked rows of every subset."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_segments(self, seed):
        per_segment = random_segments(seed)
        assert_combinations_match_oracle(cross_segment_analysis(*pooled(per_segment))[1], per_segment)

    def test_column_constant_within_each_segment_at_different_levels(self):
        def levels(i, x, y):
            x[:, 3] = 0.1 * (i + 1)

        per_segment = random_segments(3, edit=levels)
        combos = cross_segment_analysis(*pooled(per_segment))[1]
        assert_combinations_match_oracle(combos, per_segment)
        assert combos[0].mean_abs_pooled_r["d"] is None and combos[0].mean_abs_segment_r["d"] is None
        assert all(c.mean_abs_pooled_r["d"] is not None for c in combos[1:])

    def test_column_constant_at_one_level_everywhere(self):
        def flat(i, x, y):
            x[:, 2] = 0.1

        per_segment = random_segments(4, edit=flat)
        combos = cross_segment_analysis(*pooled(per_segment))[1]
        assert_combinations_match_oracle(combos, per_segment)
        assert all(c.mean_abs_pooled_r["c"] is None and c.mean_abs_segment_r["c"] is None for c in combos)

    def test_subset_with_constant_pooled_response(self):
        def flat_response(i, x, y):
            if i < 2:
                y[:] = 0.3

        per_segment = random_segments(5, edit=flat_response)
        combos = cross_segment_analysis(*pooled(per_segment))[1]
        assert_combinations_match_oracle(combos, per_segment)

        _, only_flat = cross_segment_analysis(*pooled({s: per_segment[s] for s in ("S1", "S2")}))
        assert all(v is None for c in only_flat for v in c.mean_abs_pooled_r.values())

    def test_one_row_segment(self):
        per_segment = random_segments(6, sizes=(30, 1, 25, 40))
        combos = cross_segment_analysis(*pooled(per_segment))[1]
        assert_combinations_match_oracle(combos, per_segment)


class TestShapleyAnalysis:
    def test_dominant_predictor_wins(self):
        rng = np.random.default_rng(16)
        rows = make_rows("S1", 80, rng)
        counts = plant_counts(rows, {"ovvr": 10.0}, rng=rng, sigma=0.05)
        d = build_dataset(metrics_table_of(rows), _mk(counts), "AllType", PREDICTORS)
        values = shapley_analysis(d).by_name()
        assert values["ovvr"] == max(values.values())

    def test_all_noise_below_null_envelope(self):
        rng = np.random.default_rng(17)
        rows = make_rows("S1", 100, rng)
        counts = {("S1", i): float(rng.uniform(1, 5)) for i in range(100)}
        d = build_dataset(metrics_table_of(rows), _mk(counts), "AllType", PREDICTORS)
        values = shapley_analysis(d).by_name()
        assert all(abs(v) < 0.08 for v in values.values())


class TestReportAssembly:
    def test_run_association_marks_and_serializes(self):
        rng = np.random.default_rng(18)
        rows = make_rows("S1", 60, rng) + make_rows("S2", 60, rng)
        counts = plant_counts(rows, {"osr_1.0": 4.0, "ntc": 30.0}, rng=rng, sigma=0.1)
        binning = _mk(counts)
        cfg = AnalysisConfig(seed=0, families=("AllType", "Sideswipe"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_association(metrics_table_of(rows), binning, cfg)
        assert report.families["AllType"]["n_rows"] == 120
        assert "full_model" in report.families["AllType"]
        assert "holdout" in report.cross_segment["AllType"]
        text = correlations_table_csv(report)
        assert text.startswith("method,family,")
        assert full_model_table_csv(report).count("\n") >= 2
        assert shapley_table_csv(report).startswith("family,")

    def test_insufficient_data_marked(self):
        rng = np.random.default_rng(19)
        rows = make_rows("S1", 5, rng)
        binning = make_binning({("S1", 99): 1})  # no overlap
        report = run_association(metrics_table_of(rows), binning, AnalysisConfig(seed=0, families=("AllType",)))
        assert "insufficient_data" in report.families["AllType"]

    def test_segment_without_joined_rows_marks_cross_segment(self):
        rng = np.random.default_rng(20)
        rows = make_rows("S1", 30, rng) + make_rows("S2", 30, rng) + make_rows("S3", 30, rng)
        binning = _mk(plant_counts([m for m in rows if m.segment_id != "S2"], {"ntc": 30.0}, rng=rng, sigma=0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_association(metrics_table_of(rows), binning, AnalysisConfig(seed=0, families=("AllType",)))
        assert report.families["AllType"]["n_rows"] == 60
        assert report.cross_segment["AllType"] == {"insufficient_data": "segment 'S2' has no joined rows"}

    def test_config_serializes_every_field_but_the_exclusions(self):
        cfg = AnalysisConfig(slot_minutes=15, cv_folds=4, seed=3, exclude_slots=(("S1", 2),))
        assert run_association(metrics_table_of([]), make_binning({}), cfg).to_dict()["config"] == {
            "slot_minutes": 15, "families": list(cfg.families), "methods": list(cfg.methods), "cv_folds": 4,
            "seed": 3, "predictors": list(cfg.predictors),
        }


def _metric_rows(draw, segment_ids):
    """Metric rows on the given segments, interleaved, on slots 0-7, some with an absent predictor."""
    value = hst.floats(0.0, 4.0)
    rows = []
    for _ in range(draw(hst.integers(1, 48))):
        sid, slot = draw(hst.sampled_from(segment_ids)), draw(hst.integers(0, 7))
        rows.append(MetricsRow(
            segment_id=sid, t_start=slot * 600.0 + draw(hst.sampled_from([0.0, 25.0])), t_end=slot * 600.0 + 50.0,
            ttc_cv=draw(hst.none() | value), ivvr=draw(value), ovvr=draw(value), osr={1.0: draw(value)},
            tci=draw(value), ntc=draw(value), n_vehicles=draw(hst.integers(0, 9)), e_ttc=draw(hst.none() | value),
        ))
    return rows


# No shrink phase: shrinking a failing example of these many draws took minutes.
@settings(derandomize=True, deadline=None, max_examples=80, phases=[Phase.explicit, Phase.generate])
@given(data=hst.data())
def test_cross_segment_of_the_family_join_is_that_of_the_segments_own_joins(data):
    segment_ids = [f"S{k}" for k in range(data.draw(hst.integers(2, 4)))]
    rows = _metric_rows(data.draw, segment_ids)
    # Every segment binned, or some; the rest are not binned.
    binned = data.draw(hst.just(segment_ids) | hst.lists(hst.sampled_from(segment_ids), min_size=1, unique=True))
    cells = {(sid, slot): data.draw(hst.integers(0, 5))
             for sid in binned for slot in range(8) if data.draw(hst.integers(0, 3))}  # a quarter of slots unbinned
    binning = make_binning(cells)
    excluded = data.draw(hst.lists(hst.tuples(hst.sampled_from(segment_ids), hst.integers(0, 7)), max_size=4))
    join = lambda rows: build_dataset(metrics_table_of(rows), binning, "RearEnd", PREDICTORS, excluded)  # noqa: E731
    try:
        d = join(rows)
    except DataError:
        return
    own = {}
    for sid in segment_ids:
        try:
            own[sid] = join([m for m in rows if m.segment_id == sid])
        except DataError:
            pass
    if len(own) < len(segment_ids):
        first = min(set(segment_ids) - set(own))
        for args in ((d, segment_ids), (pooled(own)[0], segment_ids)):
            with pytest.raises(DataError, match=f"^segment '{first}' has no joined rows$"):
                cross_segment_analysis(*args)
        return
    backwards = dict(reversed(own.items()))  # pooled in the other order, so only the row keys place each row
    # A column of subnormal values is not constant, yet its squares sum to 0: pooled |r| divides by 0 and is inf.
    with np.errstate(divide="ignore"):
        assert cross_segment_analysis(d, segment_ids) == cross_segment_analysis(*pooled(backwards))
