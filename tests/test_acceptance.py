"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Tolerances are pinned here and nowhere else; runtime budgets are asserted.
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats  # noqa: F401  (warm the import so oracle p-values don't bill criterion budgets)

from netsafety.association import (
    AnalysisConfig,
    build_dataset,
    full_model_analysis,
    per_metric_correlations,
    shapley_analysis,
)
from netsafety.cli import main
from netsafety.crashes import hourly_heterogeneity_test, subsample_consistency_test
from netsafety.network_metrics import ClusterConfig, cluster_frame, cluster_ttc, compute_interval_metrics, tci
from netsafety.projection import KeypointPair, apply_homography, fit_homography
from netsafety.stats import (
    Dataset,
    kendall,
    ols_fit,
    pearson,
    poisson_fit,
    r2_score,
    shapley_from_game,
    spearman,
)
from netsafety.surrogate import (
    EnvelopeParams,
    PairState,
    SsmConfig,
    cpi,
    min_safe_lat,
    min_safe_long_opp,
    min_safe_long_same,
    ttc,
)
from netsafety.synth import ScenarioSpec, generate_crash_counts, generate_trajectories
from netsafety.trajectories import parse_trajectories, prepare_tracks, smooth_savitzky_golay

from oracles import (
    crash_binning_of,
    ols_oracle,
    pairwise_ttc_oracle,
    sg_window_fit_oracle,
    shapley_permutation_oracle,
    chi2_sf_oracle,
)
from test_cli import few_rows, warns_exactly


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_formula_oracles():
    with criterion(1, "derived formula examples vs independent oracles", budget_s=1.0):
        rel = 1e-8
        # Savitzky-Golay cubic vs the per-window polynomial-fit oracle.
        t = np.arange(30, dtype=float)
        cubic = 0.01 * t**3 - 0.4 * t**2 + 2.0 * t + 5.0
        np.testing.assert_allclose(
            smooth_savitzky_golay(cubic, 7, 3), sg_window_fit_oracle(cubic, 7, 3), atol=1e-9
        )

        # Homography: synthesize pairs from a known matrix, round-trip check.
        rng = np.random.default_rng(0)
        h = np.eye(3)
        h[:2, :] += rng.normal(0, 0.1, (2, 3)) * [1, 1, 100]
        h[2, :2] = rng.normal(0, 1e-4, 2)
        pixels = rng.uniform([0, 0], [1280, 720], (6, 2))
        pairs = []
        for u, v in pixels:
            w = h @ [u, v, 1.0]
            pairs.append(KeypointPair((u, v), (w[0] / w[2], w[1] / w[2])))
        fit = fit_homography(pairs)
        for p in pairs:
            x, y = apply_homography(fit, p.pixel)
            assert math.hypot(x - p.world[0], y - p.world[1]) <= 1e-6

        # TTC-CV hand computation (sample std convention).
        from netsafety.network_metrics import FrameClusterTTC, ttc_cv

        hand = math.sqrt(2.0) / 5.0 * 3.0
        assert abs(ttc_cv([FrameClusterTTC(0, [4.0, 6.0], 6, 2)]) - hand) <= rel * hand

        # OSR per-threshold indicator, hand evaluation.
        from netsafety.network_metrics import osr

        rates = osr({"a": 30.0, "b": 31.0}, 25.0, [1.0, 1.2])
        assert rates[1.0] == 1.0 and rates[1.2] == 0.5

        # TCI: general formula vs two-class identity on [1, 3].
        value, shares = tci({"Car": 1, "Truck": 3})
        assert abs(value - 0.8) <= rel
        assert abs(value - 1 / (2 * (1 - 2 * shares["Car"] * shares["Truck"]))) <= 1e-12

        # CPI hand sum: 3 of 10 unit steps exceeded over 10 s.
        cfg = SsmConfig(madr=4.0, timestep=1.0)
        assert abs(cpi([(5.0, 1)] * 3 + [(1.0, 1)] * 7, cfg, 10.0) - 0.3) <= rel

        # Minimum-safe-envelope hand evaluations.
        p = EnvelopeParams(response_time=1.0, accel_max=2.0, brake_min=4.0, brake_max=6.0,
                           lat_accel_max=0.2, lat_brake_min=1.0, mu=0.5)
        assert abs(min_safe_long_same(p, 20.0, p, 15.0) - 62.75) <= rel * 62.75
        assert abs(min_safe_long_same(p, 20.0, p, 0.0) - 81.5) <= rel * 81.5
        assert abs(min_safe_long_opp(p, 20.0, p, -15.0) - 133.625) <= rel * 133.625
        assert abs(min_safe_lat(p, 0.0, p, 0.0) - 0.74) <= rel * 0.74

        # Correlation trio hand values.
        assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) <= rel
        assert abs(spearman([1, 1, 2], [1, 2, 3]) - math.sqrt(3) / 2) <= rel
        assert abs(kendall([1, 2, 3], [1, 3, 2]) - 1 / 3) <= rel

        # OLS vs explicit normal-equations oracle (spot check; criterion 6 runs 100).
        x = rng.normal(size=(50, 3))
        y = x @ [1.0, -2.0, 0.5] + rng.normal(0, 0.5, 50)
        report = ols_fit(Dataset(x, y, ["a", "b", "c"]))
        oracle = ols_oracle(x, y)
        np.testing.assert_allclose(report.beta, oracle["beta"], rtol=rel)
        assert abs(report.f_stat - oracle["f"]) <= rel * oracle["f"]

        # Poisson closed-form group means.
        xb = np.array([0.0] * 5 + [1.0] * 5)
        yb = np.array([2.0] * 5 + [4.0] * 5)
        fitb = poisson_fit(Dataset(xb[:, None], yb, ["g"]))
        np.testing.assert_allclose(fitb.beta, [math.log(2), math.log(2)], atol=1e-8)

        # Chi-square hand values vs the scipy CDF oracle (<= 1e-4 on p-values).
        from netsafety.stats import chi2_contingency_yates, chi2_oneway

        yates = chi2_contingency_yates([[10, 20], [20, 10]])
        assert abs(yates.statistic - 5.4) <= rel * 5.4 and yates.df == 1
        assert abs(yates.p_value - chi2_sf_oracle(5.4, 1)) <= 1e-4
        oneway = chi2_oneway([10, 20])
        assert abs(oneway.statistic - 10 / 3) <= rel * (10 / 3)
        assert abs(oneway.p_value - chi2_sf_oracle(10 / 3, 1)) <= 1e-4
        assert abs(hourly_heterogeneity_test([10, 20]).p_value - 0.0679) <= 1e-4

        # Shapley two-player hand enumeration.
        game = {frozenset(): 0.0, frozenset({0}): 0.3, frozenset({1}): 0.4, frozenset({0, 1}): 0.6}
        shap = shapley_from_game(2, game.__getitem__)
        assert abs(shap.phi[0] - 0.25) <= rel and abs(shap.phi[1] - 0.35) <= rel


def test_criterion_2_cluster_limit_equivalence():
    with criterion(2, "d_C=0 cluster pipeline equals pairwise TTC on 50 random frames", budget_s=5.0):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            pos = np.cumsum(rng.uniform(5, 60, n))  # distinct single-lane positions
            speeds = rng.uniform(10, 36, n)
            ids = [f"v{i:02d}" for i in range(n)]
            clusters = cluster_frame(
                [(ids[i], (float(pos[i]), 0.0)) for i in range(n)],
                0.0,
                speeds={ids[i]: float(speeds[i]) for i in range(n)},
            )
            frame = cluster_ttc(clusters, (1.0, 0.0))
            expected = pairwise_ttc_oracle(list(pos), list(speeds))
            # Cross-check each oracle pair against the plain two-vehicle formula.
            for follower, value in expected.items():
                leader = max(
                    (j for j in range(n) if pos[j] > pos[follower] and speeds[j] <= speeds[follower]),
                    key=lambda j: -pos[j],
                )
                direct = ttc(PairState(x_leader=float(pos[leader]), x_follower=float(pos[follower]),
                                       v_leader=float(speeds[leader]), v_follower=float(speeds[follower])))
                assert direct == value
            assert sorted(frame.cttc_values) == sorted(expected.values())  # exact


def test_criterion_3_tci_identity():
    with criterion(3, "TCI general form vs two-class identity on 10,000 random counts", budget_s=1.0):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 10_000:
            n1, n2 = int(rng.integers(0, 1000)), int(rng.integers(0, 1000))
            if n1 + n2 == 0:
                continue
            value, shares = tci({"Car": n1, "Truck": n2})
            identity = 1.0 / (2.0 * (1.0 - 2.0 * shares["Car"] * shares["Truck"]))
            assert abs(value - identity) <= 1e-12
            checked += 1


def test_criterion_4_homography_round_trip():
    with criterion(4, "homography fit on 100 random matrices, reprojection <= 1e-6 m", budget_s=2.0):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = np.eye(3)
            h[:2, :2] += rng.normal(0, 0.2, (2, 2))
            h[:2, 2] = rng.normal(0, 50, 2)
            h[2, :2] = rng.normal(0, 1e-4, 2)
            pixels = rng.uniform([0, 0], [1280, 720], (6, 2))
            pairs = []
            for u, v in pixels:
                w = h @ [u, v, 1.0]
                pairs.append(KeypointPair((u, v), (w[0] / w[2], w[1] / w[2])))
            fit = fit_homography(pairs)
            for p in pairs:
                x, y = apply_homography(fit, p.pixel)
                assert math.hypot(x - p.world[0], y - p.world[1]) <= 1e-6


def test_criterion_5_sg_polynomial_preservation():
    with criterion(5, "SG filter reproduces degree<=order polynomials to 1e-9", budget_s=1.0):
        rng = np.random.default_rng(4)
        t = np.arange(60, dtype=float)
        for window, order in [(5, 2), (7, 3), (21, 3)]:
            for degree in range(order + 1):
                coef = rng.uniform(-1, 1, degree + 1)
                series = np.polynomial.polynomial.polyval(t, coef)
                out = smooth_savitzky_golay(series, window, order)
                np.testing.assert_allclose(out, series, atol=1e-9)


def test_criterion_6_regression_oracle_equivalence():
    with criterion(6, "OLS vs normal-equations oracle on 100 problems; Poisson score eqs", budget_s=10.0):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=(50, 3))
            y = x @ rng.normal(size=3) + rng.normal(0, rng.uniform(0.2, 2.0), 50)
            report = ols_fit(Dataset(x, y, ["a", "b", "c"]))
            oracle = ols_oracle(x, y)
            np.testing.assert_allclose(report.beta, oracle["beta"], rtol=1e-8)
            assert abs(report.r2 - oracle["r2"]) <= 1e-8 * abs(oracle["r2"])
            assert abs(report.adj_r2 - oracle["adj_r2"]) <= 1e-8 * abs(oracle["adj_r2"])
            assert abs(report.f_stat - oracle["f"]) <= 1e-8 * oracle["f"]
            assert abs(report.f_pvalue - oracle["p"]) <= max(1e-8 * oracle["p"], 1e-12)
        for _ in range(20):
            x = rng.normal(size=(60, 3))
            y = rng.poisson(np.exp(0.8 + x @ np.array([0.3, -0.2, 0.1]))).astype(float)
            report = poisson_fit(Dataset(x, y, ["a", "b", "c"]))
            design = np.column_stack([np.ones(60), x])
            mu = np.exp(design @ report.beta)
            assert np.max(np.abs(design.T @ (y - mu))) <= 1e-6


def test_criterion_7_shapley_axioms():
    with criterion(7, "Shapley efficiency/dummy/symmetry on constructed games (M<=6)", budget_s=5.0):
        rng = np.random.default_rng(6)
        n = 6
        table = {}
        for mask in range(1 << n):
            s = frozenset(i for i in range(n) if mask >> i & 1)
            table[s] = float(rng.uniform(0, 1)) if s else 0.0
        report = shapley_from_game(n, table.__getitem__)
        assert abs(sum(report.phi) - table[frozenset(range(n))]) <= 1e-9  # efficiency

        def with_dummy(s):  # player 5 contributes nothing
            return table[frozenset(s - {5})]

        dummy_report = shapley_from_game(n, with_dummy)
        assert abs(dummy_report.phi[5]) <= 1e-9

        def symmetric(s):  # players 0 and 1 interchangeable
            key = (len(s & {0, 1}), frozenset(s - {0, 1}))
            return float(key[0]) * 0.2 + table[key[1]] * 0.5

        sym_report = shapley_from_game(n, symmetric)
        assert abs(sym_report.phi[0] - sym_report.phi[1]) <= 1e-9

        # Cross-check a 4-player game against full permutation enumeration.
        sub = {frozenset(s & frozenset(range(4))): v for s, v in table.items() if s <= frozenset(range(4))}
        report4 = shapley_from_game(4, sub.__getitem__)
        np.testing.assert_allclose(report4.phi, shapley_permutation_oracle(4, sub.__getitem__), atol=1e-12)


PLANT_BETA = {"intercept": 2.3, "osr_1.0": 0.18, "ovvr": 0.18, "ntc": 0.18}
PLANTED = ("osr_1.0", "ovvr", "ntc")
NULLS = ("ttc_cv", "ivvr", "tci")


def run_plant_seed(seed):
    spec = ScenarioSpec(
        seed=seed, n_segments=3, n_intervals=100, beta_star=dict(PLANT_BETA), noise_kind="gaussian"
    )
    csvs = generate_trajectories(spec)
    rows = []
    for seg in spec.segment_configs():
        tracks = prepare_tracks(parse_trajectories(csvs[seg.segment_id], spec.fps), seg.travel_axis)
        rows.extend(
            compute_interval_metrics(tracks, seg, ClusterConfig(20.0), spec.fps, spec.windows())
        )
    plant = generate_crash_counts(
        rows, PLANT_BETA, noise_kind="gaussian", seed=seed, slot_minutes=10, target_r2=0.6
    )
    lam = np.array([plant.lam[k] for k in sorted(plant.lam)])
    counts = np.array([plant.counts[k] for k in sorted(plant.counts)], dtype=float)
    generator_r2 = r2_score(counts, lam)
    binning = crash_binning_of({key: (c, 0, 0) for key, c in plant.counts.items()})
    d = build_dataset(rows, binning, "AllType")
    corr = per_metric_correlations(d, ["pearson"])["pearson"]
    signs_ok = all(corr[m] is not None and corr[m] > 0 for m in PLANTED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        heldout = full_model_analysis(d, AnalysisConfig(seed=seed))["linear"].r2
    shap = shapley_analysis(d).by_name()
    rank_ok = min(shap[m] for m in PLANTED) > max(shap[m] for m in NULLS)
    return generator_r2, heldout, signs_ok, rank_ok


def test_criterion_8_plant_recovery():
    with criterion(8, "synthetic plant: signs, held-out R2, Shapley ranking over 20 seeds", budget_s=120.0):
        results = [run_plant_seed(seed) for seed in range(1, 21)]
        gen_r2 = [r[0] for r in results]
        heldout = [r[1] for r in results]
        signs = sum(r[2] for r in results)
        ranks = sum(r[3] for r in results)
        # (b) noise was chosen for generator R2 = 0.6 +- 0.05; verify the regime holds.
        assert all(abs(g - 0.6) <= 0.05 for g in gen_r2), gen_r2
        assert float(np.mean(heldout)) >= 0.5, heldout
        # (a) planted correlation signs in >= 95% of seeds.
        assert signs >= 19, f"sign recovery in only {signs}/20 seeds"
        # (c) planted predictors out-rank all nulls by Shapley value in >= 90% of seeds.
        assert ranks >= 18, f"Shapley ranking held in only {ranks}/20 seeds"


def test_criterion_9_chi_square_validity():
    with criterion(9, "subsample consistency (mean p > 0.5) and peaked one-way (p < 1e-6)", budget_s=30.0):
        rng = np.random.default_rng(7)
        # Homogeneous hourly profile: a plausible diurnal shape, identical across days.
        profile = 40 + 30 * np.sin(np.linspace(0, 2 * math.pi, 24))
        counts = rng.poisson(profile * 6)
        stat, mean_p = subsample_consistency_test(counts, fraction=0.1, seed=7, repeats=1000)
        assert mean_p > 0.5, (stat, mean_p)
        # Strongly peaked hours: the one-way test must reject overwhelmingly.
        peaked = np.full(24, 4)
        peaked[8], peaked[17] = 300, 280
        assert hourly_heterogeneity_test(peaked).p_value < 1e-6


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "synth -> project -> metrics -> associate byte-identical across runs", budget_s=60.0):
        spec = ScenarioSpec(
            seed=31, n_segments=2, n_intervals=12, interval_seconds=20.0, fps=4.0,
            beta_star={"intercept": 1.8, "osr_1.0": 0.3}, noise_kind="poisson",
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        digests = []
        for run in ("one", "two"):
            out = tmp_path / run
            assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
            config = str(out / "config.json")
            for sid in ("S1", "S2"):
                assert main(
                    ["project", "--config", config, "--in", str(out / f"trajectories_{sid}.csv"),
                     "--out", str(out / f"world_{sid}.csv")]
                ) == 0
            assert main(["metrics", "--config", config]) == 0
            with warns_exactly(few_rows(20)):
                assert main(["associate", "--config", config]) == 0
            digests.append(
                {
                    name: (out / name).read_bytes()
                    for name in [
                        "world_S1.csv", "world_S2.csv", "metrics.csv",
                        "association_report.json", "correlations.csv",
                        "full_model.csv", "shapley.csv",
                        "cross_segment_correlations.csv", "cross_segment_holdout.csv",
                    ]
                }
            )
        assert digests[0] == digests[1]
        report = json.loads((tmp_path / "one" / "association_report.json").read_text())
        assert report["n_intervals"] == 24
