import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

import labeldp.experiments as experiments
import labeldp.mechanisms as mechanisms
import labeldp.models as models
from labeldp.experiments import (
    CTR_COLUMNS,
    SIMULATION_COLUMNS,
    THM1_COLUMNS,
    CtrConfig,
    SimulationConfig,
    Thm1Config,
    check_ctr,
    check_simulation,
    check_thm1,
    config_manifest,
    run_ctr,
    run_simulation,
    run_thm1_demo,
    write_results,
)
from labeldp.data import Dataset, MixtureModel, SkewedBinarySpec, gen_mixture
from labeldp.metrics import hoeffding_lower_bound
from labeldp.models import LogisticHyper, TrainingDivergedError, train_logistic

SMALL_SIM = SimulationConfig(
    class_counts=(2, 4),
    dim=10,
    sigmas=(1.0,),
    n=40,
    trials=40,
    epsilons=(0.5, 2.0, 8.0),
    iterations=25,
    seed=11,
)

SMALL_CTR = CtrConfig(
    positive_rate=0.1, dim=5, separation=1.0, label_noise=0.05,
    n=4000,
    epsilons=(math.inf, 2.0, 0.1),
    iterations=40,
    seed=3,
)

# Every mechanism at two epsilons: RR, LP-2ST and ALIBI keep the training
# split's rows, PATE releases its query rows.
STACKED_CTR = CtrConfig(
    positive_rate=0.1, dim=5, separation=1.0, label_noise=0.05,
    n=3000,
    mechanisms=("rr", "lp2st", "alibi", "pate"),
    epsilons=(math.inf, 1.0),
    iterations=30,
    seed=4,
)


@pytest.fixture(scope="module")
def sim_rows():
    return run_simulation(SMALL_SIM)


@pytest.fixture(scope="module")
def ctr_rows():
    return run_ctr(SMALL_CTR)


class TestSimulation:
    def test_one_report_per_cell(self, sim_rows):
        assert len(sim_rows) == 2 * 1 * 3

    def test_invariants_hold(self, sim_rows):
        assert check_simulation(sim_rows) == []

    def test_leau_constant_across_epsilon(self, sim_rows):
        by_group = {}
        for rep in sim_rows:
            by_group.setdefault((rep["m"], rep["sigma"]), set()).add(rep["leau"])
        assert all(len(leaus) == 1 for leaus in by_group.values())

    def test_binary_leau_at_least_half(self, sim_rows):
        assert all(r["leau"] >= 0.5 for r in sim_rows if r["m"] == 2)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_fewer_than_two_trials_rejected_by_the_config(self, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 2 .*got {trials}"):
            SimulationConfig(trials=trials)

    def test_advantage_below_bound(self, sim_rows):
        for rep in sim_rows:
            assert rep["advantage"] <= rep["theoretical_bound"] + 3 * rep["eau_stderr"]

    def test_reproducible(self, sim_rows):
        again = run_simulation(SMALL_SIM)
        for a, b in zip(sim_rows, again):
            assert a == b

    @pytest.mark.parametrize("epsilons, shown", [
        ((math.nan,), "nan"), ((-1.0,), "-1.0"), ((1.0, math.nan), "nan"),
    ])
    def test_nan_or_negative_epsilon_rejected(self, epsilons, shown):
        with pytest.raises(ValueError, match=f"must be >= 0 or infinite, got {shown}$"):
            SimulationConfig(epsilons=epsilons)

    def test_zero_and_infinite_epsilon_accepted(self):
        assert SimulationConfig(epsilons=(0.0, 1.0, math.inf)).epsilons == (0.0, 1.0, math.inf)

    def test_epsilon_grid_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            SimulationConfig(epsilons=(2.0, 0.5))

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism 'bogus'"):
            SimulationConfig(mechanism="bogus")

    @pytest.mark.parametrize("grid, message", [
        pytest.param({"sigmas": (1.0, math.inf)}, "sigma must be positive and finite, got inf",
                     id="inf-sigma"),
        pytest.param({"sigmas": (math.nan,)}, "sigma must be positive and finite, got nan",
                     id="nan-sigma"),
        pytest.param({"class_counts": (2, 1)}, "need at least 2 classes, got 1",
                     id="one-class"),
        pytest.param({"class_counts": (2, 200), "dim": 100},
                     "invalid model: 200 classes need 200 basis vectors but dim is 100",
                     id="classes-beyond-dim"),
    ])
    def test_every_mixture_of_the_grid_is_checked(self, grid, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimulationConfig(**grid)

    def test_feature_redraws_emit_extra_rows(self):
        cfg = SimulationConfig(
            class_counts=(2,), dim=4, sigmas=(1.0,), n=20, trials=10,
            epsilons=(1.0,), feature_redraws=3, iterations=10, seed=0,
        )
        reports = run_simulation(cfg)
        assert [r["x_rep"] for r in reports] == [0, 1, 2]
        # Different feature draws give different exact L-EAU values.
        assert len({r["leau"] for r in reports}) == 3

    def test_posterior_evaluated_once_per_feature_draw(self, monkeypatch):
        """The features of an (m, sigma, rep) group are fixed across its
        epsilons, so L-EAU and every cell's label draws share one posterior
        matrix."""
        calls = []
        posterior = MixtureModel.posterior

        def counted(model, x):
            calls.append((model.num_classes, model.sigma))
            return posterior(model, x)

        monkeypatch.setattr(MixtureModel, "posterior", counted)
        cfg = SimulationConfig(
            class_counts=(2, 3), dim=4, sigmas=(1.0, 2.0), n=10, trials=2,
            epsilons=(0.5, 2.0, 8.0), feature_redraws=2, iterations=5, seed=0,
        )
        assert len(run_simulation(cfg)) == 2 * 2 * 2 * 3
        assert sorted(calls) == sorted([(m, s) for m in (2, 3) for s in (1.0, 2.0)] * 2)


class TestBlasThreadScope:
    TINY = SimulationConfig(class_counts=(2,), dim=3, sigmas=(1.0,), n=10, trials=2,
                            epsilons=(1.0, 2.0), iterations=3)

    def test_grid_runs_on_one_thread_and_restores_the_count(self, blas_threads, monkeypatch):
        seen = []
        original = experiments.eau_monte_carlo

        def recording(*args, **kwargs):
            seen.append(blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "eau_monte_carlo", recording)
        run_simulation(self.TINY)
        assert seen == [1, 1]
        assert blas_threads() == 2

    def test_count_restored_when_a_cell_raises(self, blas_threads, monkeypatch):
        error = TrainingDivergedError("training loss became non-finite at iteration 3")

        def diverge(*args, **kwargs):
            raise error

        monkeypatch.setattr(experiments, "eau_monte_carlo", diverge)
        with pytest.raises(TrainingDivergedError) as caught:
            run_simulation(self.TINY)
        assert caught.value is error
        assert blas_threads() == 2


class TestThm1:
    def test_empirical_eau_dominates_bound(self):
        rows = run_thm1_demo(Thm1Config(epsilon=1.0, n_values=(20, 100), trials=100, seed=0))
        assert check_thm1(rows) == []
        for row in rows:
            assert row["empirical_eau"] >= row["hoeffding_lower_bound"]
            assert row["hoeffding_lower_bound"] == hoeffding_lower_bound(1.0, row["n"])

    def test_infinite_epsilon_is_perfect(self):
        rows = run_thm1_demo(Thm1Config(epsilon=math.inf, n_values=(10, 50), trials=5, seed=1))
        assert all(row["empirical_eau"] == 1.0 for row in rows)

    def test_eau_nondecreasing_in_n(self):
        rows = run_thm1_demo(Thm1Config(epsilon=1.0, n_values=(10, 100, 1000), trials=200, seed=2))
        eaus = [row["empirical_eau"] for row in rows]
        # Concentration: larger n gives higher accuracy up to trial noise.
        assert eaus[2] >= eaus[0] - 0.02

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            Thm1Config(n_values=(5,))

    @pytest.mark.parametrize("block_labels", [1, 250, 7 * 1000 + 1])
    def test_rows_do_not_depend_on_the_block_bound(self, monkeypatch, block_labels):
        """One trial per block; blocks of at most 250 labels (all 7 trials of
        n = 10 in one block, n = 100 in blocks of 2, 2, 2 and 1, n = 1000
        one trial per block); and every n's trials in one block give the
        rows of the default bound."""
        config = Thm1Config(epsilon=0.5, n_values=(10, 100, 1000), trials=7, seed=4)
        expected = run_thm1_demo(config)
        monkeypatch.setattr(Thm1Config, "block_labels", block_labels)
        assert run_thm1_demo(config) == expected

    def test_one_row_ranking_per_block(self, monkeypatch):
        """Blocks of at most 250 labels: 1 block for n = 10, 4 for n = 100
        and 7 for n = 1000. The SPA queries reuse their block's ranking."""
        ranks = []
        rank_rows = models._rank_rows
        monkeypatch.setattr(models, "_rank_rows", lambda words: ranks.append(1) or rank_rows(words))
        monkeypatch.setattr(Thm1Config, "block_labels", 250)
        run_thm1_demo(Thm1Config(epsilon=0.5, n_values=(10, 100, 1000), trials=7, seed=4))
        assert len(ranks) == 1 + 4 + 7


class TestCtr:
    def test_baseline_row_present(self, ctr_rows):
        assert ctr_rows[0]["mechanism"] == "constant-baseline"

    def test_rows_per_mechanism_epsilon(self, ctr_rows):
        assert len(ctr_rows) == 1 + len(SMALL_CTR.epsilons)

    def test_advantage_below_universal_bound(self, ctr_rows):
        assert check_ctr(ctr_rows) == []

    def test_log_loss_recorded_and_finite(self, ctr_rows):
        for rep in ctr_rows:
            assert math.isfinite(rep["test_log_loss"])

    def test_infinite_epsilon_bound_is_b(self, ctr_rows):
        for rep in ctr_rows:
            if math.isinf(rep["epsilon"]):
                assert rep["theoretical_bound"] == rep["utility_bound"]

    def test_leau_shared_across_rows(self, ctr_rows):
        assert len({rep["leau"] for rep in ctr_rows}) == 1

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism 'bogus'"):
            CtrConfig(mechanisms=("rr", "bogus"))

    @pytest.mark.parametrize("grid", ["mechanisms", "epsilons"])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match=f"^{grid} must not be empty$"):
            CtrConfig(**{grid: ()})

    def test_n_below_the_split_minimum_is_rejected_before_drawing(self, monkeypatch):
        """0.04 * n floors to 0 below n = 25, which would empty the
        validation split after the source is drawn."""
        drawn = []
        monkeypatch.setattr(experiments, "gen_skewed_binary", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=r"^synthetic source needs n >= 25: .* split empty$"):
            run_ctr(CtrConfig(n=24))
        assert drawn == []

    def test_smallest_synthetic_n_runs(self):
        config = CtrConfig(positive_rate=0.5, dim=2, n=25, epsilons=(1.0,), iterations=3)
        assert len(run_ctr(config)) == 2

    def test_options_are_the_fields_and_source_is_derived(self):
        assert [f.name for f in dataclasses.fields(CtrConfig)] == [
            "csv_path", "label_column", "n", "positive_rate", "dim", "separation",
            "label_noise", "mechanisms", "epsilons", "iterations", "seed",
        ]
        assert SMALL_CTR.source == SkewedBinarySpec(0.1, 5, separation=1.0, label_noise=0.05)
        assert CtrConfig.split_fractions == (0.8, 0.04, 0.16)
        assert CtrConfig.pate_queries == 200

    def test_integer_and_numpy_epsilons_run_as_their_floats(self):
        def rows(epsilons):
            config = dataclasses.replace(SMALL_CTR, epsilons=epsilons)
            return run_ctr(config)

        assert rows((2, np.float64(1))) == rows((2.0, 1.0))

    def test_csv_source_uses_estimated_leau(self, tmp_path):
        from labeldp.data import gen_skewed_binary, write_csv

        ds, _ = gen_skewed_binary(SkewedBinarySpec(0.2, 3, 1.0, 0.0), 1500, seed=5)
        path = tmp_path / "ctr.csv"
        write_csv(ds, str(path))
        cfg = CtrConfig(csv_path=str(path), epsilons=(1.0,), iterations=30, seed=0)
        reports = run_ctr(cfg)
        assert len(reports) == 2
        assert all(math.isfinite(r["leau"]) for r in reports)


@pytest.fixture(scope="module")
def thm1_rows():
    return run_thm1_demo(Thm1Config(n_values=(10, 20), trials=5, seed=1))


class TestRows:
    """Every harness returns plain dict rows keyed by its columns."""

    @pytest.mark.parametrize("rows, columns", [
        ("sim_rows", SIMULATION_COLUMNS), ("thm1_rows", THM1_COLUMNS), ("ctr_rows", CTR_COLUMNS),
    ], ids=["simulate", "thm1", "ctr"])
    def test_keys_are_the_columns_in_order(self, request, rows, columns):
        rows = request.getfixturevalue(rows)
        assert rows and all(list(row) == columns for row in rows)

    @pytest.mark.parametrize("rows", ["sim_rows", "ctr_rows"], ids=["simulate", "ctr"])
    def test_advantage_is_the_exact_difference(self, request, rows):
        for row in request.getfixturevalue(rows):
            assert row["advantage"] == row["eau"] - row["leau"]


class TestAdvantage:
    @staticmethod
    def advantage(eau, leau):
        return experiments._attack_columns(eau, 0.0, leau, 1.0)["advantage"]

    def test_values(self):
        assert self.advantage(0.9, 0.9) == 0.0
        assert self.advantage(0.5, 0.676) == pytest.approx(-0.176)
        assert self.advantage(1.0, 0.0) == 1.0

    def test_report_advantage_is_exact_difference(self):
        assert self.advantage(0.7, 0.9) == 0.7 - 0.9


# Two epsilons of RR on a small synthetic source: two release calls.
TINY_CTR = CtrConfig(positive_rate=0.2, dim=3, n=400, epsilons=(math.inf, 1.0), iterations=3)


class TestCtrBlasThreadScope:
    def test_run_uses_one_thread_and_restores_the_count(self, blas_threads, monkeypatch):
        seen = []
        original = experiments.release

        def recording(*args, **kwargs):
            seen.append(blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "release", recording)
        run_ctr(TINY_CTR)
        assert seen == [1, 1]
        assert blas_threads() == 2

    def test_count_restored_when_a_cell_raises(self, blas_threads, monkeypatch):
        error = TrainingDivergedError("training loss became non-finite at iteration 3")

        def diverge(*args, **kwargs):
            raise error

        monkeypatch.setattr(experiments, "release", diverge)
        with pytest.raises(TrainingDivergedError) as caught:
            run_ctr(TINY_CTR)
        assert caught.value is error
        assert blas_threads() == 2


class TestCtrSourceLifetime:
    """The source dataset and the validation split are freed before the
    first release, so only the training and test splits live through
    training."""

    @staticmethod
    def alive_at_each_release(monkeypatch, config):
        refs, alive = {}, []
        original_split, original_release = experiments.split, experiments.release

        def recording_split(dataset, *args):
            parts = original_split(dataset, *args)
            refs.update(source=weakref.ref(dataset), val=weakref.ref(parts[1]))
            return parts

        def recording_release(*args, **kwargs):
            alive.append({name: ref() is not None for name, ref in refs.items()})
            return original_release(*args, **kwargs)

        monkeypatch.setattr(experiments, "split", recording_split)
        monkeypatch.setattr(experiments, "release", recording_release)
        run_ctr(config)
        return alive

    def test_synthetic_source_is_freed(self, monkeypatch):
        alive = self.alive_at_each_release(monkeypatch, TINY_CTR)
        assert alive == [{"source": False, "val": False}] * 2

    def test_csv_source_is_freed(self, monkeypatch, tmp_path):
        from labeldp.data import gen_skewed_binary, write_csv

        ds, _ = gen_skewed_binary(TINY_CTR.source, 400, seed=5)
        path = tmp_path / "ctr.csv"
        write_csv(ds, str(path))
        config = dataclasses.replace(TINY_CTR, csv_path=str(path))
        alive = self.alive_at_each_release(monkeypatch, config)
        assert alive == [{"source": False, "val": False}] * 2


@pytest.fixture(scope="module")
def stacked_ctr():
    """run_ctr(STACKED_CTR) with its training split, every train_logistic
    call made by `experiments` and by `mechanisms`, and what _fit_released
    was given and returned."""
    seen = {"experiments": [], "mechanisms": []}
    original_split, original_fit = experiments.split, experiments._fit_released

    def recording_split(*args):
        parts = original_split(*args)
        seen["train"] = parts[0]
        return parts

    def recording_fit(released, hyper, seeds):
        models = original_fit(released, hyper, seeds)
        seen.update(released=released, hyper=hyper, seeds=seeds, models=models)
        return models

    def recorder(module):
        def fit(train, hyper, seed=0):
            seen[module].append(train)
            return train_logistic(train, hyper, seed)
        return fit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "split", recording_split)
        mp.setattr(experiments, "_fit_released", recording_fit)
        mp.setattr(experiments, "train_logistic", recorder("experiments"))
        mp.setattr(mechanisms, "train_logistic", recorder("mechanisms"))
        reports = run_ctr(STACKED_CTR)
    return reports, seen


class TestCtrStackedFit:
    """run_ctr releases every cell first, then fits the distinct label
    vectors of the cells that keep the training split's feature array in one
    stacked train_logistic call."""

    def test_one_stacked_call_over_the_training_split(self, stacked_ctr):
        _, seen = stacked_ctr
        train = seen["train"]
        stack, *students = seen["experiments"]
        assert stack.features is train.features
        # RR, LP-2ST and ALIBI all release the true labels at epsilon inf, so
        # the six cells hold four distinct vectors.
        assert stack.labels.shape == (4, len(train))
        # PATE's students: one fit per epsilon over its own query rows.
        assert [s.labels.shape for s in students] == [(1, STACKED_CTR.pate_queries)] * 2
        assert all(s.features is not train.features for s in students)
        # PATE's teachers (release's default of 5), each alone; binary LP-2ST
        # trains no stage-1 model.
        assert len(seen["mechanisms"]) == 2 * 5
        assert all(ds.labels.ndim == 1 for ds in seen["mechanisms"])

    def test_stack_rows_and_reports_in_config_order(self, stacked_ctr):
        reports, seen = stacked_ctr
        cells = [(m, e) for m in STACKED_CTR.mechanisms for e in STACKED_CTR.epsilons]
        assert [(r["mechanism"], r["epsilon"]) for r in reports] == [
            ("constant-baseline", math.inf), *cells
        ]
        # Cells in config order: rr inf, rr 1, lp2st inf, lp2st 1, alibi inf,
        # alibi 1; the epsilon-inf releases after rr's are its duplicates.
        released = [ds.labels for ds in seen["released"][:6]]
        for duplicate in (2, 4):
            np.testing.assert_array_equal(released[duplicate], released[0])
        kept = [released[i] for i in (0, 1, 3, 5)]
        np.testing.assert_array_equal(seen["experiments"][0].labels, np.stack(kept))

    def test_stacked_models_match_fits_alone(self, stacked_ctr):
        _, seen = stacked_ctr
        assert seen["hyper"] == LogisticHyper(iterations=STACKED_CTR.iterations)
        for train, seed, model in zip(seen["released"], seen["seeds"], seen["models"]):
            alone = train_logistic(train, seen["hyper"], seed)
            assert model.seed == seed
            worst = np.max(np.abs(model.weights - alone.weights))
            assert worst <= 1e-12 * np.max(np.abs(alone.weights))
            np.testing.assert_allclose(model.loss_history, alone.loss_history,
                                       rtol=1e-12, atol=0)


class TestFitReleasedDeduplicates:
    """_fit_released fits each distinct label vector of a feature group once."""

    HYPER = LogisticHyper(iterations=20)

    @pytest.fixture
    def fitted(self, monkeypatch):
        """Five released sets: four over one feature array, whose third label
        vector repeats the first (as a separate array), and one over a copy of
        that array with the first vector again. Returns the sets, their
        seeds, the models and every stack train_logistic was given."""
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 40, seed=6)
        rng = np.random.default_rng(6)
        a, b, c = (rng.integers(0, 3, 40) for _ in range(3))
        released = [ds.with_labels(v) for v in (a, b, a.copy(), c)]
        released.append(Dataset(ds.features.copy(), a, 3))
        seeds = [101, 102, 103, 104, 105]
        stacks = []

        def recording(train, hyper, seed=0):
            stacks.append(train)
            return train_logistic(train, hyper, seed)

        monkeypatch.setattr(experiments, "train_logistic", recording)
        models = experiments._fit_released(released, self.HYPER, seeds)
        return released, seeds, models, stacks

    def test_a_repeated_vector_is_fit_once(self, fitted):
        released, _, _, stacks = fitted
        shared, other = stacks
        assert shared.features is released[0].features
        np.testing.assert_array_equal(
            shared.labels, np.stack([released[i].labels for i in (0, 1, 3)])
        )
        # Another feature array is its own group, even with an equal vector.
        assert other.features is released[4].features and other.labels.shape == (1, 40)

    def test_duplicates_share_their_representatives_fit(self, fitted):
        _, seeds, models, _ = fitted
        assert [m.seed for m in models] == seeds
        first, duplicate = models[0], models[2]
        assert duplicate is not first
        for name in ("weights", "mu", "sd"):
            assert getattr(duplicate, name).tobytes() == getattr(first, name).tobytes()
        assert duplicate.loss_history == first.loss_history
        assert duplicate.num_classes == first.num_classes == 3

    def test_every_model_matches_its_fit_alone(self, fitted):
        released, seeds, models, _ = fitted
        for train, seed, model in zip(released, seeds, models):
            alone = train_logistic(train, self.HYPER, seed)
            worst = np.max(np.abs(model.weights - alone.weights))
            assert worst <= 1e-12 * np.max(np.abs(alone.weights))

    def test_strided_labels_share_the_fit_of_equal_values(self, monkeypatch):
        """A repeat held as a strided view (not C-contiguous) is found by its
        values: it is not stacked and its model keeps its own seed."""
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 40, seed=6)
        rng = np.random.default_rng(6)
        a, b = (rng.integers(0, 3, 40) for _ in range(2))
        released = [ds.with_labels(v) for v in (a, b, np.repeat(a, 2)[::2])]
        assert not released[2].labels.flags.c_contiguous
        stacks = []

        def recording(train, hyper, seed=0):
            stacks.append(train)
            return train_logistic(train, hyper, seed)

        monkeypatch.setattr(experiments, "train_logistic", recording)
        models = experiments._fit_released(released, self.HYPER, [7, 8, 9])
        [stack] = stacks
        np.testing.assert_array_equal(stack.labels, np.stack([a, b]))
        assert [m.seed for m in models] == [7, 8, 9]
        assert models[2].weights.tobytes() == models[0].weights.tobytes()


@pytest.mark.parametrize("config, kwargs, message", [
    pytest.param(SimulationConfig, dict(dim=math.nan), "^dim must be positive$", id="sim-dim"),
    pytest.param(SimulationConfig, dict(n=math.nan), "^n must be positive$", id="sim-n"),
    pytest.param(SimulationConfig, dict(feature_redraws=math.nan),
                 "^feature_redraws must be positive$", id="sim-feature-redraws"),
    pytest.param(SimulationConfig, dict(trials=math.nan), "^trials must be >= 2 .*got nan$",
                 id="sim-trials"),
    pytest.param(Thm1Config, dict(trials=math.nan), "^trials must be >= 1$", id="thm1-trials"),
    pytest.param(CtrConfig, dict(n=math.nan), "^synthetic source needs n >= 25: ",
                 id="ctr-n"),
])
def test_nan_size_rejected(config, kwargs, message):
    """NaN passes a `<` test; each size check rejects it with its own message."""
    with pytest.raises(ValueError, match=message):
        config(**kwargs)


def sim_row(m=2, sigma=1.0, epsilon=1.0, x_rep=0, trials=10, *, eau, eau_stderr=0.0,
            leau, theoretical_bound=1.0):
    """A simulate row, keyed by SIMULATION_COLUMNS, with advantage = eau - leau."""
    return {"m": m, "sigma": sigma, "epsilon": epsilon, "x_rep": x_rep, "trials": trials,
            "eau": eau, "eau_stderr": eau_stderr, "leau": leau, "advantage": eau - leau,
            "theoretical_bound": theoretical_bound}


class TestCheckFunctions:
    def test_check_ctr_flags_bound_violation(self):
        bad = {"mechanism": "rr", "epsilon": 1.0, "test_log_loss": 0.3, "eau": 0.9,
               "eau_stderr": 0.0, "leau": 0.1, "advantage": 0.9 - 0.1,
               "theoretical_bound": 0.5, "utility_bound": 2.0}
        assert check_ctr([bad]) == [
            "cell {'mechanism': 'rr', 'epsilon': 1.0, 'test_log_loss': 0.3, 'utility_bound': "
            "2.0}: advantage 0.800000 exceeds bound 0.500000 + 3*stderr"
        ]

    def test_check_ctr_flags_non_finite_values(self):
        row = {"mechanism": "rr", "epsilon": 1.0, "test_log_loss": 0.3, "eau": math.nan,
               "eau_stderr": 0.0, "leau": 0.1, "advantage": math.nan,
               "theoretical_bound": 0.5, "utility_bound": 2.0}
        cell = "{'mechanism': 'rr', 'epsilon': 1.0, 'test_log_loss': 0.3, 'utility_bound': 2.0}"
        assert check_ctr([row]) == [f"cell {cell}: eau is nan", f"cell {cell}: advantage is nan"]

    def test_check_simulation_flags_non_monotone_eau(self):
        lo = sim_row(epsilon=0.5, eau=0.9, leau=0.5)
        hi = sim_row(epsilon=2.0, eau=0.2, leau=0.5)
        assert any("drops" in v for v in check_simulation([lo, hi]))

    @pytest.mark.parametrize("field, values", [
        ("eau", dict(eau=math.nan, leau=0.5)),
        ("eau_stderr", dict(eau=0.6, eau_stderr=math.inf, leau=0.5)),
        ("leau", dict(eau=0.6, leau=math.nan)),
        ("advantage", dict(eau=math.inf, leau=math.inf)),
    ])
    def test_check_simulation_flags_non_finite_values(self, field, values):
        row = sim_row(**{"eau_stderr": 0.01, **values})
        cell = {"m": 2, "sigma": 1.0, "epsilon": 1.0, "x_rep": 0, "trials": 10}
        assert f"cell {cell}: {field} is {row[field]}" in check_simulation([row])

    def test_check_thm1_flags_bound_violation(self):
        row = {"n": 10, "empirical_eau": 0.2, "hoeffding_lower_bound": 0.4}
        assert check_thm1([row]) != []


class TestWriteResults:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], str(path), "csv", columns=SIMULATION_COLUMNS, manifest={})
        assert path.read_text() == ",".join(SIMULATION_COLUMNS) + "\n"

    def test_csv_cells_keep_their_spelling(self, tmp_path):
        """Every cell type a harness row holds reads as a per-cell speller
        writes it: floats (numpy's too, inf and nan) as their repr, ints as
        str, strings unchanged."""

        def cell_value(value):
            if isinstance(value, (np.floating, float)):
                return repr(float(value))
            if isinstance(value, (np.integer, int)):
                return str(int(value))
            return str(value)

        values = [0.1, np.float64(1 / 3), math.inf, np.float64(-math.inf), math.nan, 1,
                  np.int64(-7), np.float64(5e-324)]
        columns = [f"c{i}" for i in range(len(values))] + ["mechanism"]
        # Each number once in every numeric column, so ints and floats mix.
        rows = [dict(zip(columns, values[i:] + values[:i] + ["rr"])) for i in range(len(values))]
        path = tmp_path / "cells.csv"
        write_results(rows, str(path), "csv", columns=columns, manifest={})
        lines = [",".join(cell_value(row[c]) for c in columns) + "\n" for row in rows]
        assert path.read_text() == ",".join(columns) + "\n" + "".join(lines)

    def test_rerun_is_byte_identical(self, tmp_path, sim_rows):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        manifest = config_manifest(SMALL_SIM)
        write_results(sim_rows, str(p1), "csv", SIMULATION_COLUMNS, manifest)
        write_results(run_simulation(SMALL_SIM), str(p2), "csv", SIMULATION_COLUMNS, manifest)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.csv.manifest.json").read_bytes() == (
            tmp_path / "b.csv.manifest.json"
        ).read_bytes()

    def test_manifest_echoes_seed(self, tmp_path):
        rows = run_thm1_demo(Thm1Config(n_values=(10,), trials=5, seed=42))
        path = tmp_path / "t.csv"
        write_results(rows, str(path), "csv", THM1_COLUMNS,
                      config_manifest(Thm1Config(n_values=(10,), trials=5, seed=42)))
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 42
        assert manifest["columns"] == THM1_COLUMNS

    def test_structured_records_round_trip(self, tmp_path, ctr_rows):
        path = tmp_path / "r.jsonl"
        write_results(ctr_rows, str(path), "structured-records", CTR_COLUMNS, {})
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(ctr_rows)
        first = json.loads(lines[0])
        assert list(first.keys()) == CTR_COLUMNS

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_results([], str(tmp_path / "x"), "parquet", columns=["a"], manifest={})

    def test_failed_write_keeps_previous_files(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([{"a": 1.0}], str(path), "csv", columns=["a"], manifest={"run": 1})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(KeyError):
            # The second row lacks column "a", so the write fails midway.
            write_results([{"a": 2.0}, {"b": 3.0}], str(path), "csv", columns=["a"],
                          manifest={"run": 2})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_io_error_names_path(self, tmp_path):
        target = tmp_path / "nodir" / "x.csv"
        with pytest.raises(OSError, match="nodir"):
            write_results([], str(target), "csv", columns=["a"], manifest={})
