import contextlib
import hashlib
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import labeldp.cli as cli
import labeldp.data as data
import labeldp.models as models
from labeldp.cli import CHECK_EXIT, main
from labeldp.data import Dataset, MixtureModel, gen_mixture, write_csv
from labeldp.models import LogisticHyper, save_model, train_logistic


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_record(out):
    return json.loads(out.strip().split("\n")[-1])


def patch_train_logistic(monkeypatch, replacement):
    """Rebind train_logistic in every labeldp module that imported it."""
    import labeldp.models as models

    original = models.train_logistic
    for name, module in list(sys.modules.items()):
        if name.startswith("labeldp") and getattr(module, "train_logistic", None) is original:
            monkeypatch.setattr(module, "train_logistic", replacement)
    return original


@pytest.fixture
def fit_calls(monkeypatch):
    """Record every train_logistic call made through any labeldp module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = patch_train_logistic(monkeypatch, counted)
    return calls


class TestBoundCommand:
    def test_universal_ln3(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--epsilon", "1.0986122886681098",
                               "--delta", "0", "--B", "1")
        assert code == 0
        assert last_record(out)["value"] == pytest.approx(0.5, abs=1e-6)

    def test_six_significant_digits_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "--epsilon", "2", "--B", "1")
        assert last_record(out)["value"] == 0.761594

    def test_full_precision_flag(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "--epsilon", "2", "--B", "1", "--full-precision")
        assert last_record(out)["value"] == pytest.approx(math.tanh(1.0), abs=1e-15)

    def test_reconstruction_kind(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kind", "reconstruction",
                               "--epsilon", "1", "--delta", "1e-5", "--domain-size", "1000")
        assert code == 0
        assert last_record(out)["value"] == pytest.approx(0.642121, abs=1e-6)

    def test_hoeffding_kind(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kind", "hoeffding", "--epsilon", "1",
                               "--n", "100")
        assert code == 0
        assert last_record(out)["value"] == 0.990397

    @pytest.mark.parametrize("kind, term", [
        pytest.param("universal", "--B", id="universal"),
        pytest.param("advantage", "--exp-sup", id="advantage"),
        pytest.param("weak-threat", "--exp-sup", id="weak-threat"),
        pytest.param("reconstruction", "--domain-size", id="reconstruction"),
        pytest.param("hoeffding", "--n", id="hoeffding"),
    ])
    def test_missing_term_is_validation_error(self, capsys, kind, term):
        code, out, err = run_cli(capsys, "bound", "--kind", kind, "--epsilon", "1")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {kind} bound needs {term}"]

    def test_epsilon_beyond_the_exp_range(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--epsilon", "1000", "--B", "1")
        assert code == 0
        assert '"value": 1.0' in out

    def test_draft_variant_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--epsilon", "1", "--B", "1", "--draft-variant"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --draft-variant" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, terms", [
        pytest.param("universal", ["--B", "1"], id="universal"),
        pytest.param("advantage", ["--exp-sup", "1"], id="advantage"),
        pytest.param("weak-threat", ["--exp-sup", "1"], id="weak-threat"),
        pytest.param("generalization", [], id="generalization"),
        pytest.param("reconstruction", ["--domain-size", "1000"], id="reconstruction"),
    ])
    def test_nan_epsilon_is_one_error_line(self, capsys, kind, terms):
        code, out, err = run_cli(capsys, "bound", "--kind", kind, "--epsilon", "nan", *terms)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: epsilon must be >= 0, got nan"]

    @pytest.mark.parametrize("kind, terms, message", [
        pytest.param("universal", ["--B", "inf"],
                     "utility_bound must be positive and finite, got inf", id="universal"),
        pytest.param("advantage", ["--exp-sup", "inf"],
                     "exp_sup_utility must be finite, got inf", id="advantage"),
        pytest.param("weak-threat", ["--exp-sup", "inf"],
                     "exp_sup_utility must be finite, got inf", id="weak-threat"),
        pytest.param("reconstruction", ["--delta", "0", "--domain-size", "inf"],
                     "domain_size must be positive and finite, got inf", id="reconstruction"),
        # A kind rejects a bad value of a flag it does not use.
        pytest.param("hoeffding", ["--n", "100", "--B", "inf"],
                     "utility_bound must be positive and finite, got inf", id="hoeffding-B"),
    ])
    def test_infinite_term_is_one_error_line(self, capsys, kind, terms, message):
        code, out, err = run_cli(capsys, "bound", "--kind", kind, "--epsilon", "1", *terms)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("kind", ["advantage", "weak-threat", "generalization"])
    def test_nan_expected_supremum_is_one_error_line(self, capsys, kind):
        code, out, err = run_cli(capsys, "bound", "--kind", kind, "--epsilon", "1",
                                 "--exp-sup", "nan")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: exp_sup_utility must be >= 0, got nan"]


def test_readme_bound_and_calibrate_examples_run(capsys):
    """Every `labeldp bound` / `labeldp calibrate` line of README's CLI block
    exits 0 with one JSON record, and a `# -> <number>` comment holds."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    ran = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = command.split()
        if argv[:1] != ["labeldp"] or argv[1] not in ("bound", "calibrate"):
            continue
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0 and err == "", line
        [record] = [json.loads(row) for row in out.splitlines()]
        promised = comment.partition("->")[2].strip()
        try:
            expected = float(promised)
        except ValueError:
            expected = None
        if expected is not None:
            key = "value" if argv[1] == "bound" else "epsilon"
            assert record[key] == pytest.approx(expected, abs=1e-4), line
        ran += 1
    assert ran >= 3


class TestCalibrateCommand:
    def test_inverse_of_half(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--advantage", "0.5", "--delta", "0", "--B", "1")
        assert code == 0
        assert last_record(out)["epsilon"] == pytest.approx(1.09861, abs=1e-5)

    def test_infinite_utility_bound_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "calibrate", "--advantage", "0.5", "--B", "inf")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: utility_bound must be positive and finite, got inf"]

    def test_infeasible_returns_nonzero(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--advantage", "0.1", "--delta", "0.5", "--B", "1")
        assert code == 1
        assert last_record(out)["feasible"] is False


class TestPrivatizeAndAttack:
    def test_round_trip(self, tmp_path, capsys):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 60, seed=0)
        data_csv = tmp_path / "data.csv"
        write_csv(ds, str(data_csv))

        out_csv = tmp_path / "private.csv"
        code, _, _ = run_cli(capsys, "privatize", "--input", str(data_csv),
                             "--mechanism", "rr", "--epsilon", "1.0",
                             "--seed", "5", "--output", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "row_index,private_label" and len(lines) == 61
        manifest = json.loads((tmp_path / "private.csv.manifest.json").read_text())
        assert manifest["epsilon"] == 1.0 and manifest["seed"] == 5

        model = train_logistic(ds, LogisticHyper(iterations=40), seed=0)
        model_path = tmp_path / "model.txt"
        save_model(model, str(model_path))
        attack_csv = tmp_path / "inferred.csv"
        code, out, _ = run_cli(capsys, "attack", "--model", str(model_path),
                               "--input", str(data_csv), "--label-column", "label",
                               "--output", str(attack_csv))
        assert code == 0
        header = attack_csv.read_text().split("\n")[0]
        assert header == "row_index,inferred_label,true_label"
        assert "empirical_eau" in out

    def test_resolved_config_lines_pinned(self, tmp_path, capsys, monkeypatch):
        """privatize and attack echo every parsed option but --full-precision,
        sorted by key, as their hand-listed echoes did."""
        monkeypatch.chdir(tmp_path)
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 30, seed=0)
        write_csv(ds, "data.csv")
        save_model(train_logistic(ds, LogisticHyper(iterations=3), seed=0), "m.txt")
        code, out, err = run_cli(capsys, "privatize", "--input", "data.csv", "--epsilon", "1.5",
                                 "--seed", "3", "--output", "out.csv")
        assert code == 0, err
        assert out.splitlines()[0] == (
            'resolved-config {"epsilon": 1.5, "input": "data.csv", "iterations": 150, '
            '"label_column": "label", "mechanism": "rr", "output": "out.csv", "seed": 3, '
            '"top_k": 2}'
        )
        code, out, err = run_cli(capsys, "attack", "--model", "m.txt", "--input", "data.csv",
                                 "--label-column", "label", "--utility", "weighted",
                                 "--marginal", "0.2,0.3,0.5", "--output", "o.csv",
                                 "--full-precision")
        assert code == 0, err
        assert out.splitlines()[0] == (
            'resolved-config {"attack": "spa", "input": "data.csv", "label_column": "label", '
            '"marginal": "0.2,0.3,0.5", "model": "m.txt", "output": "o.csv", '
            '"utility": "weighted"}'
        )

    def test_attack_without_labels(self, tmp_path, capsys):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=1)
        feat_csv = tmp_path / "feat.csv"
        with open(feat_csv, "w") as fh:
            fh.write("a,b,c\n")
            for row in ds.features:
                fh.write(",".join(map(str, row)) + "\n")
        model_path = tmp_path / "model.txt"
        save_model(train_logistic(ds, LogisticHyper(iterations=20), seed=0), str(model_path))
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "attack", "--model", str(model_path),
                             "--input", str(feat_csv), "--output", str(out_csv))
        assert code == 0
        assert out_csv.read_text().split("\n")[0] == "row_index,inferred_label"

    def test_marginal_guess_attack_with_zero_one_utility(self, tmp_path, capsys):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 12, seed=2)
        data_csv = tmp_path / "d.csv"
        write_csv(ds, str(data_csv))
        model_path = tmp_path / "m.txt"
        save_model(train_logistic(ds, LogisticHyper(iterations=10), seed=0), str(model_path))
        out_csv = tmp_path / "g.csv"
        code, out, _ = run_cli(capsys, "attack", "--model", str(model_path),
                               "--input", str(data_csv), "--label-column", "label",
                               "--attack", "marginal-guess", "--marginal", "0.9,0.1",
                               "--output", str(out_csv))
        assert code == 0
        inferred = [line.split(",")[1] for line in out_csv.read_text().strip().split("\n")[1:]]
        assert set(inferred) == {"0"}
        assert out.splitlines()[-1] == '{"attack": "marginal-guess", "empirical_eau": 0.5}'

    def test_attack_without_labels_rejects_ragged_row(self, tmp_path, capsys):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=1)
        model_path = tmp_path / "model.txt"
        save_model(train_logistic(ds, LogisticHyper(iterations=5), seed=0), str(model_path))
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("x0,x1,x2\n1,2,3\n1,2\n")
        code, _, err = run_cli(capsys, "attack", "--model", str(model_path),
                               "--input", str(ragged), "--output", str(tmp_path / "o.csv"))
        assert code == 1
        assert "row 1 has 2 cells, expected 3" in err

    def test_non_finite_cell_is_one_error_line(self, tmp_path, capsys):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 40, seed=0)
        data_csv = tmp_path / "nan.csv"
        write_csv(ds, str(data_csv))
        lines = data_csv.read_text().split("\n")
        cells = lines[6].split(",")
        cells[1] = "nan"
        lines[6] = ",".join(cells)
        data_csv.write_text("\n".join(lines))
        for argv in (["privatize", "--input", str(data_csv), "--epsilon", "1"],
                     ["ctr", "--csv", str(data_csv), "--iterations", "5"]):
            code, _, err = run_cli(capsys, *argv, "--output", str(tmp_path / "o.csv"))
            assert code == 1
            assert err.splitlines() == [
                f"error: {data_csv}: row 5, column 'x1': non-finite cell nan"
            ]

    # A plain file (numpy's C reader) and a quoted one (the row scan).
    @pytest.mark.parametrize("cell", ["1e20", '"1e20"'])
    def test_label_outside_int64_is_one_error_line(self, tmp_path, capsys, cell):
        big = tmp_path / "big.csv"
        big.write_text(f"x0,label\n0.5,{cell}\n1.5,0\n")
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "privatize", "--input", str(big), "--epsilon", "1",
                               "--output", str(out_csv))
        assert code == 1
        assert err.splitlines() == [
            f"error: {big}: row 0, column 'label': label '1e20' does not fit int64"
        ]
        assert not out_csv.exists()

    @pytest.mark.parametrize("mechanism", ["alibi", "lp2st"])
    def test_class_count_beyond_memory_is_one_error_line(self, tmp_path, capsys, mechanism):
        # A label of 1e17 sizes (n, 1e17 + 1) float64 arrays: far above any
        # address space, so the allocation fails at once on every host.
        huge = tmp_path / "huge.csv"
        huge.write_text("x0,label\n0.5,1e17\n1.5,0\n2.5,1\n")
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "privatize", "--input", str(huge), "--epsilon", "1",
                               "--mechanism", mechanism, "--output", str(out_csv))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: Unable to allocate ")
        assert not out_csv.exists()

    def test_lp2st_on_a_column_whose_sum_overflows(self, tmp_path, capsys, fit_calls):
        """The column's sum, and some of its deviations from the mean, leave
        float64; filterwarnings = error turns an overflow warning into a
        failure. Three classes, so the stage-1 model is trained."""
        big = tmp_path / "big.csv"
        big.write_text("x0,label\n1e308,0\n1.5e308,1\n-1e308,2\n1.7e308,1\n")
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "privatize", "--input", str(big), "--mechanism", "lp2st",
                               "--epsilon", "1", "--iterations", "5", "--output", str(out_csv))
        assert code == 0, err
        assert len(fit_calls) == 1
        header, *rows = out_csv.read_text().splitlines()
        assert header == "row_index,private_label" and len(rows) == 4

    @pytest.mark.parametrize("argv", [
        ["privatize", "--mechanism", "lp2st", "--epsilon", "1"],
        ["ctr", "--n", "200", "--epsilons", "1", "--iterations", "3"],
    ], ids=["privatize", "ctr"])
    def test_diverged_training_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        def diverge(*args, **kwargs):
            raise models.TrainingDivergedError("non-finite loss at iteration 3")

        patch_train_logistic(monkeypatch, diverge)
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 30, seed=0)
        data_csv = tmp_path / "d.csv"
        write_csv(ds, str(data_csv))
        out_csv = tmp_path / "o.csv"
        if argv[0] == "privatize":
            argv = [*argv, "--input", str(data_csv)]
        code, _, err = run_cli(capsys, *argv, "--output", str(out_csv))
        assert code == 1
        assert err.splitlines() == ["error: non-finite loss at iteration 3"]
        assert not out_csv.exists()

    @pytest.mark.parametrize("epsilon, shown", [("nan", "nan"), ("-1", "-1.0")])
    def test_privatize_rr_rejects_nan_or_negative_epsilon(self, tmp_path, capsys,
                                                         epsilon, shown):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 20, seed=0)
        data_csv = tmp_path / "d.csv"
        write_csv(ds, str(data_csv))
        out_csv = tmp_path / "p.csv"
        code, _, err = run_cli(capsys, "privatize", "--input", str(data_csv),
                               "--mechanism", "rr", f"--epsilon={epsilon}",
                               "--output", str(out_csv))
        assert code == 1
        assert err.splitlines() == [f"error: epsilon must be >= 0, got {shown}"]
        assert not out_csv.exists()
        assert not (tmp_path / "p.csv.manifest.json").exists()

    @staticmethod
    def attack_error(tmp_path, capsys, *argv):
        """The stderr lines of a failing `attack` run on a small labelled
        CSV and a two-class model, after checking that it wrote nothing."""
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 12, seed=2)
        data_csv = tmp_path / "d.csv"
        write_csv(ds, str(data_csv))
        model_path = tmp_path / "m.txt"
        save_model(train_logistic(ds, LogisticHyper(iterations=10), seed=0), str(model_path))
        out_csv = tmp_path / "g.csv"
        code, _, err = run_cli(capsys, "attack", "--model", str(model_path),
                               "--input", str(data_csv), "--label-column", "label",
                               *argv, "--output", str(out_csv))
        assert code == 1
        assert not out_csv.exists()
        return err.splitlines()

    @pytest.mark.parametrize("attack", ["spa", "marginal-guess"])
    @pytest.mark.parametrize("marginal, shown", [("0.2,nan", "[0.2 nan]"), ("5,-3", "[ 5. -3.]")])
    def test_marginal_guess_rejects_a_marginal_that_is_not_a_distribution(
        self, tmp_path, capsys, marginal, shown, attack
    ):
        err = self.attack_error(tmp_path, capsys, "--attack", attack, "--marginal", marginal)
        assert err == [f"error: marginal must be a probability vector, got {shown}"]

    def test_weighted_marginal_whose_weight_overflows_names_the_marginal(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.attack_error(tmp_path, capsys, "--utility", "weighted",
                                    "--marginal", "1,5e-324")
        assert [str(w.message) for w in caught] == []
        assert err == ["error: weighted utility needs strictly positive marginals, each above "
                       "2.781e-309 so that its weight 1/(2p) is finite, "
                       "got [1.e+000 5.e-324]"]

    def test_marginal_that_is_not_numbers_names_the_flag(self, tmp_path, capsys):
        err = self.attack_error(tmp_path, capsys, "--marginal", "a,b")
        assert err == ["error: --marginal must be comma-separated numbers, got 'a,b'"]

    @pytest.mark.parametrize("argv", [[], ["--utility", "weighted"], ["--attack", "marginal-guess"]])
    def test_empty_marginal_is_not_numbers(self, tmp_path, capsys, argv):
        err = self.attack_error(tmp_path, capsys, *argv, "--marginal", "")
        assert err == ["error: --marginal must be comma-separated numbers, got ''"]

    def test_marginal_guess_without_a_marginal_names_the_flag(self, tmp_path, capsys):
        err = self.attack_error(tmp_path, capsys, "--attack", "marginal-guess")
        assert err == ["error: marginal-guess attack needs --marginal"]

    @staticmethod
    def two_class_model_and_three_class_csv(tmp_path):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 30, seed=3)
        model_path = tmp_path / "m.txt"
        save_model(train_logistic(ds, LogisticHyper(iterations=10), seed=0), str(model_path))
        wide, _ = gen_mixture(MixtureModel(3, 3, 1.0), 30, seed=4)
        data_csv = tmp_path / "d.csv"
        write_csv(wide, str(data_csv))
        return model_path, data_csv

    @pytest.mark.parametrize("utility", [
        ["--utility", "zero-one"], ["--utility", "weighted", "--marginal", "0.5,0.5"],
    ])
    def test_attack_rejects_labels_beyond_the_model_classes(self, tmp_path, capsys, utility):
        model_path, data_csv = self.two_class_model_and_three_class_csv(tmp_path)
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "attack", "--model", str(model_path),
                               "--input", str(data_csv), "--label-column", "label",
                               *utility, "--output", str(out_csv))
        assert code == 1
        assert err.splitlines() == [
            f"error: {data_csv}: label 2 is out of range for the 2 classes of model {model_path}"
        ]
        assert not out_csv.exists()

    def test_attack_rejects_marginal_of_the_wrong_length(self, tmp_path, capsys):
        model_path, _ = self.two_class_model_and_three_class_csv(tmp_path)
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 30, seed=5)
        data_csv = tmp_path / "two.csv"
        write_csv(ds, str(data_csv))
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "attack", "--model", str(model_path),
                               "--input", str(data_csv), "--label-column", "label",
                               "--utility", "weighted", "--marginal", "0.2,0.3,0.5",
                               "--output", str(out_csv))
        assert code == 1
        assert err.splitlines() == [
            f"error: --marginal has 3 entries but model {model_path} has 2 classes"
        ]
        assert not out_csv.exists()

    @pytest.mark.parametrize("labelled", [True, False])
    def test_attack_rejects_csv_of_the_wrong_width(self, tmp_path, capsys, labelled):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 30, seed=3)
        model_path = tmp_path / "m.txt"
        save_model(train_logistic(ds, LogisticHyper(iterations=10), seed=0), str(model_path))
        wide, _ = gen_mixture(MixtureModel(2, 4, 1.0), 30, seed=4)
        data_csv = tmp_path / "d.csv"
        write_csv(wide, str(data_csv))
        if not labelled:
            lines = data_csv.read_text().splitlines()
            data_csv.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        label_args = ["--label-column", "label"] if labelled else []
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "attack", "--model", str(model_path),
                               "--input", str(data_csv), *label_args, "--output", str(out_csv))
        assert code == 1
        assert err.splitlines() == [
            f"error: {data_csv} has 4 feature columns but model {model_path} takes 3"
        ]
        assert not out_csv.exists()

    @pytest.mark.parametrize("text, message", [
        ("kind logistic\nclasses 2\n", "logistic model has no 'features' field"),
        ("kind constant\nclasses 2\nprobs 0.5 0.5\nprobs 0.1 0.9\n",
         "field 'probs' appears more than once"),
    ])
    def test_attack_rejects_malformed_model_file(self, tmp_path, capsys, text, message):
        model_path = tmp_path / "m.txt"
        model_path.write_text(text)
        data_csv = tmp_path / "d.csv"
        write_csv(gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=0)[0], str(data_csv))
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "attack", "--model", str(model_path),
                               "--input", str(data_csv), "--output", str(out_csv))
        assert code == 1
        assert err.splitlines() == [f"error: {model_path}: {message}"]
        assert not out_csv.exists()

    def test_privatize_missing_column_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code, _, err = run_cli(capsys, "privatize", "--input", str(bad),
                               "--epsilon", "1", "--output", str(tmp_path / "o.csv"))
        assert code == 1 and "label" in err


class TestPrivatizeMechanisms:
    # sha256 of the privatized CSV and the manifest text, for a 60-row,
    # 3-class mixture at epsilon 1.5, seed 3.
    PINNED = {
        "rr": ("d249135d7ed1b1740baff47f6ba46a89580cfc845c917c5f1c0ca8793a8507df",
               "basic-composition"),
        "alibi": ("d7e43f5de5a593ba2e1fd3bdead9ed53d17f04013dd48ee5dd032dec1e014e24",
                  "basic-composition"),
        "lp2st": ("6d199aa2104df7ec251712a505bca4ba80df8585be56552ad67460cc483dbf37",
                  "parallel-composition"),
    }

    @staticmethod
    def privatize(capsys, monkeypatch, tmp_path, mechanism):
        monkeypatch.chdir(tmp_path)
        ds, _ = gen_mixture(MixtureModel(3, 4, 1.0), 60, seed=0)
        write_csv(ds, "data.csv")
        code, _, err = run_cli(capsys, "privatize", "--input", "data.csv",
                               "--mechanism", mechanism, "--epsilon", "1.5",
                               "--iterations", "20", "--seed", "3", "--output", "out.csv")
        assert code == 0, err
        return (tmp_path / "out.csv").read_bytes(), (tmp_path / "out.csv.manifest.json").read_text()

    @pytest.mark.parametrize("mechanism", ["rr", "alibi", "lp2st"])
    def test_output_and_manifest_pinned(self, tmp_path, capsys, monkeypatch, mechanism):
        digest, rule = self.PINNED[mechanism]
        written, manifest = self.privatize(capsys, monkeypatch, tmp_path, mechanism)
        assert hashlib.sha256(written).hexdigest() == digest
        expected = {
            "accounting_rule": rule, "epsilon": 1.5, "input": "data.csv",
            "label_column": "label", "mechanism": mechanism, "seed": 3,
        }
        assert manifest == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("mechanism, fits", [("rr", 0), ("alibi", 0), ("lp2st", 1)])
    def test_trains_only_inside_the_mechanism(self, tmp_path, capsys, monkeypatch,
                                              fit_calls, mechanism, fits):
        """Privatize releases labels; only LP-2ST's stage-1 model is trained."""
        self.privatize(capsys, monkeypatch, tmp_path, mechanism)
        assert len(fit_calls) == fits


class TestCsvCommandsPinned:
    """privatize and attack on a 2400-row CSV of 127 feature columns, where
    LogisticModel.predict_proba scores 1024 rows per block: the attack
    scores three blocks and LP-2ST's stage 2 two. sha256 of the written
    files (and the attack's printed EAU), taken while predict_proba still
    formed one product over all rows."""

    ATTACK_DIGEST = "eb6ee324b6fd2fd820abed9a366d22efae30c80e4e0d65fd1e7f0d0136d9126c"
    ATTACK_RECORD = '{"attack": "spa", "empirical_eau": 0.5770833333333333}'
    LP2ST_DIGEST = "52d9b77c39221775fabc28cb1e732a29831491ee6d6602273767ceb42bababee"

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        assert models._SCORE_BLOCK_ENTRIES // 128 < 1200
        path = tmp_path_factory.mktemp("csv-commands")
        ds, _ = gen_mixture(MixtureModel(3, 127, 1.0), 2400, seed=5)
        ds = Dataset(np.round(ds.features, 3), ds.labels, 3)
        write_csv(ds, str(path / "data.csv"))
        model = train_logistic(ds.subset(np.arange(400)), LogisticHyper(iterations=20), seed=0)
        save_model(model, str(path / "model.txt"))
        return path

    def test_attack_full_precision(self, inputs, capsys):
        out = inputs / "inferred.csv"
        code, stdout, err = run_cli(capsys, "attack", "--model", str(inputs / "model.txt"),
                                    "--input", str(inputs / "data.csv"), "--label-column",
                                    "label", "--full-precision", "--output", str(out))
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.ATTACK_DIGEST
        assert stdout.strip().split("\n")[-1] == self.ATTACK_RECORD

    def test_privatize_lp2st(self, inputs, capsys):
        out = inputs / "private.csv"
        code, _, err = run_cli(capsys, "privatize", "--input", str(inputs / "data.csv"),
                               "--mechanism", "lp2st", "--epsilon", "1.0", "--iterations", "20",
                               "--seed", "3", "--output", str(out))
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.LP2ST_DIGEST


class TestStreamedWriters:
    """privatize and attack write their rows a block at a time: the peak
    that tracemalloc (which sees numpy's buffers) reads from opening the
    output file to closing it must not grow with the row count."""

    @staticmethod
    def writer_peak(tmp_path, capsys, monkeypatch, command, n):
        rng = np.random.default_rng(n)
        ds = Dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, n), 2)
        data_path, out = str(tmp_path / f"data{n}.csv"), str(tmp_path / f"out{n}.csv")
        write_csv(ds, data_path)
        if command == "privatize":
            argv = ["privatize", "--input", data_path, "--epsilon", "1"]
        else:
            model_path = str(tmp_path / "model.txt")
            save_model(train_logistic(ds, LogisticHyper(iterations=5)), model_path)
            argv = ["attack", "--model", model_path, "--input", data_path,
                    "--label-column", "label"]
        peaks = {}

        @contextlib.contextmanager
        def traced(path, *args, **kwargs):
            tracemalloc.start()
            try:
                with data._atomic_write(path, *args, **kwargs) as fh:
                    yield fh
            finally:
                peaks[path] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_atomic_write", traced)
        code, _, err = run_cli(capsys, *argv, "--output", out)
        assert code == 0, err
        return peaks[out]

    @pytest.mark.parametrize("command", ["privatize", "attack"])
    def test_writer_peak_does_not_grow_with_rows(self, tmp_path, capsys, monkeypatch, command):
        small = self.writer_peak(tmp_path, capsys, monkeypatch, command, 10_000)
        large = self.writer_peak(tmp_path, capsys, monkeypatch, command, 50_000)
        assert large <= small + 4096


class TestHarnessCommands:
    SIM_ARGS = [
        "simulate", "--class-counts", "2", "--dim", "5", "--sigmas", "1.0",
        "--n", "20", "--trials", "10", "--epsilons", "0.5,2.0",
        "--iterations", "10", "--seed", "7",
    ]

    def test_simulate_writes_results_and_echoes_config(self, tmp_path, capsys):
        out_file = tmp_path / "sim.csv"
        code, out, _ = run_cli(capsys, *self.SIM_ARGS, "--output", str(out_file))
        assert code == 0
        assert out.startswith("resolved-config ")
        echoed = json.loads(out.split("\n")[0][len("resolved-config "):])
        assert echoed["trials"] == 10 and echoed["seed"] == 7
        assert out_file.exists() and (tmp_path / "sim.csv.manifest.json").exists()

    def test_simulate_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *self.SIM_ARGS, "--output", str(a))[0] == 0
        assert run_cli(capsys, *self.SIM_ARGS, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_check_passes(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, *self.SIM_ARGS, "--check",
                               "--output", str(tmp_path / "c.csv"))
        assert code == 0 and err == ""

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 5, "n": 16, "dim": 4,
                                   "class_counts": [2], "sigmas": [1.0],
                                   "epsilons": [1.0], "iterations": 8}))
        out_file = tmp_path / "sim.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--trials", "6", "--output", str(out_file))
        assert code == 0
        echoed = json.loads(out.split("\n")[0][len("resolved-config "):])
        assert echoed["trials"] == 6  # flag overrides file
        assert echoed["n"] == 16      # file overrides default

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--output", str(tmp_path / "x.csv"))
        assert code == 1 and "bogus" in err

    @pytest.mark.parametrize("key, value, expected", [
        ("trials", "100", "config key 'trials' must be int, got '100'"),
        ("trials", True, "config key 'trials' must be int, got True"),
        ("class_counts", [2, "a"], "config key 'class_counts' must be a list of int"),
        ("epsilons", [1, 2.5, False], "config key 'epsilons' must be a list of float"),
    ])
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, key, value, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                                 "--output", str(tmp_path / "x.csv"))
        assert code == 1 and out == ""
        assert err.startswith("error: " + expected) and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, key", [
        ("simulate", "class_counts"), ("simulate", "sigmas"), ("simulate", "epsilons"),
        ("thm1", "n_values"), ("ctr", "mechanisms"), ("ctr", "epsilons"),
    ])
    def test_empty_grid_in_config_file_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: []}))
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, command, "--config", str(cfg), "--check",
                               "--output", str(out_file))
        assert code == 1
        assert err.splitlines() == [f"error: {key} must not be empty"]
        assert not out_file.exists()

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "thm1", "--config", str(cfg),
                               "--output", str(tmp_path / "x.csv"))
        assert code == 1 and err == f"error: config file {cfg} must hold a JSON object\n"

    def test_config_int_for_float_and_list_for_tuple_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigmas": [1], "epsilons": [1, 2.5]}))
        args = [a for a in self.SIM_ARGS if a not in ("--sigmas", "1.0", "--epsilons", "0.5,2.0")]
        code, out, err = run_cli(capsys, *args, "--config", str(cfg),
                                 "--output", str(tmp_path / "x.csv"))
        assert code == 0, err
        echoed = json.loads(out.split("\n")[0][len("resolved-config "):])
        assert echoed["sigmas"] == [1] and echoed["epsilons"] == [1, 2.5]

    @pytest.mark.parametrize("base, file_values, flags", [
        pytest.param(["simulate", "--class-counts", "2", "--dim", "5", "--n", "20",
                      "--trials", "10", "--iterations", "10"],
                     {"sigmas": [1], "epsilons": [1, 2]}, ["--sigmas", "1", "--epsilons", "1,2"],
                     id="simulate"),
        pytest.param(["ctr", "--n", "1200", "--positive-rate", "0.1", "--dim", "3",
                      "--iterations", "15"],
                     {"epsilons": [1, 2]}, ["--epsilons", "1,2"], id="ctr"),
    ])
    def test_config_file_ints_run_as_their_flag_spelling(
        self, tmp_path, capsys, base, file_values, flags
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_values))
        code, by_file, err = run_cli(capsys, *base, "--config", str(cfg),
                                     "--output", str(tmp_path / "file.csv"))
        assert code == 0, err
        code, by_flag, err = run_cli(capsys, *base, *flags, "--output", str(tmp_path / "flag.csv"))
        assert code == 0, err
        assert by_file.splitlines()[0] == by_flag.splitlines()[0]
        for suffix in ("", ".manifest.json"):
            written = (tmp_path / f"file.csv{suffix}").read_bytes()
            assert written == (tmp_path / f"flag.csv{suffix}").read_bytes(), suffix

    @pytest.mark.parametrize("argv, config_type", [
        pytest.param(SIM_ARGS, "SimulationConfig", id="simulate"),
        pytest.param(["thm1", "--n-values", "10,20", "--trials", "5"], "Thm1Config", id="thm1"),
        pytest.param(["ctr", "--n", "1200", "--positive-rate", "0.1", "--dim", "3",
                      "--epsilons", "inf,1.0", "--iterations", "15"], "CtrConfig", id="ctr"),
    ])
    def test_manifest_config_is_the_resolved_config(self, tmp_path, capsys, argv, config_type):
        code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / "r.csv"))
        assert code == 0, err
        echoed = json.loads(out.split("\n")[0][len("resolved-config "):])
        config = json.loads((tmp_path / "r.csv.manifest.json").read_text())["config"]
        assert config.pop("type") == config_type
        assert config == echoed

    def test_simulate_rr_accepts_zero_epsilon(self, tmp_path, capsys):
        args = [a if a != "0.5,2.0" else "0,1" for a in self.SIM_ARGS]
        code, _, err = run_cli(capsys, *args, "--mechanism", "rr",
                               "--output", str(tmp_path / "z.csv"))
        assert code == 0, err
        assert len((tmp_path / "z.csv").read_text().strip().split("\n")) == 3

    @pytest.mark.parametrize("mechanism", ["lp2st", "alibi", "pate"])
    def test_simulate_zero_epsilon_names_the_mechanism(self, tmp_path, capsys, mechanism):
        args = [a if a != "0.5,2.0" else "0,1" for a in self.SIM_ARGS]
        out_file = tmp_path / "z.csv"
        code, _, err = run_cli(capsys, *args, "--mechanism", mechanism,
                               "--output", str(out_file))
        assert code == 1
        assert err.splitlines() == [f"error: {mechanism} needs epsilon > 0, got 0.0"]
        assert not out_file.exists()

    def test_unknown_mechanism_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train_logistic ran before the config was validated")

        patch_train_logistic(monkeypatch, refuse)
        code, _, err = run_cli(capsys, "ctr", "--n", "200", "--mechanisms", "rr,bogus",
                               "--epsilons", "inf,1.0", "--output", str(tmp_path / "c.csv"))
        assert code == 1
        assert "unknown mechanism 'bogus'" in err

    def test_thm1_rerun_byte_identical(self, tmp_path, capsys):
        args = ["thm1", "--epsilon", "1.0", "--n-values", "10,20",
                "--trials", "20", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--output", str(a), "--check")[0] == 0
        assert run_cli(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ctr_rerun_byte_identical(self, tmp_path, capsys):
        args = ["ctr", "--n", "1200", "--positive-rate", "0.1", "--dim", "3",
                "--epsilons", "inf,1.0", "--iterations", "15", "--seed", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--output", str(a), "--check")[0] == 0
        assert run_cli(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("check, argv", [
        pytest.param("check_simulation", SIM_ARGS, id="simulate"),
        pytest.param("check_thm1", ["thm1", "--n-values", "10,20", "--trials", "5"], id="thm1"),
        pytest.param("check_ctr", ["ctr", "--n", "1200", "--positive-rate", "0.1", "--dim", "3",
                                   "--epsilons", "inf,1.0", "--iterations", "15"], id="ctr"),
    ])
    def test_check_violation_exits_nonzero(self, tmp_path, capsys, monkeypatch, check, argv):
        import labeldp.experiments as experiments

        monkeypatch.setattr(experiments, check, lambda reports: ["fabricated"])
        code, _, err = run_cli(capsys, *argv, "--check",
                               "--output", str(tmp_path / "v.csv"))
        assert code != 0 and "fabricated" in err

    def test_simulate_single_trial_is_one_error_line(self, tmp_path, capsys):
        out_file = tmp_path / "one.csv"
        argv = list(self.SIM_ARGS)
        argv[argv.index("--trials") + 1] = "1"
        code, _, err = run_cli(capsys, *argv, "--output", str(out_file))
        assert code == 1
        assert err.splitlines() == ["error: trials must be >= 2 (a cell reports a standard "
                                    "error), got 1"]
        assert not out_file.exists()

    @pytest.mark.parametrize("epsilons, shown", [("nan", "nan"), ("-1", "-1.0"), ("1,nan", "nan")])
    def test_simulate_rejects_nan_or_negative_epsilon_before_any_data(
        self, tmp_path, capsys, monkeypatch, epsilons, shown
    ):
        import labeldp.experiments as experiments

        def refuse(*args, **kwargs):
            raise AssertionError("data generated before the config was validated")

        monkeypatch.setattr(experiments, "gen_mixture", refuse)
        out_file = tmp_path / "eps.csv"
        argv = list(self.SIM_ARGS)
        argv[argv.index("--epsilons") + 1] = epsilons
        code, _, err = run_cli(capsys, *argv, "--output", str(out_file))
        assert code == 1
        assert err.splitlines() == [f"error: epsilon grid values must be >= 0 or infinite, "
                                    f"got {shown}"]
        assert not out_file.exists()

    @pytest.mark.parametrize("grid, message", [
        pytest.param(["--sigmas", "1,inf"], "sigma must be positive and finite, got inf",
                     id="inf-sigma"),
        pytest.param(["--class-counts", "2,200", "--dim", "100"],
                     "invalid model: 200 classes need 200 basis vectors but dim is 100",
                     id="classes-beyond-dim"),
        # sigma**2 overflows; 2 sigma^2 is 0; 1 / (2 sigma^2) overflows (the
        # last once wrote nan cells and exited 0).
        *(pytest.param(["--sigmas", sigma],
                       f"sigma {float(sigma)} is out of range: 2*sigma**2 and its reciprocal "
                       f"must be positive finite floats", id=f"sigma-{sigma}")
          for sigma in ("1e160", "1e-200", "1e-160")),
    ])
    def test_simulate_rejects_a_bad_mixture_before_any_cell(
        self, tmp_path, capsys, monkeypatch, grid, message
    ):
        import labeldp.experiments as experiments

        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was validated")

        monkeypatch.setattr(experiments, "gen_mixture", refuse)
        out_file = tmp_path / "grid.csv"
        code, _, err = run_cli(capsys, *self.SIM_ARGS, *grid, "--output", str(out_file))
        assert code == 1
        assert err.splitlines() == [f"error: {message}"]
        assert not out_file.exists()

    @pytest.mark.parametrize("option, value, message", [
        pytest.param("--separation", "inf", "separation must be finite and >= 0, got inf",
                     id="separation-inf"),
        pytest.param("--separation", "nan", "separation must be finite and >= 0, got nan",
                     id="separation-nan"),
        *(pytest.param("--label-noise", v, f"label_noise must be in [0, 0.5), got {float(v)}",
                       id=f"label-noise-{v}") for v in ("0.6", "0.5", "-0.1", "nan")),
    ])
    def test_ctr_rejects_a_bad_source_option_before_any_data(
        self, tmp_path, capsys, monkeypatch, option, value, message
    ):
        import labeldp.experiments as experiments

        def refuse(*args, **kwargs):
            raise AssertionError("data generated before the source was validated")

        monkeypatch.setattr(experiments, "gen_skewed_binary", refuse)
        out_file = tmp_path / "source.csv"
        code, _, err = run_cli(capsys, "ctr", "--n", "2000", option, value,
                               "--output", str(out_file))
        assert code == 1
        assert err.splitlines() == [f"error: {message}"]
        assert not out_file.exists()

    @pytest.mark.parametrize("option, value", [
        pytest.param("--separation", "inf", id="separation"),
        pytest.param("--label-noise", "0.7", id="label-noise"),
        pytest.param("--positive-rate", "0", id="positive-rate"),
        pytest.param("--n", "5", id="n"),
    ])
    def test_ctr_csv_ignores_the_synthetic_source_options(self, tmp_path, capsys, option, value):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 300, seed=0)
        data_csv = tmp_path / "data.csv"
        write_csv(ds, str(data_csv))
        args = ["ctr", "--csv", str(data_csv), "--epsilons", "inf,1.0", "--iterations", "5"]
        plain, shaped = tmp_path / "plain.csv", tmp_path / "shaped.csv"
        assert run_cli(capsys, *args, "--output", str(plain))[0] == 0
        code, _, err = run_cli(capsys, *args, option, value, "--output", str(shaped))
        assert code == 0, err
        assert shaped.read_bytes() == plain.read_bytes()

    # sha256 of the results of `simulate --preset fig1-reduced --trials 10
    # --seed 1 --mechanism M`, the same whether a cell's trials train one by
    # one or in one stacked fit. Re-pinned once when the mixture posterior
    # became a softmax of x[:, :k] / sigma^2 instead of one over squared
    # distances: only the leau and advantage cells moved, by at most
    # 2.2e-16; every eau, eau_stderr and theoretical_bound cell kept its bytes.
    FIG1_REDUCED_DIGESTS = {
        "rr": "06a4300d7fbcfee6a67304f206fe88914a8fefc60ab7b6627e0e14a26f4e4617",
        "lp2st": "06c0f7be1b4d02c2b52363fb256e14e4b05b9e75f777f094c8f40f56a02297ce",
        "alibi": "c570c2945c4700b89ea9954475fbf34ece6a323541e7d59a59c37587fb008af3",
        "pate": "d7abbe86374f6f8824ea3b1f8160d7c45e1dfd0c410239ad3c3e53fa0c9e157f",
    }

    @pytest.mark.parametrize("mechanism", sorted(FIG1_REDUCED_DIGESTS))
    def test_simulate_fig1_reduced_pinned(self, tmp_path, capsys, mechanism):
        out_file = tmp_path / "sim.csv"
        code, _, err = run_cli(capsys, "simulate", "--preset", "fig1-reduced", "--trials", "10",
                               "--seed", "1", "--mechanism", mechanism, "--output", str(out_file))
        assert code == 0, err
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == self.FIG1_REDUCED_DIGESTS[mechanism]

    @pytest.mark.parametrize("sigma", ["1e-100", "1e150", "6e-155", "9e153"])
    def test_simulate_runs_at_extreme_but_valid_sigma(self, tmp_path, capsys, sigma):
        """Up to the ends of the sigma range; filterwarnings = error turns an
        overflow warning (from the scaler's squared deviations at 9e153)
        into a failure."""
        out_file = tmp_path / "sigma.csv"
        code, _, err = run_cli(capsys, "simulate", "--class-counts", "2", "--sigmas", sigma,
                               "--epsilons", "1", "--trials", "2", "--dim", "2", "--n", "5",
                               "--check", "--output", str(out_file))
        assert code == 0, err
        assert "nan" not in out_file.read_text()
        _header, *rows = out_file.read_text().splitlines()
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))

    def test_simulate_fig1_reduced_pinned_without_blas_thread_control(
        self, tmp_path, capsys, monkeypatch
    ):
        """Where no OpenBLAS is found the grid runs on the default thread
        count, with the same results."""
        import labeldp.models as models

        monkeypatch.setattr(models, "_blas_thread_control", lambda: None)
        self.test_simulate_fig1_reduced_pinned(tmp_path, capsys, "rr")

    @pytest.mark.parametrize("command", ["simulate", "thm1", "ctr", "privatize", "attack"])
    def test_command_leaves_the_blas_thread_count(self, tmp_path, capsys, blas_threads, command):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 40, seed=0)
        data_csv = tmp_path / "data.csv"
        write_csv(ds, str(data_csv))
        model_path = tmp_path / "model.txt"
        save_model(train_logistic(ds, LogisticHyper(iterations=5)), str(model_path))
        argv = {
            "simulate": self.SIM_ARGS,
            "thm1": ["thm1", "--n-values", "10", "--trials", "3"],
            "ctr": ["ctr", "--n", "2000", "--epsilons", "inf,1.0", "--iterations", "5"],
            "privatize": ["privatize", "--input", str(data_csv), "--epsilon", "1"],
            "attack": ["attack", "--model", str(model_path), "--input", str(data_csv),
                       "--label-column", "label"],
        }[command]
        code, _, err = run_cli(capsys, *argv, "--output", str(tmp_path / "out.csv"))
        assert code == 0, err
        assert blas_threads() == 2

    # sha256 of the results and manifest of `thm1 --n-values 100,1000
    # --trials 50 --seed 13`, the same whether the majority table is a dict
    # of row bytes or a sorted key array.
    THM1_DIGESTS = {
        "": "55c5911d96af4ad0478308369a9817082797b28b6f317cef769445789aecc848",
        ".manifest.json": "9248d1a89a417b0b99dba03fb6953e96250678fce033ea67f3e10847330ce97a",
    }

    def test_thm1_pinned(self, tmp_path, capsys):
        out_file = tmp_path / "thm1.csv"
        code, _, err = run_cli(capsys, "thm1", "--n-values", "100,1000", "--trials", "50",
                               "--seed", "13", "--output", str(out_file))
        assert code == 0, err
        for suffix, expected in self.THM1_DIGESTS.items():
            path = tmp_path / f"thm1.csv{suffix}"
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, suffix

    # sha256 of the results and manifest of `thm1 --epsilon 0.3 --n-values
    # 2,30,300 --trials 40 --seed 13`, made with one majority_table call per
    # trial. Every empirical_eau of THM1_DIGESTS is 1.0; these (0.5375,
    # 0.7125, 0.9375) move when one trial's draw or vote does.
    THM1_LOW_EPSILON_DIGESTS = {
        "": "4a534f677ae8bd27c526356da7b1a77c76af2962a01d3a9cbf5a4a52943412ee",
        ".manifest.json": "6dc6fd63f437b56d7dca02db2abf4f1b57583ec2742fa328022db5c983adc001",
    }

    @pytest.mark.parametrize("block_labels", [None, 1, 1000])
    def test_thm1_low_epsilon_pinned(self, tmp_path, capsys, monkeypatch, block_labels):
        """The same files with the default block bound, with one trial per
        block, and with blocks of at most 1000 labels: all 40 trials of n = 2
        in one block, n = 30 in blocks of 33 and 7 trials, n = 300 in
        thirteen blocks of 3 and a last block of 1."""
        if block_labels is not None:
            monkeypatch.setattr(cli.experiments.Thm1Config, "block_labels", block_labels)
        out_file = tmp_path / "thm1.csv"
        code, _, err = run_cli(capsys, "thm1", "--epsilon", "0.3", "--n-values", "2,30,300",
                               "--trials", "40", "--seed", "13", "--output", str(out_file))
        assert code == 0, err
        for suffix, expected in self.THM1_LOW_EPSILON_DIGESTS.items():
            path = tmp_path / f"thm1.csv{suffix}"
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, suffix

    # sha256 of the results and manifest of `ctr --n 20000 --mechanisms
    # rr,lp2st,alibi,pate --epsilons inf,1.0 --seed 0`. Every fit there has
    # at least twice as many rows as design columns, so it descends in weight
    # space and must stay bit for bit.
    # The results digest changed once, on purpose, when run_ctr began fitting
    # the cells that keep the training split as one stack: rr at epsilon 1.0
    # moved its test_log_loss by 1.5e-16 relative (stacked fits agree with
    # fits alone within 1e-12, TestCtrStackedFit in test_experiments.py).
    # The manifest digest changed once, on purpose, when CtrConfig's fields
    # became its flat options: the manifest's config now holds the keys of
    # the resolved-config line.
    CTR_DIGESTS = {
        "": "181279842da11b94800f9c96af98f57b1862316622b4171f8b5cc7d159a93d56",
        ".manifest.json": "539b2c4942412d4862eb935a653a4a319f6833e8d03d17d6b69109e454cfda4c",
    }

    def test_ctr_pinned(self, tmp_path, capsys):
        out_file = tmp_path / "ctr.csv"
        code, _, err = run_cli(capsys, "ctr", "--n", "20000",
                               "--mechanisms", "rr,lp2st,alibi,pate", "--epsilons", "inf,1.0",
                               "--seed", "0", "--output", str(out_file))
        assert code == 0, err
        for suffix, expected in self.CTR_DIGESTS.items():
            path = tmp_path / f"ctr.csv{suffix}"
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, suffix

    def test_ctr_pinned_without_blas_thread_control(self, tmp_path, capsys, monkeypatch):
        """Where no OpenBLAS is found ctr runs on the default thread count,
        with the same results and manifest."""
        import labeldp.models as models

        monkeypatch.setattr(models, "_blas_thread_control", lambda: None)
        self.test_ctr_pinned(tmp_path, capsys)

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0


def harness_parsers():
    from labeldp.cli import build_parser

    [subcommands] = [a for a in build_parser()._actions if a.dest == "command"]
    return {name: subcommands.choices[name] for name in ("simulate", "thm1", "ctr")}


def typed(value):
    """A value with the type of every item spelled out, so 1 and 1.0 differ."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value).__name__, value


class TestHarnessOptions:
    """The harness flags come from the config classes in `experiments`."""

    COMMON_DESTS = {"help", "config", "output", "format", "check", "preset"}

    @pytest.mark.parametrize("command", ["simulate", "thm1", "ctr"])
    def test_flag_dests_are_the_config_keys(self, command):
        from labeldp.cli import _options

        parser = harness_parsers()[command]
        dests = {a.dest for a in parser._actions} - self.COMMON_DESTS
        assert dests == set(_options(command))

    # One value per flag, and what the parser of the hand-written
    # subcommands made of it.
    PARSED = {
        "simulate": (
            ["--class-counts", "2,3", "--dim", "5", "--sigmas", "1,10.5", "--n", "20",
             "--trials", "7", "--epsilons", "inf,1", "--feature-redraws", "2",
             "--mechanism", "pate", "--iterations", "9", "--seed", "4"],
            {"class_counts": (2, 3), "dim": 5, "sigmas": (1.0, 10.5), "n": 20, "trials": 7,
             "epsilons": (math.inf, 1.0), "feature_redraws": 2, "mechanism": "pate",
             "iterations": 9, "seed": 4},
        ),
        "thm1": (
            ["--epsilon", "2", "--n-values", "10,20", "--trials", "5", "--seed", "3"],
            {"epsilon": 2.0, "n_values": (10, 20), "trials": 5, "seed": 3},
        ),
        "ctr": (
            ["--csv", "d.csv", "--label-column", "y", "--n", "500", "--positive-rate", "0.2",
             "--dim", "3", "--separation", "1", "--label-noise", "0.05", "--mechanisms", "a,b",
             "--epsilons", "inf,1", "--iterations", "12", "--seed", "6"],
            {"csv_path": "d.csv", "label_column": "y", "n": 500, "positive_rate": 0.2,
             "dim": 3, "separation": 1.0, "label_noise": 0.05, "mechanisms": ("a", "b"),
             "epsilons": (math.inf, 1.0), "iterations": 12, "seed": 6},
        ),
    }

    @pytest.mark.parametrize("command", sorted(PARSED))
    def test_one_value_per_flag_parses_to_typed_values(self, command):
        argv, expected = self.PARSED[command]
        parsed = vars(harness_parsers()[command].parse_args([*argv, "--output", "o.csv"]))
        options = {k: v for k, v in parsed.items() if k not in self.COMMON_DESTS | {"func"}}
        assert {k: typed(v) for k, v in options.items()} == {
            k: typed(v) for k, v in expected.items()
        }

    def test_bad_list_item_names_the_item_type(self, capsys):
        with pytest.raises(SystemExit):
            main(["ctr", "--epsilons", "inf,x", "--output", "o.csv"])
        assert "argument --epsilons: invalid float list value: 'inf,x'" in capsys.readouterr().err


class TestAtomicWrites:
    """Every writer goes through a temporary file and os.replace, so a write
    that fails leaves the previous file byte-intact and no temporary file."""

    @staticmethod
    def write_csv(tmp_path, target):
        write_csv(gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=0)[0], str(target))

    @staticmethod
    def save_model(tmp_path, target):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=0)
        save_model(train_logistic(ds, LogisticHyper(iterations=5)), str(target))

    @staticmethod
    def write_results(tmp_path, target):
        from labeldp.experiments import write_results

        write_results([{"a": 1.0}], str(target), "csv", columns=["a"], manifest={})

    @staticmethod
    def privatize(tmp_path, target):
        data_csv = tmp_path / "in" / "d.csv"
        write_csv(gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=0)[0], str(data_csv))
        return main(["privatize", "--input", str(data_csv), "--epsilon", "1",
                     "--output", str(target)])

    @staticmethod
    def attack(tmp_path, target):
        ds, _ = gen_mixture(MixtureModel(2, 3, 1.0), 10, seed=0)
        data_csv, model_path = tmp_path / "in" / "d.csv", tmp_path / "in" / "m.txt"
        write_csv(ds, str(data_csv))
        save_model(train_logistic(ds, LogisticHyper(iterations=5)), str(model_path))
        return main(["attack", "--model", str(model_path), "--input", str(data_csv),
                     "--label-column", "label", "--output", str(target)])

    @pytest.mark.parametrize("writer", ["write_csv", "save_model", "write_results",
                                        "privatize", "attack"])
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch, capsys, writer):
        (tmp_path / "in").mkdir()
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        target = out_dir / "target"
        target.write_text("previous\n")
        (out_dir / "target.manifest.json").write_text("previous manifest\n")
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

        import labeldp.data

        def fail(src, dst):
            if str(dst).startswith(str(out_dir)):
                raise OSError(28, "No space left on device")
            return real_replace(src, dst)

        real_replace = labeldp.data.os.replace
        monkeypatch.setattr(labeldp.data.os, "replace", fail)
        try:
            code = getattr(self, writer)(tmp_path, target)
        except OSError as exc:
            assert str(exc) == f"cannot write {target}: No space left on device"
        else:
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: cannot write {target}: No space left on device"
            ]
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "data.csv"
    write_csv(gen_mixture(MixtureModel(2, 3, 1.0), 30, seed=0)[0], str(path))
    return str(path)


BOUND_TERMS = {"universal": ["--B", "1"], "advantage": ["--exp-sup", "1"],
               "weak-threat": ["--exp-sup", "1"], "reconstruction": ["--domain-size", "10"],
               "hoeffding": ["--n", "100"]}
EXTREME_COMMANDS = (
    [f"bound:{kind}" for kind in ("generalization", *BOUND_TERMS)]
    + ["thm1"] + [f"privatize:{m}" for m in ("rr", "alibi", "lp2st")]
    + [f"simulate:{m}" for m in ("rr", "lp2st", "alibi", "pate")] + ["ctr"]
)


def tiny_run(command, epsilon, csv, out):
    """argv for a run of `command` small enough to take milliseconds."""
    kind, _, variant = command.partition(":")
    if kind == "bound":
        return ["bound", "--kind", variant, "--epsilon", epsilon,
                *BOUND_TERMS.get(variant, [])]
    output = ["--output", str(out)]
    if kind == "thm1":
        return ["thm1", "--epsilon", epsilon, "--n-values", "10", "--trials", "3", *output]
    if kind == "privatize":
        return ["privatize", "--input", csv, "--mechanism", variant, "--epsilon", epsilon,
                "--iterations", "3", *output]
    if kind == "simulate":
        return ["simulate", "--class-counts", "2", "--dim", "2", "--sigmas", "1", "--n", "10",
                "--trials", "2", "--iterations", "3", "--epsilons", epsilon,
                "--mechanism", variant, *output]
    return ["ctr", "--n", "400", "--positive-rate", "0.2", "--dim", "2", "--iterations", "3",
            "--epsilons", epsilon, "--mechanisms", "rr,lp2st,alibi,pate", *output]


class TestExtremeInput:
    @pytest.mark.parametrize("epsilon", ["1e-320", "709.79", "1000", "1e308", "inf"])
    @pytest.mark.parametrize("command", EXTREME_COMMANDS)
    def test_extreme_epsilon_ends_cleanly(self, tmp_path, capsys, small_csv, command, epsilon):
        """Every command that takes a budget runs at the ends of the float
        range, including where e^eps overflows, without a traceback or a
        numpy warning (filterwarnings = error)."""
        argv = tiny_run(command, epsilon, small_csv, tmp_path / "out.csv")
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, CHECK_EXIT) and "Traceback" not in err, err

    @pytest.mark.parametrize("command", ["simulate:rr", "thm1", "ctr", "privatize:rr"])
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, small_csv, command):
        argv = tiny_run(command, "1", small_csv, tmp_path / "out.csv")
        code, _, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 1
        assert err.splitlines() == ["error: seed must be >= 0, got -1"]


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess

    import labeldp

    src = os.path.dirname(os.path.dirname(labeldp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "labeldp", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: labeldp ")
    assert "thm1" in done.stdout
