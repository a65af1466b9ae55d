import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import infinisel
from infinisel.cli import main


def write_csv(path, values, labels=None, names=None):
    m = values.shape[1]
    names = names or [f"x{i}" for i in range(m)]
    header = ",".join(names + (["y"] if labels is not None else []))
    lines = [header]
    for i, row in enumerate(values):
        cells = [repr(float(v)) for v in row]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def labeled_csv(tmp_path):
    rng = np.random.default_rng(90)
    y = rng.integers(0, 2, 40)
    values = rng.normal(size=(40, 6))
    values[:, 0] = y + rng.normal(scale=0.2, size=40)
    return write_csv(tmp_path / "train.csv", values, labels=y)


@pytest.fixture
def test_csv(tmp_path):
    rng = np.random.default_rng(91)
    y = rng.integers(0, 2, 30)
    values = rng.normal(size=(30, 6))
    values[:, 0] = y + rng.normal(scale=0.2, size=30)
    return write_csv(tmp_path / "test.csv", values, labels=y)


class TestRankCommand:
    def test_ranking_file_contract(self, tmp_path, labeled_csv):
        out = tmp_path / "ranking.csv"
        code = main(["rank", labeled_csv, "--variant", "mifs", "--alpha", "0.5",
                     "--label-column", "y", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,index,name,score"
        assert len(lines) == 7  # header + 6 features
        first = lines[1].split(",")
        assert first[0] == "1" and first[2].startswith("x")
        float(first[3])  # full-precision score parses back

    def test_byte_determinism(self, tmp_path, labeled_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["rank", labeled_csv, "--variant", "sifs", "--alpha", "0.4",
                         "--label-column", "y", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sifs_without_labels_is_config_error(self, tmp_path, capsys):
        rng = np.random.default_rng(92)
        path = write_csv(tmp_path / "u.csv", rng.normal(size=(20, 4)))
        code = main(["rank", path, "--variant", "sifs", "--alpha", "0.5"])
        assert code == 3
        assert "label" in capsys.readouterr().err

    def test_standardized_alpha_one_ranks_by_index(self, tmp_path):
        # Balanced +-1 columns standardize exactly, so the pure-relevance
        # mix ties every score and the output ranks by dataset order.
        cols = np.array(
            [
                [1, -1, 1, -1, 1, -1, 1, -1],
                [1, 1, -1, -1, 1, 1, -1, -1],
                [1, 1, 1, 1, -1, -1, -1, -1],
            ],
            dtype=float,
        ).T
        path = write_csv(tmp_path / "toy.csv", cols)
        out = tmp_path / "r.csv"
        code = main(["rank", path, "--variant", "ifs", "--alpha", "1.0",
                     "--preprocess", "standardize", "--output", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["0", "1", "2"]
        assert len({r[3] for r in rows}) == 1  # all scores identical

    def test_cv_alpha_rejected_for_rank(self, labeled_csv, capsys):
        code = main(["rank", labeled_csv, "--alpha", "cv", "--label-column", "y"])
        assert code == 3
        assert "numeric" in capsys.readouterr().err

    def test_unknown_variant_lists_valid_ones(self, labeled_csv, capsys):
        code = main(["rank", labeled_csv, "--variant", "pca", "--label-column", "y"])
        assert code == 3
        err = capsys.readouterr().err
        assert "ifs" in err and "mrmr" in err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n")
        assert main(["rank", str(bad)]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["rank", str(tmp_path / "nope.csv")]) == 2

    def test_undecodable_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
        assert main(["rank", str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_utf8_output_under_c_locale(self, tmp_path, to_stdout):
        # A non-ASCII header must come out as UTF-8 even when the locale
        # encoding is ASCII, both into a file and on stdout.
        src = tmp_path / "u.csv"
        src.write_text("café,b,y\n1,5,0\n2,3,1\n3,8,0\n4,1,1\n5,7,0\n6,2,1\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        package_root = str(Path(infinisel.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        argv = ["rank", str(src), "--label-column", "y", "--output", "-" if to_stdout else str(out)]
        runner = "import sys; from infinisel.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", runner, *argv], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        written = proc.stdout if to_stdout else out.read_bytes()
        assert "café" in written.decode("utf-8")

    def test_out_of_range_label_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,0\n2,1e20\n")
        assert main(["rank", str(bad), "--label-column", "y"]) == 2
        err = capsys.readouterr().err
        assert "row 3, column 2" in err and "Traceback" not in err

    def test_separator_in_label_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,y\n1,5,\x1c2\n2,3,0\n3,8,1\n")
        assert main(["rank", str(bad), "--label-column", "y"]) == 2
        err = capsys.readouterr().err
        assert "'\\x1c2' at row 2, column 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("name, text, fmt, message", [
        ("bad.csv", "a,b,y\n1,2,0\n3,x,1\n", "csv", "non-numeric value 'x' at row 3, column 2 (b)"),
        ("bad.svm", "1 1:0.5\n0.5 1:1.5\n", "libsvm", "non-integer label '0.5' at row 2, column 1"),
        ("bad.svm", "1 1:0.5\n0 0:1.5\n", "libsvm", "line 2: index 0 < 1"),
        ("one.csv", "a,b,y\n1,2,0\n", "csv", "dataset '{path}': need at least 2 samples, got 1"),
    ], ids=["csv-cell", "libsvm-label", "libsvm-pair", "dataset"])
    def test_load_error_names_the_file_once(self, tmp_path, labeled_csv, capsys,
                                            name, text, fmt, message):
        # The second file of eval is the bad one, so only the path tells which.
        bad = tmp_path / name
        bad.write_text(text)
        good = labeled_csv
        if fmt == "libsvm":
            good = tmp_path / "good.svm"
            good.write_text("1 1:0.5\n0 1:1.5\n1 1:0.1\n0 1:0.3\n")
        code = main(["eval", str(good), str(bad), "--format", fmt, "--label-column", "y",
                     "--output", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.endswith(message.format(path=bad) + "\n") and err.count(str(bad)) == 1

    def test_libsvm_input(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("1 1:0.5 2:1.0\n0 1:1.5 2:0.2\n1 1:0.1 2:1.1\n0 2:0.3\n")
        out = tmp_path / "r.csv"
        code = main(["rank", str(p), "--format", "libsvm", "--variant", "mrmr",
                     "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_stdout_output(self, labeled_csv, capsys):
        code = main(["rank", labeled_csv, "--label-column", "y"])
        assert code == 0
        assert capsys.readouterr().out.startswith("rank,index,name,score")

    def test_width_binning_flag(self, tmp_path, labeled_csv):
        out = tmp_path / "w.csv"
        code = main(["rank", labeled_csv, "--variant", "mifs", "--alpha", "0.5",
                     "--binning", "width", "--bins", "4", "--label-column", "y",
                     "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 7

    @pytest.mark.parametrize("variant", ["mifs", "mrmr"])
    @pytest.mark.parametrize("binning", ["width", "frequency"])
    def test_bin_count_past_int64_is_the_row_count(self, tmp_path, labeled_csv, binning, variant):
        # 40 rows: any bin count from 40 up makes every column categorical.
        outs = []
        for bins in ("40", "99999999999999999999"):
            out = tmp_path / f"{bins}.csv"
            assert main(["rank", labeled_csv, "--variant", variant, "--alpha", "0.5", "--binning", binning,
                         "--bins", bins, "--label-column", "y", "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_binning_flag(self, labeled_csv, capsys):
        code = main(["rank", labeled_csv, "--binning", "quantile", "--label-column", "y"])
        assert code == 3
        assert "binning" in capsys.readouterr().err

    def test_abbreviated_flag_is_unknown(self, tmp_path, labeled_csv, capsys):
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            main(["rank", labeled_csv, "--label", "y", "--output", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --label y" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preprocess_exit_three(self, labeled_csv, capsys):
        code = main(["rank", labeled_csv, "--preprocess", "whiten", "--label-column", "y"])
        assert code == 3
        err = capsys.readouterr().err
        assert "preprocessing" in err and "usage" not in err

    @pytest.mark.parametrize("column, variant, preprocess", [
        (["0", "1e200", "2e200", "1"], "ifs", "none"),
        (["0", "1e200", "2e200", "1"], "mifs", "none"),
        (["0", "1e200", "2e200", "1"], "sifs", "auto"),
        (["0", "1e308", "-1e308", "1"], "ifs", "normalize"),
    ], ids=["ifs-none", "mifs-none", "sifs-standardize", "ifs-normalize-1e308"])
    def test_overflowing_spread_exit_two(self, tmp_path, capsys, column, variant, preprocess):
        # Every cell is finite, but the column's std overflows float64.
        src = tmp_path / "big.csv"
        src.write_text("a,b,y\n" + "".join(f"{v},{b},{b % 2}\n" for b, v in enumerate(column)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["rank", str(src), "--label-column", "y", "--variant", variant,
                         "--alpha", "0.5", "--preprocess", preprocess])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "feature 0" in err[0]

    @pytest.mark.parametrize("text, fmt", [
        ("y,a,b\n0,1.5,2\n1,0.5,3\n0,2.5,1\n1,3.5,0\n", "csv"),
        ("a,b,y\n1.5,2,0\n0.5,3,1\n2.5,1,0\n3.5,0,1\n", "csv"),
        ("1 1:0.5 2:1.0\n0 1:1.5 2:0.2\n1 1:0.1 2:1.1\n0 2:0.3\n", "libsvm"),
    ], ids=["csv-label-first", "csv-label-last", "libsvm"])
    def test_byte_order_mark_is_ignored(self, tmp_path, text, fmt):
        outputs = []
        for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            src, out = tmp_path / name, tmp_path / f"{name}.out"
            src.write_bytes(data)
            argv = ["rank", str(src), "--format", fmt, "--variant", "mrmr", "--output", str(out)]
            assert main(argv + (["--label-column", "y"] if fmt == "csv" else [])) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


    def test_names_that_need_quotes_read_back_as_four_cells(self, tmp_path):
        # Quoted header cells load as names holding a comma, a quote and a
        # newline; the ranking quotes them as csv.writer does.
        src, out = tmp_path / "d.csv", tmp_path / "ranking.csv"
        src.write_text('"a,b","q""x","l\nm",plain,y\n1,5,2,0,0\n2,3,7,1,1\n3,8,1,1,0\n4,1,4,0,1\n')
        assert main(["rank", str(src), "--label-column", "y", "--variant", "mrmr", "--output", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "index", "name", "score"] and len(rows) == 5
        assert all(len(row) == 4 for row in rows)
        assert sorted(row[2] for row in rows[1:]) == sorted(["a,b", 'q"x', "l\nm", "plain"])
        assert ',3,plain,' in out.read_text(encoding="utf-8")  # a name needing no quotes keeps its bytes


class TestEvalCommand:
    def test_writes_reports_and_prints_summary(self, tmp_path, labeled_csv, test_csv, capsys):
        base = tmp_path / "run"
        code = main(["eval", labeled_csv, test_csv, "--variant", "sifs", "--alpha", "0.5",
                     "--label-column", "y", "--n-grid", "2,4,6", "--output", str(base)])
        assert code == 0
        assert (tmp_path / "run.report.txt").exists()
        assert (tmp_path / "run.report.json").exists()
        assert (tmp_path / "run.ranking.csv").exists()
        out = capsys.readouterr().out
        assert out.startswith("avg=") and "max=" in out
        text = (tmp_path / "run.report.txt").read_text()
        assert "n_evaluated=2,4,6" in text

    def test_default_n_grid(self):
        from infinisel.cli import build_parser

        args = build_parser().parse_args(["eval", "a", "b", "--output", "o"])
        assert args.n_grid == "10,50,100,150,200"

    def test_cv_alpha_path(self, tmp_path, labeled_csv, test_csv):
        base = tmp_path / "cv"
        code = main(["eval", labeled_csv, test_csv, "--variant", "sifs",
                     "--label-column", "y", "--n-grid", "3", "--output", str(base)])
        assert code == 0
        text = (tmp_path / "cv.report.txt").read_text()
        alpha = float(text.splitlines()[1].split("=")[1])
        assert 0.0 <= alpha <= 1.0

    @pytest.mark.parametrize("command", ["rank", "eval", "compare"])
    def test_negative_seed_exit_three(self, tmp_path, labeled_csv, test_csv, command, capsys):
        inputs = [labeled_csv]
        if command != "rank":
            inputs += [test_csv, "--alpha", "cv", "--output", str(tmp_path / "x")]
        code = main([command, *inputs, "--seed", "-1", "--label-column", "y"])
        assert code == 3
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err

    def test_abbreviated_flag_is_unknown(self, tmp_path, labeled_csv, test_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", labeled_csv, test_csv, "--var", "sifs", "--alpha", "0.5",
                  "--label-column", "y", "--output", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --var sifs" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_mismatched_feature_counts_exit_three(self, tmp_path, labeled_csv, capsys):
        rng = np.random.default_rng(93)
        other = write_csv(tmp_path / "wide.csv", rng.normal(size=(30, 9)),
                          labels=rng.integers(0, 2, 30))
        code = main(["eval", labeled_csv, other, "--alpha", "0.5",
                     "--label-column", "y", "--output", str(tmp_path / "x")])
        assert code == 3
        assert "feature counts" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_permuted_test_columns_exit_three(self, tmp_path, command, capsys):
        # The same rows with the test file's columns in another order would
        # score a classifier on the wrong features.
        rng = np.random.default_rng(94)
        y = rng.integers(0, 2, 40)
        values = rng.normal(size=(40, 4))
        train = write_csv(tmp_path / "train.csv", values, labels=y)
        test = write_csv(tmp_path / "test.csv", values[:, [0, 2, 1, 3]], labels=y,
                         names=["x0", "x2", "x1", "x3"])
        code = main([command, train, test, "--alpha", "0.5", "--label-column", "y",
                     "--n-grid", "2", "--output", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "feature 1 is 'x1' in train, 'x2' in test" in err and "Traceback" not in err
        assert not list(tmp_path.glob("x.*"))


class TestCompareCommand:
    def test_four_variants_reports_and_summary(self, tmp_path, labeled_csv, test_csv, capsys):
        base = tmp_path / "cmp"
        code = main(["compare", labeled_csv, test_csv, "--alpha", "0.5",
                     "--label-column", "y", "--n-grid", "2,4", "--output", str(base)])
        assert code == 0
        for variant in ("ifs", "mifs", "sifs", "mrmr"):
            assert (tmp_path / f"cmp.{variant}.report.txt").exists()
            assert (tmp_path / f"cmp.{variant}.report.json").exists()
        summary = (tmp_path / "cmp.summary.txt").read_text().splitlines()
        assert summary[0] == "variant,avg,max"
        assert len(summary) == 5
        assert capsys.readouterr().out.splitlines()[0] == "variant,avg,max"

    def test_single_variant_summary(self, tmp_path, labeled_csv, test_csv):
        base = tmp_path / "one"
        code = main(["compare", labeled_csv, test_csv, "--variants", "mifs",
                     "--alpha", "0.5", "--label-column", "y", "--n-grid", "2",
                     "--output", str(base)])
        assert code == 0
        assert len((tmp_path / "one.summary.txt").read_text().splitlines()) == 2

    def test_unknown_variant_exit_three(self, tmp_path, labeled_csv, test_csv, capsys):
        code = main(["compare", labeled_csv, test_csv, "--variants", "ifs,bogus",
                     "--label-column", "y", "--output", str(tmp_path / "x")])
        assert code == 3
        assert "bogus" in capsys.readouterr().err

    def test_reports_match_eval_per_variant(self, tmp_path, labeled_csv, test_csv):
        common = ["--alpha", "0.5", "--label-column", "y", "--n-grid", "2,4"]
        assert main(["compare", labeled_csv, test_csv, *common,
                     "--output", str(tmp_path / "cmp")]) == 0
        for variant in ("ifs", "mifs", "sifs", "mrmr"):
            base = tmp_path / f"eval-{variant}"
            assert main(["eval", labeled_csv, test_csv, "--variant", variant, *common,
                         "--output", str(base)]) == 0
            for ext in ("report.txt", "report.json"):
                compared = (tmp_path / f"cmp.{variant}.{ext}").read_bytes()
                assert compared == (tmp_path / f"eval-{variant}.{ext}").read_bytes()

    def test_cv_reports_match_eval_per_variant(self, tmp_path, labeled_csv, test_csv):
        # One cross validation over both variants' grids picks the same
        # alpha and cost, and so writes the same bytes, as one per variant.
        common = ["--alpha", "cv", "--label-column", "y", "--n-grid", "2"]
        assert main(["compare", labeled_csv, test_csv, "--variants", "sifs,mrmr", *common,
                     "--output", str(tmp_path / "cmp")]) == 0
        for variant in ("sifs", "mrmr"):
            assert main(["eval", labeled_csv, test_csv, "--variant", variant, *common,
                         "--output", str(tmp_path / f"eval-{variant}")]) == 0
            for ext in ("report.txt", "report.json"):
                compared = (tmp_path / f"cmp.{variant}.{ext}").read_bytes()
                assert compared == (tmp_path / f"eval-{variant}.{ext}").read_bytes()

    @pytest.mark.parametrize("alpha", ["0.5", "cv"])
    def test_multiclass_reports_have_no_auc_and_match_eval(self, tmp_path, alpha):
        # Three classes fit one-vs-rest models, which have no AUC.
        rng = np.random.default_rng(95)
        paths = []
        for name, n in (("train3.csv", 45), ("test3.csv", 30)):
            y = np.arange(n) % 3
            values = rng.normal(size=(n, 5))
            values[:, 1] += y
            paths.append(write_csv(tmp_path / name, values, labels=y))
        variants = ("ifs", "mifs", "sifs", "mrmr") if alpha != "cv" else ("sifs", "mrmr")
        common = ["--alpha", alpha, "--label-column", "y", "--n-grid", "2,4"]
        assert main(["compare", *paths, *common, "--variants", ",".join(variants),
                     "--output", str(tmp_path / "cmp")]) == 0
        for variant in variants:
            text = (tmp_path / f"cmp.{variant}.report.txt").read_text()
            assert "accuracy_n4=" in text and "auc_n" not in text
            assert '"per_n_auc": null' in (tmp_path / f"cmp.{variant}.report.json").read_text()
            assert main(["eval", *paths, "--variant", variant, *common,
                         "--output", str(tmp_path / f"eval-{variant}")]) == 0
            for ext in ("report.txt", "report.json"):
                compared = (tmp_path / f"cmp.{variant}.{ext}").read_bytes()
                assert compared == (tmp_path / f"eval-{variant}.{ext}").read_bytes()

    def test_no_output_when_a_later_variant_fails(self, tmp_path):
        # One feature: mrmr can rank it, but a graph variant needs two.
        rng = np.random.default_rng(94)
        train = write_csv(tmp_path / "tr.csv", rng.normal(size=(30, 1)),
                          labels=rng.integers(0, 2, 30))
        test = write_csv(tmp_path / "te.csv", rng.normal(size=(20, 1)),
                         labels=rng.integers(0, 2, 20))
        code = main(["compare", train, test, "--variants", "mrmr,ifs", "--alpha", "0.5",
                     "--label-column", "y", "--n-grid", "1", "--output", str(tmp_path / "x")])
        assert code == 3
        assert not list(tmp_path.glob("x.*"))

    def test_variant_flag_is_unknown(self, tmp_path, labeled_csv, test_csv, capsys):
        # compare reads --variants only; --variant must not be accepted,
        # neither ignored nor taken as an abbreviation of --variants.
        with pytest.raises(SystemExit) as exc:
            main(["compare", labeled_csv, test_csv, "--variants", "ifs", "--variant", "sifs",
                  "--alpha", "0.5", "--label-column", "y", "--output", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --variant sifs" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_repeated_variant_exit_three(self, tmp_path, capsys):
        # The inputs do not exist: the check must come before any load.
        missing = str(tmp_path / "missing.csv")
        code = main(["compare", missing, missing, "--variants", "ifs,mrmr,ifs",
                     "--output", str(tmp_path / "x")])
        assert code == 3
        assert "ifs" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))


NUMPY_AND_STDLIB_ONLY = """
import sys
allowed = set(sys.stdlib_module_names) | {"numpy", "infinisel"}
class _NumpyAndStdlibOnly:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            raise ImportError(f"{name} is neither numpy nor in the standard library")
sys.meta_path.insert(0, _NumpyAndStdlibOnly())
import infinisel
from infinisel.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestNumpyOnly:
    @pytest.mark.parametrize("command", ["rank", "eval"])
    def test_cli_runs_on_numpy_and_stdlib_alone(self, tmp_path, labeled_csv, test_csv, command):
        # Every other third-party import fails in this interpreter.
        argv = {
            "rank": ["rank", labeled_csv, "--label-column", "y", "--output", str(tmp_path / "r.csv")],
            "eval": ["eval", labeled_csv, test_csv, "--label-column", "y", "--alpha", "cv",
                     "--n-grid", "2", "--output", str(tmp_path / "e")],
        }[command]
        package_root = str(Path(infinisel.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", NUMPY_AND_STDLIB_ONLY, *argv], env=env,
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")


class TestFlagErrors:
    """Each bad flag value is a ConfigError: exit 3 with one ``error:`` line."""

    @pytest.mark.parametrize("command, flags, message", [
        ("rank", ["--alpha", "x"], "--alpha must be a number in [0, 1] or 'cv', got 'x'"),
        ("rank", ["--c", "x"], "--c must be a number, got 'x'"),
        ("rank", ["--bins", "2.5"], "--bins must be an integer, got '2.5'"),
        ("rank", ["--seed", "x"], "--seed must be an integer, got 'x'"),
        ("rank", ["--format", "xml"], "--format must be 'csv' or 'libsvm', got 'xml'"),
        ("eval", ["--n-grid", "1,x"], "--n-grid must be a comma-separated list of integers, got '1,x'"),
        ("eval", ["--n-grid", "0"], "--n-grid entries must be positive, got '0'"),
        ("compare", ["--variants", ","], "--variants must list at least one variant"),
    ], ids=["alpha", "c", "bins", "seed", "format", "n-grid-integers", "n-grid-positive", "variants"])
    def test_exit_three_with_one_error_line(self, tmp_path, labeled_csv, test_csv, capsys,
                                            command, flags, message):
        inputs = [labeled_csv] if command == "rank" else [labeled_csv, test_csv, "--output", str(tmp_path / "x")]
        assert main([command, *inputs, "--label-column", "y", *flags]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not list(tmp_path.glob("x.*"))

    def test_missing_libsvm_file_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.svm")
        assert main(["rank", missing, "--format", "libsvm"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {missing}: ")


def test_module_entry_point(labeled_csv):
    # ``python -m infinisel.cli`` exits with main()'s code.
    package_root = str(Path(infinisel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    argv = ["rank", labeled_csv, "--label-column", "y", "--variant", "ifs"]
    proc = subprocess.run([sys.executable, "-m", "infinisel.cli", *argv], env=env, capture_output=True)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout.decode().splitlines()[0] == "rank,index,name,score"
    missing = subprocess.run([sys.executable, "-m", "infinisel.cli", "rank", labeled_csv + ".nope"],
                             env=env, capture_output=True)
    assert missing.returncode == 2 and missing.stderr.decode().startswith("error: cannot read ")
