import numpy as np
import pytest

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

    def test_out_of_range_label_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,0\n2,1e20\n")
        assert main(["rank", str(bad), "--label-column", "y"]) == 2
        err = capsys.readouterr().err
        assert "row 3, column 2" in err and "Traceback" not in err

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

    def test_bad_binning_flag(self, labeled_csv, capsys):
        code = main(["rank", labeled_csv, "--binning", "quantile", "--label-column", "y"])
        assert code == 3
        assert "binning" in capsys.readouterr().err


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

    def test_mismatched_feature_counts_exit_three(self, tmp_path, labeled_csv, capsys):
        rng = np.random.default_rng(93)
        other = write_csv(tmp_path / "wide.csv", rng.normal(size=(30, 9)),
                          labels=rng.integers(0, 2, 30))
        code = main(["eval", labeled_csv, other, "--alpha", "0.5",
                     "--label-column", "y", "--output", str(tmp_path / "x")])
        assert code == 3
        assert "feature counts" in capsys.readouterr().err


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
