"""Command-line surface: outputs, exit codes, determinism."""

import json
import math

import pytest

from taxsim.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _base_args(paths):
    return ["--taxonomy", str(paths["taxonomy"]), "--lexicon", str(paths["lexicon"])]


class TestValidate:
    def test_toy_stats_line(self, capsys, toy_files):
        code, out, _ = _run(capsys, ["validate"] + _base_args(toy_files))
        assert code == 0
        assert out == "5 concepts, 4 edges, 3 words, MAX=2\n"

    def test_cycle_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "cycle.tsv"
        bad.write_text("A\tB\nB\tA\n", encoding="utf-8")
        empty_lex = tmp_path / "lex.tsv"
        empty_lex.write_text("", encoding="utf-8")
        code, _, err = _run(
            capsys,
            ["validate", "--taxonomy", str(bad), "--lexicon", str(empty_lex)],
        )
        assert code == 1
        assert "cycle" in err

    def test_missing_file_exits_2(self, capsys, tmp_path, toy_files):
        code, _, err = _run(
            capsys,
            [
                "validate",
                "--taxonomy", str(tmp_path / "missing.tsv"),
                "--lexicon", str(toy_files["lexicon"]),
            ],
        )
        assert code == 2
        assert "missing.tsv" in err


class TestSim:
    def test_single_measure_row(self, capsys, toy_files):
        code, out, _ = _run(
            capsys,
            ["sim", "x", "y"] + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"]), "--measure", "resnik"],
        )
        assert code == 0
        assert out == "x\ty\tresnik\t0.4150\tA\n"

    def test_self_similarity(self, capsys, toy_files):
        code, out, _ = _run(
            capsys,
            ["sim", "x", "x"] + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"]), "--measure", "resnik"],
        )
        assert code == 0
        assert "\t1.0000\t" in out

    def test_all_measures_by_default(self, capsys, toy_files):
        code, out, _ = _run(
            capsys,
            ["sim", "x", "y"] + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"])],
        )
        assert code == 0
        lines = out.splitlines()
        assert [line.split("\t")[2] for line in lines] == [
            "resnik", "edge", "prob", "lch",
        ]
        assert lines[1] == "x\ty\tedge\t2.0000\t-"
        assert lines[2] == "x\ty\tprob\t0.2500\tA"
        assert lines[3] == "x\ty\tlch\t1.0000\t-"

    def test_unknown_word_exits_3_and_names_it(self, capsys, toy_files):
        code, _, err = _run(
            capsys,
            ["sim", "x", "unlisted"] + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"])],
        )
        assert code == 3
        assert "unlisted" in err

    def test_structural_measures_work_without_counts(self, capsys, toy_files):
        code, out, _ = _run(
            capsys,
            ["sim", "x", "y"] + _base_args(toy_files)
            + ["--measure", "lch", "--measure", "edge", "--measure", "lch"],
        )
        assert code == 0
        # one row per measure, in the order of WORD_MEASURES
        assert [line.split("\t")[2] for line in out.splitlines()] == ["edge", "lch"]

    def test_corpus_measure_without_counts_exits_1(self, capsys, toy_files):
        code, _, err = _run(
            capsys,
            ["sim", "x", "y"] + _base_args(toy_files) + ["--measure", "resnik"],
        )
        assert code == 1
        assert "--counts" in err

    def test_log_base_changes_value_not_witness(self, capsys, toy_files):
        args = ["sim", "x", "y"] + _base_args(toy_files) + [
            "--counts", str(toy_files["counts"]), "--measure", "resnik",
        ]
        _, out2, _ = _run(capsys, args)
        _, oute, _ = _run(capsys, args + ["--log-base", str(math.e)])
        value2, witness2 = out2.split("\t")[3], out2.split("\t")[4]
        valuee, witnesse = oute.split("\t")[3], oute.split("\t")[4]
        assert witness2 == witnesse
        assert value2 != valuee
        assert float(valuee) == pytest.approx(float(value2) * math.log(2), abs=1e-3)

    def test_invalid_log_base_exits_1(self, capsys, toy_files):
        code, _, err = _run(
            capsys,
            ["sim", "x", "y"] + _base_args(toy_files) + ["--log-base", "1.0"],
        )
        assert code == 1
        assert "--log-base" in err

    @pytest.mark.parametrize("flag", ["--log-base", "--lch-floor"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_parameter_exits_1(self, capsys, toy_files, flag, bad):
        code, out, err = _run(
            capsys,
            ["sim", "x", "y"] + _base_args(toy_files)
            + ["--measure", "lch", flag, bad],
        )
        assert code == 1
        assert out == ""
        assert flag in err and "finite" in err

    def test_lch_floor_flag(self, capsys, toy_files):
        code, out, _ = _run(
            capsys,
            ["sim", "x", "x"] + _base_args(toy_files)
            + ["--measure", "lch", "--lch-floor", "0.5"],
        )
        assert code == 0
        assert out == "x\tx\tlch\t3.0000\t-\n"  # -log2(0.5/4)


class TestEvalFixture:
    def test_three_pass_lines(self, capsys):
        code, out, _ = _run(capsys, ["eval", "--fixture"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert [line.split("\t")[0] for line in lines] == ["ic", "edge", "prob"]
        assert all(line.endswith("PASS") for line in lines)
        assert lines[0].split("\t")[1] == "r=0.7911"
        assert lines[1].split("\t")[1] == "r=0.6644"
        assert lines[2].split("\t")[1] == "r=0.6671"

    def test_needs_no_input_files(self, capsys):
        # hermetic: no --taxonomy/--lexicon/--counts anywhere
        code, _, _ = _run(capsys, ["eval", "--fixture"])
        assert code == 0


class TestEvalLive:
    def test_report_with_exclusions(self, capsys, toy_files):
        code, out, _ = _run(
            capsys,
            ["eval", "--benchmark", str(toy_files["benchmark"])]
            + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"]), "--measure", "resnik"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "resnik\tr=1.0000\tn=2\texcluded=1"
        assert lines[1].startswith("# excluded: x,unlisted")

    def test_json_lines_output(self, capsys, tmp_path, toy_files):
        out_path = tmp_path / "rows.jsonl"
        code, _, _ = _run(
            capsys,
            ["eval", "--benchmark", str(toy_files["benchmark"])]
            + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"]),
               "--measure", "resnik", "--json-out", str(out_path)],
        )
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 3
        assert records[0]["pair"] == ["x", "y"]
        assert records[0]["included"] is True
        assert records[0]["score"] == pytest.approx(0.4150375, abs=1e-6)
        assert records[2]["included"] is False
        assert records[2]["score"] is None
        assert "unlisted" in records[2]["reason"]

    def test_degenerate_benchmark_exits_4(self, capsys, tmp_path, toy_files):
        thin = tmp_path / "thin.csv"
        thin.write_text("word1,word2,rating\nx,y,3.0\n", encoding="utf-8")
        code, _, err = _run(
            capsys,
            ["eval", "--benchmark", str(thin)] + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"]), "--measure", "resnik"],
        )
        assert code == 4
        assert "usable rows" in err

    def test_nan_rating_exits_4_with_line(self, capsys, tmp_path, toy_files):
        bench = tmp_path / "nan.csv"
        bench.write_text(
            "word1,word2,rating\nx,y,3.5\nx,z,nan\ny,z,1.0\n", encoding="utf-8"
        )
        code, out, err = _run(
            capsys,
            ["eval", "--benchmark", str(bench)] + _base_args(toy_files)
            + ["--measure", "edge"],
        )
        assert code == 4
        assert out == ""
        assert f"{bench}:3" in err and "non-finite rating" in err

    def test_missing_benchmark_flag_exits_1(self, capsys, toy_files):
        code, _, err = _run(capsys, ["eval"] + _base_args(toy_files))
        assert code == 1
        assert "--benchmark" in err

    def test_log_base_leaves_correlations_unchanged(self, capsys, tmp_path, toy_files):
        bench = tmp_path / "b.csv"
        bench.write_text(
            "word1,word2,rating\nx,y,3.5\nx,z,0.5\ny,z,1.0\n", encoding="utf-8"
        )
        args = ["eval", "--benchmark", str(bench)] + _base_args(toy_files) + [
            "--counts", str(toy_files["counts"]),
        ]
        _, out2, _ = _run(capsys, args)
        _, oute, _ = _run(capsys, args + ["--log-base", str(math.e)])
        assert out2 == oute


class TestStats:
    def test_toy_dump(self, capsys, toy_files):
        code, out, _ = _run(
            capsys,
            ["stats"] + _base_args(toy_files) + ["--counts", str(toy_files["counts"])],
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines == sorted(lines)  # ordered by concept id
        assert "root\t4\t1.0000\t0.0000" in lines

    def test_infinite_ic_printed_as_inf(self, capsys, tmp_path, toy_files):
        tax = tmp_path / "t.tsv"
        tax.write_text(
            "A\troot\nB\troot\nA1\tA\nA2\tA\nC\troot\n", encoding="utf-8"
        )
        code, out, _ = _run(
            capsys,
            ["stats", "--taxonomy", str(tax),
             "--lexicon", str(toy_files["lexicon"]),
             "--counts", str(toy_files["counts"])],
        )
        assert code == 0
        assert "C\t0\t0.0000\tinf" in out.splitlines()

    def test_empty_counts_exits_1_with_n_zero(self, capsys, tmp_path, toy_files):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code, _, err = _run(
            capsys,
            ["stats"] + _base_args(toy_files) + ["--counts", str(empty)],
        )
        assert code == 1
        assert "N = 0" in err

    def test_plural_fold_flag(self, capsys, tmp_path, toy_files):
        counts = tmp_path / "plural.tsv"
        counts.write_text("xs\t3\nx\t2\ny\t1\nz\t1\n", encoding="utf-8")
        args = ["stats"] + _base_args(toy_files) + ["--counts", str(counts)]
        _, without, _ = _run(capsys, args)
        assert "A1\t2\t" in without  # "xs" not in lexicon, ignored
        code, with_fold, _ = _run(capsys, args + ["--plural-fold"])
        assert code == 0
        assert "A1\t5\t" in with_fold  # "xs" folded into "x"

    def test_byte_identical_reruns(self, capsys, toy_files):
        args = ["stats"] + _base_args(toy_files) + [
            "--counts", str(toy_files["counts"]),
        ]
        _, first, _ = _run(capsys, args)
        _, second, _ = _run(capsys, args)
        assert first == second
