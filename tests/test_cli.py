"""Command-line surface: outputs, exit codes, determinism."""

import json
import math
import os
import stat
import subprocess
import sys
import unicodedata
from types import SimpleNamespace

import pytest

import taxsim.cli
from taxsim import ProbabilityModel, Taxonomy
from taxsim.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _base_args(paths):
    return ["--taxonomy", str(paths["taxonomy"]), "--lexicon", str(paths["lexicon"])]


def _run_into(path, argv):
    """Exit code and stderr of ``taxsim argv`` run as a child process whose
    stdout is redirected to the file ``path``."""
    src = os.path.dirname(os.path.dirname(taxsim.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(path, "w", encoding="utf-8") as fh:
        run = subprocess.run([sys.executable, "-m", "taxsim.cli", *argv], stdout=fh,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    return run.returncode, run.stderr.decode("utf-8")


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

    def test_echoes_the_words_as_looked_up(self, capsys, toy_files):
        # a line end or tab in a word used to split the row or add a field
        args = _base_args(toy_files) + ["--counts", str(toy_files["counts"])]
        expected = _run(capsys, ["sim", "x", "y"] + args)
        assert expected[0] == 0
        assert _run(capsys, ["sim", "x\n", " Y"] + args) == expected

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

    def test_empty_counts_flag_counts_as_absent(self, capsys, toy_files):
        code, out, err = _run(
            capsys,
            ["sim", "x", "y"] + _base_args(toy_files)
            + ["--counts", "", "--measure", "resnik"],
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: --counts is required for the corpus-based measures (resnik, prob)\n"
        )

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

    @pytest.mark.parametrize("floor", ["1.5", "3", "1e308"])
    def test_lch_floor_above_one_exits_1(self, capsys, toy_files, floor):
        # a floor above 1 would rank synonyms below a parent and its child
        code, out, err = _run(
            capsys,
            ["sim", "x", "x"] + _base_args(toy_files)
            + ["--measure", "lch", "--lch-floor", floor],
        )
        assert code == 1
        assert out == ""
        assert err == f"error: --lch-floor must be finite and in (0, 1], got {float(floor)}\n"

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

    @pytest.mark.parametrize("flags", [
        ["--benchmark", "mine.csv"],
        ["--json-out", "rows.jsonl"],
        ["--benchmark", "mine.csv", "--json-out", "rows.jsonl"],
        ["--measure", "edge"],
        ["--taxonomy", "nothere.tsv"],
        ["--lexicon", "nothere.tsv"],
        ["--counts", "nothere.tsv"],
        ["--plural-fold"],
        ["--measure", "edge", "--taxonomy", "nothere.tsv", "--lexicon", "nothere.tsv"],
    ], ids=["benchmark", "json-out", "both", "measure", "taxonomy", "lexicon", "counts",
            "plural-fold", "measure-and-files"])
    def test_rejects_a_benchmark_or_json_out(self, capsys, tmp_path, monkeypatch, flags):
        # they used to be ignored: the replayed correlations printed with
        # exit 0 and no file written, as if mine.csv had been evaluated,
        # or only edge asked for.  No named file exists, so nothing is
        # read before the error
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, ["eval", "--fixture"] + flags)
        assert (code, out) == (1, "")
        assert err == ("error: --fixture replays the bundled reference scores; it takes no "
                       "--benchmark, --json-out, --measure, --taxonomy, --lexicon, --counts "
                       "or --plural-fold\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, named", [
        (["--log-base", "0.5"], "--log-base"),
        (["--lch-floor", "2"], "--lch-floor"),
        (["--measure", "edge", "--log-base", "0.5", "--taxonomy", "nothere.tsv"], "--log-base"),
    ], ids=["log-base", "lch-floor", "log-base-first"])
    def test_checks_log_base_and_lch_floor_first(self, capsys, flags, named):
        # as every other command does, before the fixture's own checks
        code, out, err = _run(capsys, ["eval", "--fixture"] + flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named} ")

    def test_empty_benchmark_and_json_out_count_as_absent(self, capsys):
        # so do empty input files
        code, out, _ = _run(capsys, ["eval", "--fixture", "--benchmark", "", "--json-out", "",
                                     "--taxonomy", "", "--lexicon", "", "--counts", ""])
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()] == ["ic", "edge", "prob"]


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

    def test_json_out_with_stdout_closed(self, capsys, tmp_path, toy_files, monkeypatch):
        # run with stdout closed (`>&-`), sys.stdout is None: the report
        # lines go nowhere and the rows still replace an existing
        # --json-out file, where looking for stdout's file descriptor used
        # to raise AttributeError
        argv = (["eval", "--benchmark", str(toy_files["benchmark"])] + _base_args(toy_files)
                + ["--counts", str(toy_files["counts"]), "--json-out"])
        (tmp_path / "out").mkdir()
        want, got = tmp_path / "out" / "want.jsonl", tmp_path / "out" / "got.jsonl"
        assert _run(capsys, argv + [str(want)])[0] == 0
        got.write_text("old\n", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", None)
        code = main(argv + [str(got)])
        monkeypatch.undo()
        assert (code, capsys.readouterr()) == (0, ("", ""))
        assert got.read_bytes() == want.read_bytes()
        assert sorted(p.name for p in got.parent.iterdir()) == ["got.jsonl", "want.jsonl"]

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

    def test_missing_taxonomy_flags_exit_1(self, capsys, toy_files):
        code, out, err = _run(capsys, ["eval", "--benchmark", str(toy_files["benchmark"])])
        assert code == 1
        assert out == ""
        assert err == "error: --taxonomy and --lexicon are required\n"

    def test_empty_json_out_writes_nothing(self, capsys, tmp_path, toy_files, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, out, _ = _run(
            capsys,
            ["eval", "--benchmark", str(toy_files["benchmark"]), "--json-out", ""]
            + _base_args(toy_files) + ["--measure", "edge"],
        )
        assert code == 0
        assert out.startswith("edge\tr=")
        assert list(cwd.iterdir()) == []

    def test_json_out_into_missing_directory_exits_2(self, capsys, tmp_path, toy_files):
        target = tmp_path / "missing" / "rows.jsonl"
        code, out, err = _run(
            capsys,
            ["eval", "--benchmark", str(toy_files["benchmark"]), "--json-out", str(target)]
            + _base_args(toy_files) + ["--measure", "edge"],
        )
        assert code == 2
        assert out.splitlines() == [
            "edge\tr=1.0000\tn=2\texcluded=1",
            "# excluded: x,unlisted\tword not in taxonomy: unlisted",
        ]
        assert str(target) in err
        assert not target.parent.exists()

    def test_json_out_onto_a_directory_exits_2_and_leaves_it(self, capsys, tmp_path,
                                                            toy_files):
        target = tmp_path / "out" / "rows.jsonl"
        target.mkdir(parents=True)
        code, out, err = _run(
            capsys,
            ["eval", "--benchmark", str(toy_files["benchmark"]), "--json-out", str(target)]
            + _base_args(toy_files) + ["--measure", "edge"],
        )
        assert code == 2
        assert out.startswith("edge\tr=1.0000\tn=2\texcluded=1\n")
        assert str(target) in err
        assert [p.name for p in target.parent.iterdir()] == ["rows.jsonl"]
        assert list(target.iterdir()) == []

    def test_json_out_replaces_an_existing_file_whole(self, capsys, tmp_path, toy_files):
        (tmp_path / "out").mkdir()
        target = tmp_path / "out" / "rows.jsonl"
        target.write_text("old\n" * 1000, encoding="utf-8")
        args = ["eval", "--benchmark", str(toy_files["benchmark"]), "--json-out", str(target)]
        assert _run(capsys, args + _base_args(toy_files) + ["--measure", "edge"])[0] == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["pair"] for line in lines] == [
            ["x", "y"], ["x", "z"], ["x", "unlisted"]]
        assert [p.name for p in target.parent.iterdir()] == ["rows.jsonl"]

    def test_json_out_through_a_symlink_fills_the_file_it_links_to(self, capsys, tmp_path,
                                                                   toy_files):
        # the rename used to replace the link with a file, and leave the
        # linked file as it was
        (tmp_path / "out").mkdir()
        real, link = tmp_path / "out" / "real.jsonl", tmp_path / "out" / "link.jsonl"
        real.write_text("old\n", encoding="utf-8")
        link.symlink_to(real)
        args = ["eval", "--benchmark", str(toy_files["benchmark"]), "--json-out", str(link)]
        assert _run(capsys, args + _base_args(toy_files) + ["--measure", "edge"])[0] == 0
        assert link.is_symlink() and link.resolve() == real
        lines = real.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["pair"] for line in lines] == [
            ["x", "y"], ["x", "z"], ["x", "unlisted"]]
        assert sorted(p.name for p in real.parent.iterdir()) == ["link.jsonl", "real.jsonl"]

    def test_json_out_into_a_fifo_writes_through_it(self, capsys, tmp_path, toy_files):
        # the rename used to replace the FIFO with a file.  The read end,
        # opened first and without blocking, lets the write end open, and
        # reads what was written once the run is over
        (tmp_path / "out").mkdir()
        fifo = tmp_path / "out" / "rows.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            args = ["eval", "--benchmark", str(toy_files["benchmark"]), "--json-out", str(fifo)]
            code = _run(capsys, args + _base_args(toy_files) + ["--measure", "edge"])[0]
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [json.loads(line)["pair"] for line in data.decode("utf-8").splitlines()] == [
            ["x", "y"], ["x", "z"], ["x", "unlisted"]]
        assert [p.name for p in fifo.parent.iterdir()] == ["rows.fifo"]

    @pytest.mark.parametrize("name", ["own", "dev"])
    def test_json_out_into_the_file_stdout_writes_to_keeps_both(self, tmp_path, toy_files,
                                                                name):
        # the rows went to a temporary file renamed over the one stdout
        # writes to, so the report lines went to the unlinked file and
        # were lost.  "own" names that file, "dev" names /dev/stdout
        both = tmp_path / "both.txt"
        if name == "dev" and not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout")
        target = str(both) if name == "own" else "/dev/stdout"
        code, err = _run_into(both, ["eval", "--benchmark", str(toy_files["benchmark"]),
                                     "--json-out", target, "--counts", str(toy_files["counts"]),
                                     "--measure", "resnik", "--measure", "edge"]
                              + _base_args(toy_files))
        assert (code, err) == (0, "")
        lines = both.read_text(encoding="utf-8").splitlines()
        assert [line if line.startswith(("resnik", "edge", "#")) else
                (json.loads(line)["measure"], json.loads(line)["pair"])
                for line in lines] == [
            "resnik\tr=1.0000\tn=2\texcluded=1",
            "# excluded: x,unlisted\tword not in taxonomy: unlisted",
            ("resnik", ["x", "y"]), ("resnik", ["x", "z"]), ("resnik", ["x", "unlisted"]),
            "edge\tr=1.0000\tn=2\texcluded=1",
            "# excluded: x,unlisted\tword not in taxonomy: unlisted",
            ("edge", ["x", "y"]), ("edge", ["x", "z"]), ("edge", ["x", "unlisted"]),
        ]
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith("both")] == [
            "both.txt"]

    def test_json_out_into_stdout_with_a_failing_measure(self, tmp_path, toy_files):
        # the rows go through stdout, so a failing measure has no file to
        # close or remove
        thin, both = tmp_path / "thin.csv", tmp_path / "both.txt"
        thin.write_text("word1,word2,rating\nx,y,3.0\n", encoding="utf-8")
        code, err = _run_into(both, ["eval", "--benchmark", str(thin), "--json-out", str(both),
                                     "--measure", "edge"] + _base_args(toy_files))
        assert code == 4 and err.startswith("error: benchmark") and "usable rows" in err
        assert both.read_text(encoding="utf-8") == ""

    def test_json_out_follows_no_link_at_its_temporary_name(self, capsys, tmp_path,
                                                            toy_files):
        # the temporary was opened with "w", which wrote the rows into the
        # file a link planted at its name points to, and then renamed the
        # link over the target
        (tmp_path / "out").mkdir()
        target, victim = tmp_path / "out" / "out.jsonl", tmp_path / "victim.txt"
        victim.write_text("keep\n", encoding="utf-8")
        planted = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        planted.symlink_to(victim)
        args = ["eval", "--benchmark", str(toy_files["benchmark"]), "--json-out", str(target)]
        code, out, err = _run(capsys, args + _base_args(toy_files) + ["--measure", "edge"])
        assert code == 2
        assert out.startswith("edge\tr=1.0000\tn=2\texcluded=1\n")
        assert str(planted) in err
        assert victim.read_text(encoding="utf-8") == "keep\n"
        assert planted.is_symlink() and planted.resolve() == victim
        assert [p.name for p in target.parent.iterdir()] == [planted.name]

    @pytest.mark.parametrize("word, line", [('"z\ny"', 6), ('"z\ty"', 5)],
                             ids=["newline", "tab"])
    def test_a_word_with_a_tab_or_line_break_exits_4(self, capsys, tmp_path, toy_files,
                                                     word, line):
        # such a word used to be excluded, and its "# excluded" line split
        # into more lines or fields
        bench = tmp_path / "breaks.csv"
        bench.write_text(f"word1,word2,rating\nx,y,3.5\nx,z,0.5\ny,z,1.0\ny,{word},2\n",
                         encoding="utf-8")
        code, out, err = _run(capsys, ["eval", "--benchmark", str(bench)]
                              + _base_args(toy_files) + ["--measure", "edge"])
        assert (code, out) == (4, "")
        assert err.startswith(f"error: {bench}:{line}: tab or line break in")

    def test_each_word_column_is_looked_up_and_each_family_swept_once(self, capsys,
                                                                      toy_files, monkeypatch):
        # one evaluate call per measure: the taxonomy's kept lookup of the
        # rows and each family's kept sweep make the four calls one lookup
        # of each word column, one model sweep and one path search per
        # included row
        calls = {}
        for cls, name in ((Taxonomy, "sense_index_column"),
                          (ProbabilityModel, "subsumer_argmax"),
                          (Taxonomy, "nearest_path_len")):
            method, calls[name] = getattr(cls, name), []
            monkeypatch.setattr(cls, name, lambda *a, method=method, seen=calls[name]:
                                seen.append(a) or method(*a))
        code, out, _ = _run(capsys, ["eval", "--benchmark", str(toy_files["benchmark"])]
                            + _base_args(toy_files) + ["--counts", str(toy_files["counts"])])
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()[::2]] == [
            "resnik", "edge", "prob", "lch"]
        # the model's lookup of the counts, then the two word columns
        assert {name: len(seen) for name, seen in calls.items()} == {
            "sense_index_column": 3, "subsumer_argmax": 1, "nearest_path_len": 2}

    @pytest.mark.parametrize("json_out", [[], ["--json-out", ""]], ids=["absent", "empty"])
    def test_no_json_rows_built_without_json_out(self, capsys, toy_files, monkeypatch,
                                                  json_out):
        # every row used to be serialized, then thrown away
        import taxsim.cli

        calls = []
        monkeypatch.setattr(taxsim.cli, "json",
                            SimpleNamespace(dumps=lambda *a, **k: calls.append(a)))
        code, out, _ = _run(
            capsys,
            ["eval", "--benchmark", str(toy_files["benchmark"])] + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"]), "--measure", "resnik"] + json_out,
        )
        assert code == 0
        assert out.startswith("resnik\tr=1.0000\tn=2\texcluded=1\n")
        assert calls == []

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


class TestEvalReportOrder:
    """``eval`` with several measures: the reports of the measures before
    a failing one print first, then the error and exit code the failing
    measure gives on its own."""

    @pytest.fixture
    def twin_files(self, tmp_path):
        # p1/p2 meet at P and q1/q2 at Q, both two edges apart: the corpus
        # measures vary with the counts below P and Q, the path measures not
        files = {name: tmp_path / name for name in ("t.tsv", "l.tsv", "c.tsv", "b.csv")}
        files["t.tsv"].write_text("P\troot\nQ\troot\np1\tP\np2\tP\nq1\tQ\nq2\tQ\n",
                                  encoding="utf-8")
        files["l.tsv"].write_text("a\tp1\nb\tp2\nc\tq1\nd\tq2\n", encoding="utf-8")
        files["c.tsv"].write_text("a\t1\nb\t1\nc\t3\nd\t3\n", encoding="utf-8")
        files["b.csv"].write_text("word1,word2,rating\na,b,4.0\nc,d,1.0\na,ghost,2.0\n",
                                  encoding="utf-8")
        return files

    @pytest.mark.parametrize("measures, first", [
        ([], "resnik"),  # all four: edge, the second, has zero variance
        (["--measure", "lch", "--measure", "prob"], "prob"),
    ], ids=["all", "prob-lch"])
    def test_zero_variance_after_earlier_reports(self, capsys, twin_files, measures, first):
        json_out = twin_files["b.csv"].with_name("rows.jsonl")
        code, out, err = _run(capsys, [
            "eval", "--benchmark", str(twin_files["b.csv"]), "--json-out", str(json_out),
            "--taxonomy", str(twin_files["t.tsv"]), "--lexicon", str(twin_files["l.tsv"]),
            "--counts", str(twin_files["c.tsv"])] + measures)
        assert (code, err) == (4, "error: zero variance: correlation undefined\n")
        assert out == (f"{first}\tr=1.0000\tn=2\texcluded=1\n"
                       "# excluded: a,ghost\tword not in taxonomy: ghost\n")
        # written only once every report is out, and the partial file is gone
        assert sorted(p.name for p in json_out.parent.iterdir()) == sorted(twin_files)

    @pytest.mark.parametrize("measures, code, err", [
        ([], 4, "zero variance: correlation undefined"),  # resnik, before lch's depth
        (["--measure", "lch"], 3, "taxonomy depth is 0; path-normalized similarity is undefined"),
    ], ids=["all", "lch"])
    def test_depth_zero_taxonomy(self, capsys, tmp_path, toy_files, monkeypatch,
                                 measures, code, err):
        # an edge file makes a depth of 1 or more, so the flat taxonomy
        # stands in for the loaded one
        flat = Taxonomy.build([], {"x": {"solo"}, "y": {"solo"}}, concepts=["solo"])
        monkeypatch.setattr(taxsim.cli, "load_taxonomy", lambda *paths: flat)
        bench, counts = tmp_path / "flat.csv", tmp_path / "flat_counts.tsv"
        bench.write_text("word1,word2,rating\nx,y,1.0\ny,x,2.0\nx,x,3.0\n", encoding="utf-8")
        counts.write_text("x\t2\ny\t1\n", encoding="utf-8")
        assert _run(capsys, ["eval", "--benchmark", str(bench)] + _base_args(toy_files)
                    + ["--counts", str(counts)] + measures) == (code, "", f"error: {err}\n")


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


class TestOneFormPerWord:
    """A word in its composed and in its decomposed Unicode form is one
    word in every file and argument."""

    @pytest.fixture
    def cafe_files(self, tmp_path):
        paths = {kind: tmp_path / f"{kind}.tsv" for kind in ("taxonomy", "lexicon")}
        paths["taxonomy"].write_text("a\tr\nb\tr\n", encoding="utf-8")
        paths["lexicon"].write_text("caf\u00e9\ta\ntea\tb\n", encoding="utf-8")
        for form in ("NFC", "NFD"):
            paths[form] = tmp_path / f"counts-{form}.tsv"
            paths[form].write_text(
                unicodedata.normalize(form, "caf\u00e9\t30\ntea\t10\n"), encoding="utf-8")
        return paths

    def test_counts_in_either_form_give_identical_stdout(self, capsys, cafe_files):
        outs = []
        for form in ("NFC", "NFD"):
            code, out, err = _run(capsys, ["stats"] + _base_args(cafe_files)
                                  + ["--counts", str(cafe_files[form])])
            assert (code, err) == (0, "")  # no count mass dropped
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == "a\t30\t0.7500\t0.4150"

    def test_sim_words_in_either_form_give_identical_stdout(self, capsys, cafe_files):
        outs = [
            _run(capsys, ["sim", unicodedata.normalize(form, "Caf\u00e9"), "tea"]
                 + _base_args(cafe_files) + ["--counts", str(cafe_files["NFD"])])
            for form in ("NFC", "NFD")
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0
        assert outs[0][1].startswith("caf\u00e9\ttea\tresnik\t")


class TestDroppedCountMass:
    @pytest.mark.parametrize("command", [["sim", "x", "y"], ["stats"], ["eval"]],
                             ids=["sim", "stats", "eval"])
    def test_share_on_stderr_and_stdout_unchanged(self, capsys, tmp_path, toy_files,
                                                  command):
        if command == ["eval"]:
            command = ["eval", "--benchmark", str(toy_files["benchmark"])]
        args = command + _base_args(toy_files)
        code, kept, err = _run(capsys, args + ["--counts", str(toy_files["counts"])])
        assert (code, err) == (0, "")
        counts = tmp_path / "more.tsv"
        counts.write_text(toy_files["counts"].read_text(encoding="utf-8")
                          + "unlisted\t12\n", encoding="utf-8")
        code, out, err = _run(capsys, args + ["--counts", str(counts)])
        assert code == 0
        assert err == ("note: 75.00% of the count mass (12 of 16) is dropped: "
                       "its words are not in the lexicon\n")
        if command[0] == "sim":  # the scores do not depend on the dropped words
            assert out.replace("resnik\t2.0000", "resnik\t0.4150").splitlines()[1:] == (
                kept.splitlines()[1:])
        elif command[0] == "stats":
            assert out == kept

    def test_share_of_counts_beyond_float_range(self, capsys, tmp_path, toy_files):
        counts = tmp_path / "huge.tsv"
        counts.write_text("x\t1\nunlisted\t" + "9" * 400 + "\n", encoding="utf-8")
        code, _, err = _run(capsys, ["stats"] + _base_args(toy_files)
                            + ["--counts", str(counts)])
        assert code == 0
        assert err == (f"note: 100.00% of the count mass ({'9' * 400} of 1{'0' * 400}) "
                       "is dropped: its words are not in the lexicon\n")


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "kind, expected", [("taxonomy", 1), ("lexicon", 1), ("counts", 1), ("benchmark", 4)]
    )
    def test_invalid_utf8_exits_with_loader_code(self, capsys, toy_files, kind, expected):
        # used to end in an uncaught UnicodeDecodeError
        path = toy_files[kind]
        path.write_bytes(path.read_bytes() + b"caf\xe9\tA\n")
        code, out, err = _run(
            capsys,
            ["eval", "--benchmark", str(toy_files["benchmark"])] + _base_args(toy_files)
            + ["--counts", str(toy_files["counts"])],
        )
        assert code == expected
        assert out == ""
        assert err == f"error: {path}: not valid UTF-8\n"

    def test_count_beyond_int_digit_limit_exits_1(self, capsys, tmp_path, toy_files):
        counts = tmp_path / "huge.tsv"
        counts.write_text("x\t1\ny\t" + "9" * 4301 + "\n", encoding="utf-8")
        code, out, err = _run(
            capsys, ["sim", "x", "y"] + _base_args(toy_files) + ["--counts", str(counts)]
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {counts}:2: count too large (4301 digits)\n"

    @pytest.mark.parametrize("command", ["sim", "stats", "eval"])
    def test_count_total_beyond_int_digit_limit_exits_1(
        self, capsys, tmp_path, toy_files, command
    ):
        # each count passes; stats used to end in a traceback printing their sum
        counts = tmp_path / "huge.tsv"
        counts.write_text("x\t" + "9" * 4300 + "\ny\t" + "9" * 4300 + "\n",
                          encoding="utf-8")
        argv = {"sim": ["sim", "x", "y"], "stats": ["stats"],
                "eval": ["eval", "--benchmark", str(toy_files["benchmark"])]}[command]
        code, out, err = _run(
            capsys, argv + _base_args(toy_files) + ["--counts", str(counts)]
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {counts}: total count too large (4301 digits)\n"

    def test_benchmark_field_over_csv_limit_exits_4(self, capsys, tmp_path, toy_files):
        bench = tmp_path / "wide.csv"
        bench.write_text(
            "word1,word2,rating\nx,y,1\nx," + "z" * 131073 + ",2\n", encoding="utf-8"
        )
        code, out, err = _run(
            capsys,
            ["eval", "--benchmark", str(bench)] + _base_args(toy_files)
            + ["--measure", "edge"],
        )
        assert code == 4
        assert out == ""
        assert err == (
            f"error: {bench}:3: field larger than field limit (131072)\n"
        )
