"""Loading pauses the cyclic garbage collector and leaves the caller's
``gc.isenabled()`` state as it found it, on return and on error."""

import contextlib
import gc
import io
import math

import pytest

from helpers import TOY_COUNTS, TOY_EDGES, TOY_SENSES
from taxsim import (
    FrequencyTable,
    ModelError,
    Taxonomy,
    TaxonomyError,
    build_model,
    load_counts,
    load_taxonomy,
)
from taxsim.cli import main


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_on(request):
    """The collector's state at entry to each loader; restored after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_loaders_restore_state(gc_on, toy_files):
    t = load_taxonomy(toy_files["taxonomy"], toy_files["lexicon"])  # nests build()
    assert gc.isenabled() is gc_on
    Taxonomy.build(TOY_EDGES, TOY_SENSES)
    assert gc.isenabled() is gc_on
    table = load_counts(toy_files["counts"])
    assert gc.isenabled() is gc_on
    build_model(t, table)
    assert gc.isenabled() is gc_on


def test_raising_loaders_restore_state(gc_on, toy_taxonomy, tmp_path):
    with pytest.raises(TaxonomyError, match="cycle detected"):
        Taxonomy.build([("A", "B"), ("B", "A")])
    assert gc.isenabled() is gc_on
    counts = tmp_path / "c.tsv"
    counts.write_text("x\t1\nx 2\n", encoding="utf-8")
    with pytest.raises(ModelError, match=r"c\.tsv:2"):
        load_counts(counts)
    assert gc.isenabled() is gc_on
    with pytest.raises(ValueError, match="log_base"):
        build_model(toy_taxonomy, FrequencyTable.from_counts(TOY_COUNTS), log_base=math.nan)
    assert gc.isenabled() is gc_on


def test_collector_paused_while_loading(toy_taxonomy):
    assert gc.isenabled()
    seen = []

    def edges():
        seen.append(gc.isenabled())
        yield from TOY_EDGES

    class Counts(dict):
        def items(self):
            seen.append(gc.isenabled())
            return super().items()

    table = FrequencyTable(Counts(TOY_COUNTS))  # its check reads items() too
    seen.clear()
    Taxonomy.build(edges())
    build_model(toy_taxonomy, table)
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("extra, code", [([], 0), (["--log-base", "nan"], 1)],
                         ids=["success", "error"])
def test_cli_main_restores_state(gc_on, toy_files, extra, code):
    argv = ["sim", "x", "y", "--taxonomy", str(toy_files["taxonomy"]),
            "--lexicon", str(toy_files["lexicon"]), "--counts", str(toy_files["counts"])]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + extra) == code
    assert gc.isenabled() is gc_on


def test_cli_command_runs_with_the_collector_paused(toy_files, monkeypatch):
    import taxsim.cli

    seen = []
    real = taxsim.cli.word_similarity

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(taxsim.cli, "word_similarity", spy)
    argv = ["sim", "x", "y", "--measure", "edge", "--taxonomy", str(toy_files["taxonomy"]),
            "--lexicon", str(toy_files["lexicon"])]
    assert gc.isenabled()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert seen == [False]
    assert gc.isenabled()
