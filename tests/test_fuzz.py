"""Fuzzing the command line: whatever bytes an input file holds, ``main``
returns a documented exit code and no exception escapes."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import write_toy_files
from taxsim.cli import main

# Pieces of the four input formats, so that many generated files get past
# their first line and reach the graph, model and scoring code.
FRAGMENTS = [
    b"A", b"A1", b"B", b"root", b"*root*", b"x", b"y", b"X ", b"z",
    b"\t", b"\n", b"\r\n", b"\r", b" ", b"#", b",", b'"', b"-", b"0", b"7",
    b"1e308", b"-1.7e308", b"nan", b"word1,word2,rating\n",
    b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\x00",
]
CONTENTS = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(b"".join),
)

# the subcommands that read each kind of input file
READERS = {
    "taxonomy": ("validate", "sim", "stats", "eval"),
    "lexicon": ("validate", "sim", "stats", "eval"),
    "counts": ("sim", "stats", "eval"),
    "benchmark": ("eval",),
}


@pytest.fixture(scope="module")
def toy_paths(tmp_path_factory):
    return write_toy_files(tmp_path_factory.mktemp("fuzz"))


def _argv(command, paths):
    argv = ["--taxonomy", str(paths["taxonomy"]), "--lexicon", str(paths["lexicon"])]
    if command == "validate":
        return ["validate"] + argv
    argv += ["--counts", str(paths["counts"])]
    if command == "sim":
        return ["sim", "x", "y"] + argv
    if command == "stats":
        return ["stats"] + argv
    return ["eval", "--benchmark", str(paths["benchmark"])] + argv


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(content=CONTENTS)
@example(content=b"caf\xe9\tA\n")  # not UTF-8
@example(content=b"x\t" + b"9" * 4301 + b"\n")  # beyond int()'s digit limit
@example(content=b"word1,word2,rating\n" + b"x" * 131073 + b",y,1\n")  # csv limit
@example(content=b"x\t" + b"9" * 4300 + b"\ny\t" + b"9" * 4300 + b"\n")  # total too long
@example(content=b"x\t1\ny\t1" + b"0" * 400 + b"\n")  # p of x underflows to 0.0
@example(content=b"word1,word2,rating\nx,y,1e308\nx,z,1e308\ny,z,0\n")  # fsum overflow
def test_any_bytes_give_a_documented_exit_code(toy_paths, kind, content):
    fuzzed = toy_paths[kind].with_name("fuzzed-" + toy_paths[kind].name)
    fuzzed.write_bytes(content)
    paths = {**toy_paths, kind: fuzzed}
    for command in READERS[kind]:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(_argv(command, paths))
        assert code in {0, 1, 2, 3, 4}, (command, code)
