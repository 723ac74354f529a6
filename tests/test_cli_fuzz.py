"""Fuzzing of the command line's input parsers.

Whatever a graph file, `--path` literal or `--alpha` list holds, `rwre` must
exit with status 0 (the input was valid) or 2 (an error message), never 1 (an
internal error) or an uncaught exception.  Environment dumps have no
subcommand that reads them, so `read_environment` is held to the same
contract directly: it may only raise the errors that `main` maps to 2.

Numerical warnings are ignored here as they are on the command line, where
they are printed and do not change the exit status.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwre import (
    GraphFormatError,
    LatticeSpec,
    PreconditionError,
    build_torus,
    read_environment,
)
from rwre.cli import main

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def exit_status(argv) -> int:
    """Exit status of `rwre argv`, counting argparse's usage exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
    assert status in (0, 2), f"rwre {argv} exited {status}: {err.getvalue()}"
    return status


numbers = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e308", "1e-320", "-0", "nan", "inf", "1_0", "0x1", "", "x"]),
)
weights = st.floats(0.05, 5.0).map(repr)


def mutated(draw, tokens, fuzz=numbers):
    """`tokens` with up to two of them replaced by fuzzed ones, so that valid
    inputs and inputs one or two tokens from valid are both drawn."""
    tokens = list(tokens)
    for _ in range(draw(st.integers(0, 2)) if tokens else 0):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(fuzz)
    return tokens


@st.composite
def graph_texts(draw):
    """A valid graph file (every vertex has an out-edge), then up to two
    fields replaced and up to two lines dropped, duplicated or replaced by
    free text."""
    n = draw(st.integers(1, 4))
    edges = [(v, draw(st.integers(0, n - 1))) for v in range(n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    lines = [f"vertices {n}"] + [f"edge {i} {t} {h} {draw(weights)}"
                                 for i, (t, h) in enumerate(edges)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["field", "drop", "duplicate", "text"]))
        if kind == "field":
            lines[i] = " ".join(mutated(draw, lines[i].split()))
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(max_size=12))
        if not lines:
            break
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.txt"


GRAPH_COMMANDS = [
    ["sample-env"],
    ["annealed-prob", "--path", "e0", "--replicas", "100"],
    ["cycle-check", "--path", "e0"],
    ["reverse-check", "--k", "2", "--replicas", "100"],
]


@FUZZ
@given(text=graph_texts())
def test_graph_files_exit_zero_or_two(graph_path, text):
    graph_path.write_text(text)
    for cmd in GRAPH_COMMANDS:
        exit_status([*cmd, "--graph-file", str(graph_path)])


@FUZZ
@given(data=st.binary(max_size=64))
def test_binary_graph_files_exit_zero_or_two(graph_path, data):
    graph_path.write_bytes(data)
    exit_status(["sample-env", "--graph-file", str(graph_path)])


def test_unreadable_graph_files_exit_two(tmp_path):
    (tmp_path / "bytes").write_bytes(b"vertices 1\n\xff\n")
    # more vertices than edges leaves a vertex without an out-edge; the file
    # is refused before anything of the vertex count's size is allocated
    (tmp_path / "huge").write_text("vertices 1000000000000\nedge 0 0 0 1.0\n")
    for path in (tmp_path, tmp_path / "missing", tmp_path / "bytes", tmp_path / "huge"):
        assert exit_status(["sample-env", "--graph-file", str(path)]) == 2


@FUZZ
@given(lines=st.lists(st.one_of(
    st.builds(lambda v, e, p: f"env {v} {e} {p}", st.integers(-1, 4), st.integers(-2, 8),
              numbers),
    st.builds(lambda parts: " ".join(["env", *parts]), st.lists(numbers, max_size=5)),
    st.text(max_size=12)), max_size=10))
def test_environment_dumps_raise_only_format_or_precondition_errors(lines):
    g, _ = build_torus(LatticeSpec((2.0, 1.0)), [3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            read_environment(g, io.StringIO("\n".join(lines) + "\n"))
        except (GraphFormatError, PreconditionError):
            pass


TORUS = ["--alpha", "2,1,1,1", "--torus", "3,3"]
TORUS_GRAPH, _ = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])


@st.composite
def path_literals(draw):
    """A walk on the 3x3 torus written as vertex ids, steps or edge ids, with
    up to two tokens replaced by fuzzed ones."""
    g = TORUS_GRAPH
    v, vertices, eids = 0, [0], []
    for _ in range(draw(st.integers(0, 5))):
        eid = int(draw(st.sampled_from(g.out_edges(v).tolist())))
        v = int(g.heads[eid])
        vertices.append(v)
        eids.append(eid)
    form = draw(st.sampled_from(["vertices", "steps", "edges"]))
    if form == "vertices":
        tokens = [str(x) for x in vertices]
    elif form == "steps":
        tokens = [f"{axis * sign:+d}" for axis, sign in (g.directions[e] for e in eids)]
    else:
        tokens = [f"e{e}" for e in eids]
    return ",".join(mutated(draw, tokens, st.text(alphabet="0123456789e+-x ", max_size=4)))


@FUZZ
@given(text=path_literals(), origin=st.integers(-2, 10))
def test_path_literals_exit_zero_or_two(text, origin):
    exit_status(["annealed-prob", *TORUS, f"--path={text}", "--origin", str(origin)])
    exit_status(["cycle-check", *TORUS, f"--path={text}", "--origin", str(origin)])


@FUZZ
@given(root=numbers)
def test_reverse_check_roots_exit_zero_or_two(root):
    exit_status(["reverse-check", "--alpha", "2,1,1,1", "--torus", "2,2", "--k", "1",
                 "--replicas", "100", f"--root={root}"])


@pytest.mark.parametrize("text", ["x", "e", "e-1", "e999", "9", "0,5", "+3", "-0"])
def test_bad_path_literals_exit_two(text):
    assert exit_status(["annealed-prob", *TORUS, "--path", text]) == 2


@st.composite
def alpha_lists(draw):
    """Two to six positive weights with up to two replaced by fuzzed tokens."""
    return ",".join(mutated(draw, draw(st.lists(weights, min_size=2, max_size=6))))


@FUZZ
@given(text=alpha_lists())
def test_alpha_lists_exit_zero_or_two(text):
    exit_status(["trap-check", f"--alpha={text}"])
    exit_status(["sample-env", f"--alpha={text}", "--L", "2"])
    periods = ",".join(["2"] * max(1, len(text.split(",")) // 2))
    exit_status(["annealed-prob", f"--alpha={text}", "--torus", periods, "--path", "0",
                 "--replicas", "100"])


@pytest.mark.parametrize("text", ["inf,1", "nan,1", "1e400,1", "1e308,1e308"])
def test_non_finite_alpha_exits_two(text):
    assert exit_status(["annealed-prob", "--alpha", text, "--torus", "3", "--path", "0,1",
                        "--replicas", "100"]) == 2
