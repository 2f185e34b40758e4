"""Malformed input never escapes as anything but a ValueError, and the
command turns it into one ``asym:`` line. Well-formed family options
reach the construction, and every audit check passes."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymcolour import eccentricity, generate_family, parse_colouring, parse_graph
from asymcolour.colouring import BOUND_MODES
from asymcolour.cli import ORACLE_QUANTITIES, main
from asymcolour.graphs import FAMILIES, FAMILY_TABLE

from .conftest import deadline

TOKENS = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["b:1", "b:0", "inf", "#", "x", "1_0", "+1", "\u0661", "b:+1"]))
LINES = st.lists(st.lists(TOKENS, min_size=1, max_size=3), max_size=8)


def as_text(lines, separator="\t"):
    return "".join(separator.join(tokens) + "\n" for tokens in lines)


def parses_or_rejects(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(LINES, st.sampled_from([" ", "\t"]))
def test_parse_graph_raises_only_value_errors(lines, separator):
    parses_or_rejects(parse_graph, as_text(lines, separator))


@settings(max_examples=300, deadline=None)
@given(LINES, st.sampled_from([" ", "\t"]))
def test_parse_colouring_raises_only_value_errors(lines, separator):
    parses_or_rejects(parse_colouring, as_text(lines, separator))


# valid graphs and colourings among the fuzzed ones, so that verify also
# gets past parsing and decides some colourings
VALID_GRAPH_TEXTS = st.sampled_from(["1\n", "2\n0 1\n", "3\n0 1\n1 2\n", "4\n0 1\n1 2\n2 3\n0 3\n"])
GRAPH_TEXTS = st.one_of(LINES.map(as_text), VALID_GRAPH_TEXTS)
COLOURING_TEXTS = st.one_of(
    LINES.map(as_text),
    st.lists(st.sampled_from(["0", "1", "2", "b:1", "inf"]), min_size=1, max_size=4).map(
        lambda tokens: "".join(f"{v}\t{token}\n" for v, token in enumerate(tokens))
    ),
)


@settings(max_examples=150, deadline=None)
@given(GRAPH_TEXTS, COLOURING_TEXTS)
def test_verify_exits_with_a_documented_code(graph_text, colouring_text):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, colouring_path = Path(tmp) / "g.adj", Path(tmp) / "c.txt"
        graph_path.write_text(graph_text, encoding="utf-8")
        colouring_path.write_text(colouring_text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(graph_path), str(colouring_path)])
    assert code in (0, 1, 4)
    assert len(err.getvalue().splitlines()) <= 1
    assert (code == 1) == bool(err.getvalue())


def malformed(text):
    try:
        parse_graph(text)
    except ValueError:
        return True
    return False


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(LINES.map(as_text).filter(malformed), st.sampled_from(ORACLE_QUANTITIES))
def test_colour_and_oracle_reject_a_malformed_graph_in_one_line(graph_text, quantity):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "g.adj"
        graph_path.write_text(graph_text, encoding="utf-8")
        for argv in (["colour", "--input", str(graph_path)], ["oracle", str(graph_path), quantity]):
            code, out, err = run_main(argv)
            assert code == 1, argv
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("asym: "), err


# every numeric option is drawn from -3..3 or left out. Family sizes stay
# small on purpose: larger ones test the search's cost, not the guards.
# coloured_automorphisms(tree(7,4)) alone took 180 s with a 125 MiB
# tracemalloc peak (one run, tracing on, 2-vCPU Xeon VM). The colour
# options may also be 10**9, which every family refuses unbuilt
NUMBERS = st.one_of(st.none(), st.integers(-3, 3))
COLOUR_NUMBERS = st.one_of(st.none(), st.sampled_from([*range(-3, 4), 10**9]))
FAMILY_PARAMETERS = sorted({name for _, floors, _ in FAMILY_TABLE.values() for name in floors})


def options(values):
    return [arg for name, value in values.items() if value is not None for arg in (f"--{name}", str(value))]


def exits_with_a_documented_code(argv):
    code, _, err = run_main(argv)
    assert 0 <= code <= 4, argv
    if 1 <= code <= 3:
        assert len(err.splitlines()) == 1 and err.startswith("asym: "), (argv, err)
    else:
        assert err == "", (argv, err)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.fixed_dictionaries({name: COLOUR_NUMBERS for name in (*FAMILY_PARAMETERS, "root", "horizon", "cap")}),
)
def test_colour_numeric_options_exit_with_a_documented_code(family, values):
    exits_with_a_documented_code(["colour", "--family", family, *options(values)])


@settings(max_examples=200, deadline=None)
@given(
    VALID_GRAPH_TEXTS,
    st.sampled_from(ORACLE_QUANTITIES),
    st.fixed_dictionaries({name: NUMBERS for name in ("root", "horizon", "max-colours", "cap")}),
)
def test_oracle_numeric_options_exit_with_a_documented_code(graph_text, quantity, values):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "g.adj"
        graph_path.write_text(graph_text, encoding="utf-8")
        exits_with_a_documented_code(["oracle", str(graph_path), quantity, *options(values)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_colour_of_a_family_passes_every_check(data):
    # each parameter from its floor to floor + 3, at most about 300 edges,
    # any root and any horizon up to the root's eccentricity
    family = data.draw(st.sampled_from(FAMILIES), "family")
    _, floors, edges = FAMILY_TABLE[family]
    params = {name: data.draw(st.sampled_from(range(low, low + 4)), name) for name, low in floors.items()}
    assume(edges(*params.values()) <= 300)
    graph = generate_family(family, **params)
    root = data.draw(st.integers(0, graph.n - 1), "root")
    horizon = data.draw(st.one_of(st.none(), st.integers(0, eccentricity(graph, root))), "horizon")
    mode = data.draw(st.sampled_from(BOUND_MODES), "bound mode")
    values = {**params, "root": root, "horizon": horizon, "bound-mode": mode, "format": "kv"}
    with deadline(10):
        code, out, err = run_main(["colour", "--family", family, *options(values)])
    assert (code, err) == (0, ""), values
    assert "checks.all pass" in out.splitlines()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["chain", "colours"]), st.sampled_from([*range(-3, 4), 10**9, 10**616, 10**700]))
def test_bound_exits_0_or_1_with_at_most_one_line(kind, value):
    code, out, err = run_main(["bound", kind, str(value)])
    assert code in (0, 1)
    assert len(err.splitlines()) <= 1
    assert (code == 1) == bool(err) == (not out)
