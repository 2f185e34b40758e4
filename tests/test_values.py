"""The value types: compared, hashed and printed by type and field values,
immutable except ``CheckResult``, and importable without ``dataclasses``."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import asymcolour
from asymcolour import FamilySpec, colour_bound, numeric, run, truncated_tree
from asymcolour.audit import CheckResult
from asymcolour.oracle import OracleReport

from .conftest import replace


def samples():
    """One value of each type, with a field change that makes it unequal."""
    colouring, trace = run(truncated_tree(3, 2), 0)
    step = trace.steps[1]
    return [
        (colouring, "radius", 1),
        (colour_bound(4), "numeric", 0.0),
        (step.inner[0], "stabilizer_order", 0),
        (step.splits[0], "chunk_colours", (numeric(9),)),
        (step, "k", 7),
        (trace, "final_stabilizer", ()),
        (FamilySpec("cycle", n=5), "n", 6),
        (CheckResult("final-split", 1, True), "passed", False),
        (OracleReport("motion", 4, 10, 0.0), "details", {"radius": 2}),
    ]


SAMPLES = samples()
IDS = [type(value).__name__ for value, _, _ in SAMPLES]


@pytest.mark.parametrize(("value", "field", "other"), SAMPLES, ids=IDS)
def test_equal_by_value(value, field, other):
    copy = replace(value)
    assert copy is not value
    assert copy == value
    assert not copy != value
    assert replace(value, **{field: other}) != value
    assert pickle.loads(pickle.dumps(value)) == value


def test_unequal_across_types():
    values = [value for value, _, _ in SAMPLES]
    for i, first in enumerate(values):
        for second in values[i + 1 :]:
            assert first != second
    # the same field values in a type with other field names
    colouring = SAMPLES[0][0]
    split = SAMPLES[3][0]
    assert type(split)(*(getattr(colouring, name) for name in type(colouring).__slots__)) != colouring
    assert colour_bound(4) != (colour_bound(4).total, colour_bound(4).numeric)


@pytest.mark.parametrize(("value", "field", "other"), SAMPLES, ids=IDS)
def test_hash_and_assignment(value, field, other):
    if isinstance(value, CheckResult):
        with pytest.raises(TypeError):
            hash(value)
        value = replace(value)
        value.passed = False
        assert value.passed is False
        return
    if isinstance(value, OracleReport):
        # a dict field is unhashable, as in a tuple
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(replace(value)) == hash(value)
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1


@pytest.mark.parametrize(("value", "field", "other"), SAMPLES, ids=IDS)
def test_repr_names_the_type_and_its_fields(value, field, other):
    text = repr(value)
    assert text.startswith(f"{type(value).__name__}(")
    for name in type(value).__slots__:
        assert f"{name}={getattr(value, name)!r}" in text


def test_reports_never_share_details():
    first = OracleReport("motion", 4, 10, 0.0)
    second = OracleReport("motion", 4, 10, 0.0)
    assert first.details == second.details == {}
    first.details["radius"] = 2
    assert second.details == {}


def test_two_runs_give_equal_traces():
    graph = truncated_tree(3, 2)
    first, second = run(graph, 0), run(graph, 0)
    assert first == second
    assert hash(first) == hash(second)


def test_import_stays_lean():
    # -S: no site module, so nothing is loaded before the import but the
    # interpreter's own start-up modules
    src = str(Path(asymcolour.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import asymcolour\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code, src], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = set(done.stdout.split())
    assert "asymcolour.colouring" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
