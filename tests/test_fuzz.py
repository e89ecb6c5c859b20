"""One-field mutations of every input file, run through `cli.main`.

Each mutation replaces or drops one field of one line of a good input: the
demo world file, a population CSV synthesized on it, the population spec
or a small sweep spec. The command that reads the file must exit 0, or 1
with a single line that starts "error: ": bad input never exits 2 (an
internal error) and never prints a traceback.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from evacsim.cli import main
from evacsim.geo import serialize_world
from evacsim.population import (
    default_population_spec,
    serialize_population,
    serialize_population_spec,
    synthesize,
)
from evacsim.worldgen import build_demo_world

# Two values per weight axis: three valid weight triples, one replication,
# one scenario and one threshold, so a sweep is three runs.
SWEEP_SPEC = """\
storm_levels = 2
rainfall_codes = 0.5
time_of_day_codes = 1.0
thresholds = 0.8
w_cdm = 0.1,0.8
w_hrf = 0.1,0.8
w_crf = 0.1,0.8
replications = 1
base_seed = 1
weight_filter = exact_one
"""
ENGINE_FLAGS = ["--max-ticks", "400"]

WORLD = build_demo_world()
TEXTS = {
    "world": serialize_world(WORLD),
    "population": serialize_population(synthesize(default_population_spec(), WORLD, seed=42)),
    "population-spec": serialize_population_spec(default_population_spec()),
    "sweep-spec": SWEEP_SPEC,
}
LINES = {name: text.split("\n") for name, text in TEXTS.items()}
# What separates the fields of a line of each file; a spec line,
# `key = value`, has two.
SEPARATOR = {"world": "|", "population": ",", "population-spec": " = ", "sweep-spec": " = "}
FIRST_EDGE = next(i for i, line in enumerate(LINES["world"]) if line.startswith("edge|"))
W_CDM = LINES["sweep-spec"].index("w_cdm = 0.1,0.8")

TOKENS = ["", "nan", "inf", "-inf", "-1", "0", "-0.0", "1", "2", "0.3", "1e-320", "1e308",
          "99999", "x", "True", " 1"]


def mutate(name: str, line: int, field: int, token: str | None) -> str:
    """The file `name` with field `field` (modulo the line's field count)
    of line `line` replaced by `token`, or dropped if it is None."""
    lines = list(LINES[name])
    fields = lines[line].split(SEPARATOR[name])
    field %= len(fields)
    if token is None:
        del fields[field]
    else:
        fields[field] = token
    lines[line] = SEPARATOR[name].join(fields)
    return "\n".join(lines)


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(LINES)))
    line = draw(st.integers(0, len(LINES[name]) - 1))
    token = draw(st.none() | st.sampled_from(TOKENS)
                 | st.text(alphabet="0123456789.-+eE,|=na ", max_size=6))
    return name, line, draw(st.integers(0, 20)), token


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, text in TEXTS.items():
        (directory / name).write_text(text)
    return directory


def command(name: str, paths: dict[str, str], out: str) -> list[str]:
    """The command that reads the file `name` at paths[name]."""
    if name == "population-spec":
        return ["gen-population", "--world", paths["world"], "--spec", paths[name],
                "--seed", "42", "--out", out]
    if name == "sweep-spec":
        return ["sweep", "--spec", paths[name], "--world", paths["world"],
                "--population", paths["population"], "--out", out, *ENGINE_FLAGS]
    return ["simulate", "--world", paths["world"], "--population", paths["population"],
            "--storm", "2", "--rain", "orange", "--time", "night", "--weights", "0.1,0.1,0.8",
            "--out-events", out, *ENGINE_FLAGS]


@settings(max_examples=120, deadline=None)
@given(mutation=mutations())
# A stored edge length of nan used to pass the world check.
@example(mutation=("world", FIRST_EDGE, 3, "nan"))
# A bad weight value no kept triple uses used to pass the sweep.
@example(mutation=("sweep-spec", W_CDM, 1, "0.1,nan"))
def test_a_one_field_mutation_exits_0_or_1_with_one_error_line(inputs, mutation):
    name, line, field, token = mutation
    mutated = inputs / f"mutated-{name}"
    mutated.write_text(mutate(name, line, field, token))
    paths = {other: str(inputs / other) for other in TEXTS}
    paths[name] = str(mutated)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(command(name, paths, str(inputs / "out.csv")))
    assert "Traceback" not in err.getvalue()
    assert status in (0, 1), err.getvalue()
    if status == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()


def test_the_examples_mutate_what_they_name():
    edge = mutate("world", FIRST_EDGE, 3, "nan").split("\n")[FIRST_EDGE]
    assert edge.startswith("edge|") and edge.endswith("|nan")
    assert mutate("sweep-spec", W_CDM, 1, "0.1,nan").split("\n")[W_CDM] == "w_cdm = 0.1,nan"
