"""Every input file is read by `textfile.read_text` and numbered by
`textfile.split_lines`: only `\\n` ends a line, so a form feed or another
control character inside a line does not shift the line numbers of the
errors after it."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from evacsim import geo, population, sweep
from evacsim.cli import main
from evacsim.errors import InputError
from evacsim.geo import Point
from evacsim.textfile import content_lines, read_text, split_lines
from helpers import line_world, population_of, split_lines_reference
from test_engine import profile


def write_lines(path, lines: list[str]) -> str:
    # Bytes, so that no line end is translated on the way to the file.
    path.write_bytes(("\n".join(lines) + "\n").encode())
    return str(path)


@given(st.text(alphabet="a \t\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=30))
def test_split_lines_matches_the_reference(text):
    assert split_lines(text) == split_lines_reference(text)


def test_split_lines_breaks_only_at_newlines():
    assert split_lines("") == []
    assert split_lines("a") == split_lines("a\n") == split_lines("a\r\n") == ["a"]
    assert split_lines("a\x0cb\r\n\rc\r\r\n\n") == ["a\x0cb", "\rc\r", ""]
    assert split_lines("a\x0b\x85 b\nc") == ["a\x0b\x85 b", "c"]


def test_content_lines_skips_blank_and_comment_lines_only():
    text = "\n  # note\r\n a = 1  # kept\n\t\nb|2\n#\n"
    assert list(content_lines(text)) == [(3, "a = 1  # kept"), (5, "b|2")]


def test_read_text_keeps_line_ends_and_names_the_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_text(str(path), "spec") == "a\r\nb\rc\n"
    missing = str(tmp_path / "missing")
    with pytest.raises(InputError, match=f"^cannot read population file {missing}: "):
        read_text(missing, "population file")


def test_world_file_numbers_lines_past_a_form_feed(tmp_path):
    lines = geo.serialize_world(line_world(n_nodes=3)).splitlines()
    assert lines[1] == "node|0|0.0|0.0"
    lines[1] = "node|0|0.0|\x0c0.0"
    lines[3] = "node|2|200.0"
    with pytest.raises(InputError) as refused:
        geo.load_world(write_lines(tmp_path / "village.world", lines))
    assert str(refused.value) == "line 4: node expects node|id|x|y"


def test_population_file_numbers_lines_past_a_form_feed(tmp_path):
    lines = population.serialize_population(
        population_of([profile(i, i) for i in range(4)])).splitlines()
    lines[1] = lines[1].replace(",1.0,", ",1.0\x0c,", 1)
    lines[3] = lines[3].rsplit(",", 1)[0]
    with pytest.raises(InputError, match="^row 4: expected 14 cells$"):
        population.load_population(write_lines(tmp_path / "population.csv", lines))


def test_results_file_numbers_lines_past_a_form_feed(tmp_path, capsys):
    rows = [sweep.SweepRow(i, 0, i, 1, 0.25, 0.5, 0.7, 0.2, 0.2, 0.6, 3, 50, False)
            for i in range(4)]
    lines = sweep.rows_to_csv(rows).splitlines()
    lines[1] = lines[1].replace(",0.25,", ",0.25\x0c,", 1)
    lines[3] += ",1"
    results = write_lines(tmp_path / "results.csv", lines)
    assert main(["analyze", "--in", results]) == 1
    assert capsys.readouterr().err == "error: results CSV line 4: expected 13 cells\n"


def test_spec_file_numbers_lines_past_a_form_feed(tmp_path, capsys):
    world = write_lines(tmp_path / "village.world",
                        geo.serialize_world(line_world(n_nodes=3)).splitlines())
    lines = population.serialize_population_spec(
        population.default_population_spec()).splitlines()
    lines[1] = lines[1].replace(" = ", "\x0c = ", 1)
    lines[3] = "members_mean 3"
    spec = write_lines(tmp_path / "population.spec", lines)
    out = str(tmp_path / "population.csv")
    assert main(["gen-population", "--world", world, "--spec", spec, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: population spec line 4: expected key = value\n")



def _bad_population_code() -> str:
    # The header holds no `,1.0,`: the first one is a code of row 2.
    return population.serialize_population(
        population_of([profile(0, 0)])).replace(",1.0,", ",0.3,", 1)


@pytest.mark.parametrize("refuse", [
    lambda tmp_path: geo.parse_world("volcano|1\n"),
    lambda tmp_path: geo.validate_world(line_world(shelter_specs=[(0, 3, 0, False)])),
    lambda tmp_path: population.parse_population(_bad_population_code()),
    lambda tmp_path: population.parse_population_spec("colour = red\n"),
    lambda tmp_path: sweep.parse_sweep_spec("colour = red\n"),
    lambda tmp_path: sweep.rows_from_csv("tick\n"),
    lambda tmp_path: population.load_population(str(tmp_path / "missing.csv")),
    lambda tmp_path: geo.proximity_classes(replace(line_world(), waterways=[]), [Point(0.0, 0.0)]),
], ids=["world-format", "world-invariant", "population-cell", "population-spec-key",
        "sweep-spec-key", "results-header", "unreadable-file", "no-waterways"])
def test_every_reader_refuses_bad_input_as_input_error(refuse, tmp_path):
    with pytest.raises(InputError) as refused:
        refuse(tmp_path)
    assert type(refused.value) is InputError
