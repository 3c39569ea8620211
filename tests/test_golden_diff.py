"""The parser, the column-scale rule and the stderr comparison of
``tests/golden_diff.py``."""

import math

import golden_diff

BASE = """delta_p,mode,re_chi_e,n_g
-1,cold,0.5,-296.9
0,cold,-2.0,1607.5
1,hot,0.25,nan
"""
# two planted cells: re_chi_e in row 1, n_g in row 0
NEW = """delta_p,mode,re_chi_e,n_g
-1,cold,0.5,-296.8
0,cold,-2.000002,1607.5
1,hot,0.25,nan
"""


def test_csv_parses_into_columns_of_cell_text():
    columns = golden_diff.parse(BASE)
    assert list(columns) == ["delta_p", "mode", "re_chi_e", "n_g"]
    assert columns["mode"] == ["cold", "cold", "hot"]
    assert columns["n_g"] == ["-296.9", "1607.5", "nan"]


def test_json_records_and_objects_flatten_to_dotted_columns():
    records = golden_diff.parse('[{"a": 1.5, "b": null}, {"a": 2.0, "b": "x"}]')
    assert records == {"a": ["1.5", "2.0"], "b": ["null", '"x"']}
    nested = golden_diff.parse('{"calibration": {"kappa_e": 0.875}, "aliases": ["fig2c"]}')
    assert nested == {"calibration.kappa_e": ["0.875"], "aliases.0": ['"fig2c"']}


def test_two_planted_cells_move_at_their_columns_scale():
    """Each column's move is scaled by the largest finite |value| it
    prints; a NaN printed the same on both sides has not moved."""
    moves = golden_diff.column_moves(golden_diff.parse(BASE), golden_diff.parse(NEW))
    assert set(moves) == {"re_chi_e", "n_g"}
    count, largest, row, old, new = moves["re_chi_e"]
    assert (count, row, old, new) == (1, 1, "-2.0", "-2.000002")
    assert math.isclose(largest, 2e-6 / 2.000002)
    count, largest, row, old, new = moves["n_g"]
    assert (count, row, old, new) == (1, 0, "-296.9", "-296.8")
    assert math.isclose(largest, 0.1 / 1607.5)


def test_text_cells_and_missing_rows_move_by_inf():
    base = {"mode": ["cold", "hot"], "x": ["0", "0"]}
    new = {"mode": ["cold", "both"], "x": ["0"]}
    moves = golden_diff.column_moves(base, new)
    assert moves["mode"] == (1, math.inf, 1, "hot", "both")
    assert moves["x"] == (1, math.inf, 1, "0", None)
    assert golden_diff.column_moves(base, base) == {}


def test_the_commands_are_the_golden_and_readme_ones():
    from test_cli_golden import GOLDEN
    assert golden_diff.golden_commands() == list(GOLDEN)
    readme = golden_diff.readme_commands()
    assert "spectrum --preset fig6 --vd 0,0.1,0.2,0.3" in readme and len(readme) == 8


def test_stderr_moves_at_its_first_differing_line_and_not_for_paths():
    """Equal texts have not moved; one differing line is reported as the
    first differing pair; a difference in each tree's src path alone is
    scrubbed away, as run scrubs it."""
    base = "warning: a\nnumerical failure: X\n"
    assert golden_diff.stderr_move(base, base) is None
    assert golden_diff.stderr_move("", "") is None
    assert golden_diff.stderr_move(base, "warning: a\nnumerical failure: Y\n") == \
        (1, "numerical failure: X", "numerical failure: Y")
    assert golden_diff.stderr_move(base, "warning: a\n") == (1, "numerical failure: X", None)
    warned = "{}/chiralight/doppler.py:9: RuntimeWarning: overflow\n"
    a, b = (golden_diff.scrub(warned.format(f"/t{i}/src"), f"/t{i}/src") for i in (1, 2))
    assert a == "<src>/chiralight/doppler.py:9: RuntimeWarning: overflow\n"
    assert golden_diff.stderr_move(a, b) is None
    assert golden_diff.stderr_move(warned.format("/t1/src"), warned.format("/t2/src"))[0] == 0
