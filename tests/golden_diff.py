"""Report, cell by cell, how two source trees' CLI outputs differ.

A golden digest (``tests/test_cli_golden.py``) shows only that a
command's stdout moved, not where or by how much.  This script runs the
20 ``GOLDEN`` commands, the README's command-line block and any extra
commands given on both trees, each in a fresh interpreter with that
tree's ``src`` on ``PYTHONPATH``, parses every stdout into columns (CSV
with a header row, or JSON: a list of records or one nested object,
flattened to dotted paths) and prints, per command and column, the
number of moved cells, the largest move at the column's scale and the
first moved row, and whether stderr moved:

    python tests/golden_diff.py BASE_SRC NEW_SRC ["COMMAND" ...]

e.g. ``python tests/golden_diff.py ../parent/src src "spectrum --preset
fig8ab --mode hot"``.  A cell moved when its printed text differs.  The
column's scale is the largest finite |value| the column prints on
either side (1 where that is 0), and a move is |new - base| / scale; a
cell that is not a finite number on both sides, or that one side lacks,
moves by inf.  stderr is compared line by line, with each tree's ``src``
path replaced by ``<src>`` first (a warning names its file); a command
whose stderr differs counts as one move, and the report prints its
first differing pair of lines.  The exit status is 1 when any cell, exit
code or stderr moved, else 0.  It is a script, not a test;
``tests/test_golden_diff.py`` checks its parser, its scale rule and its
stderr comparison.
"""

import ast
import csv
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = "import sys; from chiralight.cli import main; sys.exit(main(sys.argv[1:]))"


def golden_commands():
    """The keys of GOLDEN in tests/test_cli_golden.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GOLDEN"]:
            return list(ast.literal_eval(node.value))
    raise LookupError("no GOLDEN in tests/test_cli_golden.py")


def readme_commands():
    """The commands of the README's ``## Command line`` sh block."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].split() for line in block.splitlines())
    return [" ".join(words[1:]) for words in lines if words[:1] == ["chiralight"]]


def scrub(text, src):
    """text with the resolved path of src replaced by <src>."""
    return text.replace(str(Path(src).resolve()), "<src>")


def run(src, command):
    """(exit code, stdout, scrubbed stderr) of one command on the tree whose
    package is in src."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, "-c", RUN, *shlex.split(command)],
                          env=env, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, scrub(done.stderr, src)


def stderr_move(base, new):
    """None when two stderr texts agree, else (line, base line, new line)
    of the first differing pair; a line that one side lacks is None."""
    pairs = itertools.zip_longest(base.splitlines(), new.splitlines())
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


def _flatten(value, prefix, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}.{i}" if prefix else str(i), out)
    else:
        out[prefix or "value"] = json.dumps(value)
    return out


def parse(text):
    """{column: [cell text per row]} of a CSV or JSON stdout."""
    if text.lstrip()[:1] in ("[", "{"):
        data = json.loads(text)
        records = data if isinstance(data, list) and all(isinstance(r, dict) for r in data) \
            else [data]
        rows = [_flatten(r, "", {}) for r in records]
    else:
        reader = csv.reader(io.StringIO(text))
        header = next(reader, [])
        rows = [dict(zip(header, r)) for r in reader]
    columns = {}
    for i, row in enumerate(rows):
        for key, cell in row.items():
            columns.setdefault(key, [None] * len(rows))[i] = cell
    return columns


def _number(cell):
    try:
        x = float(cell)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def column_moves(base, new):
    """{column: (moved cells, largest move at the column's scale, first
    moved row, base cell, new cell)} for the columns with a moved cell."""
    report = {}
    for key in list(base) + [k for k in new if k not in base]:
        old_cells, new_cells = base.get(key, []), new.get(key, [])
        rows = max(len(old_cells), len(new_cells))
        old_cells = old_cells + [None] * (rows - len(old_cells))
        new_cells = new_cells + [None] * (rows - len(new_cells))
        values = [abs(x) for x in map(_number, old_cells + new_cells) if x is not None]
        scale = max(values, default=0.0) or 1.0
        moved = [(i, a, b) for i, (a, b) in enumerate(zip(old_cells, new_cells)) if a != b]
        if not moved:
            continue
        largest = 0.0
        for _, a, b in moved:
            x, y = _number(a), _number(b)
            largest = max(largest, math.inf if x is None or y is None else abs(y - x) / scale)
        report[key] = (len(moved), largest) + moved[0]
    return report


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    base_src, new_src, *extra = argv
    commands = list(dict.fromkeys(golden_commands() + readme_commands() + extra))
    total = 0
    for command in commands:
        (base_code, base_out, base_err), (new_code, new_out, new_err) = \
            run(base_src, command), run(new_src, command)
        base, new = parse(base_out), parse(new_out)
        moves = column_moves(base, new)
        cells = sum(m[0] for m in moves.values())
        err = stderr_move(base_err, new_err)
        total += cells + (base_code != new_code) + (err is not None)
        print(f"{command}: {cells} of {sum(map(len, base.values()))} cells moved, "
              f"exit {base_code} -> {new_code}, stderr {'moved' if err else 'same'}")
        for key, (count, largest, row, a, b) in moves.items():
            print(f"  {key}: {count} moved, largest {largest:.3g} of scale, "
                  f"first at row {row}: {a} -> {b}")
        if err:
            print(f"  stderr: first differs at line {err[0]}: {err[1]!r} -> {err[2]!r}")
    print(f"{len(commands)} commands, {total} moved cells, exit codes or stderr")
    return int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
