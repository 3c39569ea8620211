"""What a command imports, checked in a fresh interpreter per case.

scipy costs about half a second per process, so it loads only on the
first thermal (Gauss-Hermite) average, which needs ``scipy.special``.
The root searches run Brent's method in ``optics`` itself, so no
command loads ``scipy.optimize``.  The test session itself has long
since imported scipy, so each case starts its own ``python -c``
process with ``src`` on ``PYTHONPATH``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_golden import GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"

# imports chiralight, runs cli.main(argv) when argv is given, and names
# the exit code and the loaded scipy submodules on its last stderr line
PROBE = """\
import sys
import chiralight
code = 0
if sys.argv[1:]:
    from chiralight import cli
    code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(code, *(m for m in ("scipy.special", "scipy.optimize")
              if m in sys.modules), file=sys.stderr)
"""


def _fresh(command):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *command.split()],
                          capture_output=True, timeout=300, check=False,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr.decode()
    code, *loaded = proc.stderr.decode().splitlines()[-1].split()
    # the root searches run Brent's method without scipy.optimize
    assert "scipy.optimize" not in loaded
    return int(code), proc.stdout, set(loaded)


@pytest.mark.parametrize("command, expected", [
    ("", set()),
    ("spectrum --preset fig2a --grid -1:1:5", set()),
    ("pulse --preset fig8ab", set()),
    ("pulse --preset fig2a", set()),
    ("preset-dump fig8", set()),
    ("delay --preset fig7 --omega3 1,2 --mode both", {"scipy.special"}),
], ids=["import", "cold-spectrum", "pulse-quoted", "pulse-computed",
        "preset-dump", "hot-delay"])
def test_command_loads_only_the_scipy_it_uses(command, expected):
    code, _, loaded = _fresh(command)
    assert code == 0
    assert loaded == expected


@pytest.mark.parametrize("command, expected", [
    ("pulse --preset fig8ab --vacuum", set()),
    ("spectrum --preset fig4a --mode hot --grid -1:1:5", {"scipy.special"}),
    ("calibrate --preset fig8ab --target 1415.65", set()),
    ("calibrate --preset fig8ab --target 1618.15 --mode hot --quantity n_0",
     {"scipy.special"}),
    ("crossover --preset fig7", {"scipy.special"}),
], ids=["pulse-vacuum", "hot-spectrum", "calibrate", "hot-calibrate",
        "crossover"])
def test_import_on_first_use_keeps_the_golden_bytes(command, expected):
    # pulse --vacuum stands for the cold commands, which load no scipy
    code, out, loaded = _fresh(command)
    assert code == 0
    assert loaded == expected
    assert hashlib.sha256(out).hexdigest() == GOLDEN[command]
