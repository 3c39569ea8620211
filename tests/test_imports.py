"""What a command imports, checked in a fresh interpreter per case.

The package runs on numpy alone: no command loads any ``scipy*``
module.  The thermal (Gauss-Hermite) average reads its nodes from the
table shipped in the package, and the root searches run Brent's method
in ``optics`` itself.  SciPy would cost ~0.3 s and ~17-25 MB per hot
process.  The test session itself has long since imported scipy, so
each case starts its own ``python -c`` process with ``src`` on
``PYTHONPATH``; the hot commands also run once with ``import scipy``
made to fail.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chiralight
from test_cli_golden import GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"

# imports chiralight, runs cli.main(argv) when argv is given, and names
# the exit code and every loaded module whose name starts with "scipy"
# on its last stderr line
PROBE = """\
import sys
import chiralight
code = 0
if sys.argv[1:]:
    from chiralight import cli
    code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(code, *sorted(m for m in sys.modules if m.startswith("scipy")),
      file=sys.stderr)
"""

# put first on sys.meta_path, makes every import of scipy raise ImportError
NO_SCIPY = """\
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def _fresh(command, prelude=""):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", prelude + PROBE, *command.split()],
                          capture_output=True, timeout=300, check=False,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr.decode()
    code, *loaded = proc.stderr.decode().splitlines()[-1].split()
    return int(code), proc.stdout, set(loaded)


@pytest.mark.parametrize("command", [
    "",
    "spectrum --preset fig2a --grid -1:1:5",
    "pulse --preset fig8ab",
    "pulse --preset fig2a",
    "preset-dump fig8",
    "delay --preset fig7 --omega3 1,2 --mode both",
], ids=["import", "cold-spectrum", "pulse-quoted", "pulse-computed",
        "preset-dump", "hot-delay"])
def test_command_loads_only_the_scipy_it_uses(command):
    code, _, loaded = _fresh(command)
    assert code == 0
    assert loaded == set()


@pytest.mark.parametrize("command", [
    "pulse --preset fig8ab --vacuum",
    "spectrum --preset fig4a --mode hot --grid -1:1:5",
    "calibrate --preset fig8ab --target 1415.65",
    "calibrate --preset fig8ab --target 1618.15 --mode hot --quantity n_0",
    "crossover --preset fig7",
], ids=["pulse-vacuum", "hot-spectrum", "calibrate", "hot-calibrate",
        "crossover"])
def test_import_on_first_use_keeps_the_golden_bytes(command):
    code, out, loaded = _fresh(command)
    assert code == 0
    assert loaded == set()
    assert hashlib.sha256(out).hexdigest() == GOLDEN[command]


def test_scipy_blocker_makes_import_scipy_fail():
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY + "import scipy.special"],
                          capture_output=True, timeout=60, check=False)
    assert proc.returncode == 1
    assert b"ImportError: scipy is blocked" in proc.stderr


@pytest.mark.parametrize("command", [
    "spectrum --preset fig4a --mode hot --grid -1:1:5",
    "calibrate --preset fig8ab --target 1618.15 --mode hot --quantity n_0",
    "crossover --preset fig7",
    "delay --preset fig7 --omega3 0.7,1,1.5,5 --mode both",
], ids=["hot-spectrum", "hot-calibrate", "crossover", "hot-delay"])
def test_hot_commands_run_with_scipy_unimportable(command):
    code, out, loaded = _fresh(command, prelude=NO_SCIPY)
    assert code == 0
    assert loaded == set()
    assert hashlib.sha256(out).hexdigest() == GOLDEN[command]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from chiralight import *", namespace)  # AttributeError on a stale name
    assert set(chiralight.__all__) <= namespace.keys()
