"""What a command imports, checked in a fresh interpreter per case.

The front end runs without numpy: ``import chiralight``, building the
CLI parser, ``--help``, ``preset-dump`` and every configuration error
load no ``numpy*`` module, which is about half of a command's start-up
time.  A command builds every config and pulse spec it runs before
numpy loads, so a bad pulse width or a bad member of a --vd or
--omega3 series is named without it.  The one exception is a root
search's --tol and first bracket end, checked as the search starts.
Only the commands that compute load numpy and the numerical layers,
and they print the golden bytes.

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
# the exit code (argparse's too) and every loaded module whose name
# starts with "scipy" or "numpy" on its last stderr line
PROBE = """\
import sys
import chiralight
code = 0
if sys.argv[1:]:
    from chiralight import cli
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
sys.stdout.flush()
print(code, *sorted(m for m in sys.modules if m.startswith(("scipy", "numpy"))),
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
    *err, last = proc.stderr.decode().splitlines(keepends=True)
    code, *loaded = last.split()
    return int(code), proc.stdout, set(loaded), "".join(err)


def _scipy(loaded):
    return {m for m in loaded if m.startswith("scipy")}


def _numpy(loaded):
    return {m for m in loaded if m.startswith("numpy")}


# the full stderr of the configuration errors a command names while it
# builds its configs and pulse spec
BUILD_ERRORS = {
    "pulse --preset fig8ab --tau0 -1":
        "configuration error: BadPulseSpec: invalid pulse: tau_0 must be finite "
        "and > 0, got -1e-09\n",
    "pulse --preset fig8ab --delta inf":
        "configuration error: BadPulseSpec: invalid pulse: delta must be finite, "
        "got inf\n",
    "spectrum --preset fig2a --vd -1":
        "configuration error: ConfigurationError: invalid configuration: v_doppler "
        "must be finite and >= 0, got -1.0\n"
        "  - NegativeDopplerWidth: v_doppler must be finite and >= 0, got -1.0\n",
    "spectrum --preset fig6 --vd 0.3,-0.1 --grid -1:1:41":
        "configuration error: ConfigurationError: invalid configuration: v_doppler "
        "must be finite and >= 0, got -0.1\n"
        "  - NegativeDopplerWidth: v_doppler must be finite and >= 0, got -0.1\n",
    "spectrum --preset fig2a --vd 0.1,-0.1 --grid -1:1:41":
        "configuration error: ConfigurationError: invalid configuration: v_doppler "
        "must be finite and >= 0, got -0.1\n"
        "  - NegativeDopplerWidth: v_doppler must be finite and >= 0, got -0.1\n",
    "delay --preset fig7 --omega3 -1":
        "configuration error: ConfigurationError: invalid configuration: omega_3 "
        "must be finite and >= 0, got -1.0\n"
        "  - NonPositiveCoupling: omega_3 must be finite and >= 0, got -1.0\n",
}


@pytest.mark.parametrize("command, prelude, expected", [
    ("", "", 0),
    ("", "import chiralight.cli\nchiralight.cli.build_parser()\n", 0),
    ("", "import chiralight\nchiralight.PulseSpec\n", 0),
    ("--help", "", 0),
    ("preset-dump fig8", "", 0),
    ("preset-dump", "", 0),
    ("spectrum --preset nosuch", "", 2),
    ("spectrum --preset fig2a --grid 1:2", "", 2),
    ("spectrum --config {config}", "", 2),
    *((command, "", 2) for command in BUILD_ERRORS),
], ids=["import", "build-parser", "pulse-spec", "help", "preset-dump-fig8",
        "preset-dump-all", "unknown-preset", "bad-grid", "unknown-config-key",
        "bad-tau0", "bad-delta", "bad-vd", "bad-second-vd", "bad-second-cold-vd",
        "bad-omega3"])
def test_front_end_loads_no_numpy(tmp_path, command, prelude, expected):
    config = tmp_path / "unknown-key.json"
    config.write_text('{"system": {"omega_4": 1.0}}')
    code, _, loaded, err = _fresh(command.format(config=config), prelude)
    assert code == expected
    assert loaded == set()
    if command in BUILD_ERRORS:
        assert err == BUILD_ERRORS[command]


@pytest.mark.parametrize("command, error", [
    ("crossover --preset fig7 --tol 0", "NonPositiveTolerance"),
    ("calibrate --preset fig8ab --target 1415 --bracket -1:10", "NonPositiveCoupling"),
], ids=["crossover-tol", "calibrate-bracket"])
def test_root_search_checks_its_start_after_the_numerical_import(command, error):
    """The stated exception: a root search checks its --tol and first
    bracket end as it starts, with numpy loaded but nothing computed."""
    code, out, loaded, err = _fresh(command)
    assert code == 2
    assert out == b""
    assert err.startswith("configuration error: ") and f"{error}: " in err
    assert _numpy(loaded)


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
    code, _, loaded, _ = _fresh(command)
    assert code == 0
    assert _scipy(loaded) == set()


NAMED = {
    "pulse --preset fig8ab --vacuum": "pulse-vacuum",
    "spectrum --preset fig4a --mode hot --grid -1:1:5": "hot-spectrum",
    "calibrate --preset fig8ab --target 1415.65": "calibrate",
    "calibrate --preset fig8ab --target 1618.15 --mode hot --quantity n_0": "hot-calibrate",
    "crossover --preset fig7": "crossover",
}


@pytest.mark.parametrize("command", list(GOLDEN), ids=lambda c: NAMED.get(c, c))
def test_import_on_first_use_keeps_the_golden_bytes(command):
    """Every golden command in a fresh interpreter: the same bytes, and
    numpy loaded exactly by the commands that compute."""
    code, out, loaded, _ = _fresh(command)
    assert code == 0
    assert _scipy(loaded) == set()
    assert bool(_numpy(loaded)) != command.startswith("preset-dump")
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
    code, out, loaded, _ = _fresh(command, prelude=NO_SCIPY)
    assert code == 0
    assert _scipy(loaded) == set()
    assert hashlib.sha256(out).hexdigest() == GOLDEN[command]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from chiralight import *", namespace)  # AttributeError on a stale name
    assert set(chiralight.__all__) <= namespace.keys()
    assert set(chiralight.__all__) <= set(dir(chiralight))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        chiralight.no_such_name  # noqa: B018
    assert chiralight.cli.__name__ == "chiralight.cli"  # submodules still import
