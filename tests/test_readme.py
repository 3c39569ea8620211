"""The README's library quick start runs and prints what its comments say."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The code of the README's library quick start."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs_with_the_values_it_quotes():
    ns = {}
    exec(compile(quick_start(), "README.md", "exec"), ns)
    assert ns["resp"].chi_e.shape == (2001,)
    assert round(ns["pt"].N_g, 1) == 1607.5
    assert ns["pt"].tau * 1e9 == pytest.approx(321.5, abs=0.05)
    assert round(ns["kappa_e"], 6) == 0.875713
    assert ns["n_g"] == pytest.approx(1415.65, rel=1e-9)
    assert ns["fig8ab"].medium.density_coupling == ns["kappa_e"]
