"""Write the Gauss-Hermite node table that ``chiralight.doppler`` reads.

    python tests/make_hermite_table.py [out.npz]

The default output is ``src/chiralight/gauss_hermite.npz``.  For every
ladder level n = NODE_COUNT * 2^k <= MAX_NODES it stores, from
``scipy.special.roots_hermite(n)``:

- ``x{n}``: the positive nodes whose weight is not 0.0, ascending;
- ``w{n}``: their weights.

Nodes whose weight is 0.0 (from 512 nodes on, where exp(-x^2)
underflows) are left out: the average never evaluates them.

The rule is exactly symmetric at every level (x == -x[::-1] and
w == w[::-1] bit for bit), so the negative half is rebuilt by
mirroring without rounding.  ``test_doppler.py`` checks the committed
table against SciPy bit for bit; rerun this script only when the
ladder constants change.
"""

import sys
from pathlib import Path

import numpy as np
from scipy.special import roots_hermite

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chiralight import doppler  # noqa: E402


def ladder():
    n = doppler.NODE_COUNT
    while n <= doppler.MAX_NODES:
        yield n
        n *= 2


def table():
    out = {}
    for n in ladder():
        x, w = roots_hermite(n)
        if not (np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])):
            raise SystemExit(f"roots_hermite({n}) is not symmetric bit for bit")
        live = np.flatnonzero(w[n // 2:])
        half = slice(n // 2, n // 2 + int(live[-1]) + 1)
        out[f"x{n}"] = x[half]
        out[f"w{n}"] = w[half]
    return out


def main(argv):
    path = Path(argv[0]) if argv else ROOT / "src" / "chiralight" / doppler._TABLE
    np.savez(path, **table())
    print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
