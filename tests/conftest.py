import sys
from pathlib import Path

import pytest

from commvar import homs
from commvar.documents import parse_document, to_commuting_tuple

# make oracles.py importable regardless of how pytest resolves test paths
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def equal_f2_dimensions(monkeypatch):
    """Make ``is_isomorphic`` reach the certificate grid on the F_2 pair of
    golden/f2_grid_{s,t}.json by reporting dim Hom(t, s) = 3 for it, so
    that all four of its Hom dimensions are 3.  The real dim Hom(t, s) is 4
    and decides the pair before the grid, and no non-isomorphic pair with
    four equal dimensions is known."""
    golden = Path(__file__).resolve().parent / "golden"
    s, t = (to_commuting_tuple(parse_document((golden / f"f2_grid_{x}.json").read_text()))
            for x in "st")
    real = homs.hom_dim
    monkeypatch.setattr(homs, "hom_dim", lambda a, b: 3 if (a, b) == (t, s) else real(a, b))
