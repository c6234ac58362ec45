"""The generated march of each package system, pinned by the sha256 of its source.

The marches are compiled from the ``_MARCH`` template with the rhs written out
inline, so a change to the template, to ``_inline`` or to a system's text shows
here as a changed digest.  A deliberate kernel change updates these values.
"""

import hashlib
import linecache

import pytest

from itmflow.models import AUGMENTED_SYSTEM, SIMILARITY_SYSTEM
from itmflow.ode import _march

DIGESTS = {
    3: "0efc348c346625cc692dc6c2f689b66f9cf9bceee2ed4c6d928493b1485b5f47",
    6: "582694043d086662c30eb605c44a291125ce0d66a5dfb1e4389323ca00809506",
}


@pytest.mark.parametrize("system", [SIMILARITY_SYSTEM, AUGMENTED_SYSTEM], ids=["dim3", "dim6"])
def test_march_source_is_pinned(system):
    march = _march(system.dim, system._text)
    source = "".join(linecache.getlines(march.__code__.co_filename))
    assert hashlib.sha256(source.encode()).hexdigest() == DIGESTS[system.dim]
