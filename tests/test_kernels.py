"""The generated march of each package system, pinned by the sha256 of its source.

The marches are compiled from the ``_MARCH`` template with the rhs written out
inline, so a change to the template, to ``_inline`` or to a system's text shows
here as a changed digest.  A deliberate kernel change updates these values.
The bytecode of every march, inlined and called, is checked for dead stores
and for tuples built only to be unpacked.
"""

import dis
import hashlib
import linecache
import re

import pytest

from itmflow.models import AUGMENTED_SYSTEM, SIMILARITY_SYSTEM
from itmflow.ode import _march

DIGESTS = {
    3: "3d145c860efe8c6e60502071250ddc8665da60e932ca7734e137dd5779dc3353",
    6: "25a9ce8ab1677c08275c85cce0127cee1d7e3ecb728ae912c979ca544894d7a5",
}


@pytest.mark.parametrize("system", [SIMILARITY_SYSTEM, AUGMENTED_SYSTEM], ids=["dim3", "dim6"])
def test_march_source_is_pinned(system):
    march = _march(system.dim, system._text)
    source = "".join(linecache.getlines(march.__code__.co_filename))
    assert hashlib.sha256(source.encode()).hexdigest() == DIGESTS[system.dim]


def _instructions(system, inline) -> list:
    return list(dis.get_instructions(_march(system.dim, system._text if inline else None)))


@pytest.mark.parametrize("inline", [True, False], ids=["inlined", "called"])
@pytest.mark.parametrize("system", [SIMILARITY_SYSTEM, AUGMENTED_SYSTEM], ids=["dim3", "dim6"])
def test_every_stored_local_is_loaded(system, inline):
    # Superinstructions (LOAD_FAST_LOAD_FAST, STORE_FAST_LOAD_FAST, ...) name
    # one local per LOAD_FAST or STORE_FAST in their opname, in that order.
    stored, loaded = set(), set()
    for ins in _instructions(system, inline):
        kinds = re.findall(r"(LOAD|STORE)_FAST", ins.opname)
        names = ins.argval if isinstance(ins.argval, tuple) else (ins.argval,)
        for kind, name in zip(kinds, names):
            (loaded if kind == "LOAD" else stored).add(name)
    assert stored - loaded == set()


@pytest.mark.parametrize("inline", [True, False], ids=["inlined", "called"])
def test_more_components_build_no_more_tuples(inline):
    builds = {system.dim: sum(ins.opname == "BUILD_TUPLE" for ins in _instructions(system, inline))
              for system in (SIMILARITY_SYSTEM, AUGMENTED_SYSTEM)}
    assert builds[6] <= builds[3]
