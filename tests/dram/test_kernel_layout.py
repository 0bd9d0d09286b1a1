"""Static checks of the scheduler layer, read from the source text.

* ``repro.dram.kernel`` is the only library module that builds a
  :class:`~repro.dram.engine.SchedulingEngine`: every other route goes
  through the kernel's front door.
* The Python slot constants of :mod:`repro.dram._kernelc` match the C
  enums of its ``SOURCE``, position for position.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.dram import _kernelc

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_only_the_kernel_builds_the_general_engine():
    """Calls of ``SchedulingEngine`` or ``<module>.SchedulingEngine``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        getattr(func, "attr", None))
                if name == "SchedulingEngine":
                    lines.append(node.lineno)
        if lines:
            found[path.relative_to(SRC).as_posix()] = lines
    assert list(found) == ["dram/kernel.py"], found


def _c_enums():
    """The ``enum { ... };`` blocks of ``SOURCE``: a list of
    ``[(name, value), ...]``, values as C assigns them."""
    enums = []
    for body in re.findall(r"enum\s*\{([^}]*)\}\s*;", _kernelc.SOURCE):
        members, value = [], -1
        for item in body.split(","):
            name, _, explicit = item.partition("=")
            value = int(explicit) if explicit.strip() else value + 1
            members.append((name.strip(), value))
        enums.append(members)
    return enums


ENUM_PREFIXES = ("S_", "C_", "EXIT_", "REC_")


def test_source_holds_the_four_slot_enums():
    prefixes = [members[0][0].split("_")[0] + "_" for members in _c_enums()]
    assert prefixes == list(ENUM_PREFIXES)


@pytest.mark.parametrize("index", range(len(ENUM_PREFIXES)),
                         ids=ENUM_PREFIXES)
def test_python_constants_match_the_c_enum(index):
    members = _c_enums()[index]
    prefix = ENUM_PREFIXES[index]
    for position, (name, value) in enumerate(members):
        assert name.startswith(prefix), name
        assert value == position, f"{name} = {value} in C"
        assert getattr(_kernelc, name) == position, name


def test_slot_counts_match_the_c_enums():
    enums = _c_enums()
    assert _kernelc.N_SCALARS == len(enums[0])
    assert _kernelc.N_CFG == len(enums[1])
