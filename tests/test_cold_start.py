"""fitt's import generates and compiles no code: importing fitt or its CLI
loads neither dataclasses nor inspect, which together cost more start-up than
fitt's own modules.  The check runs in a fresh interpreter started with -S,
and a module the bare interpreter had loaded already does not count, since
some Python installs load inspect from a .pth file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GUARDED = ("dataclasses", "inspect")

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
loaded = {"bare": sorted(sys.modules)}
import fitt
loaded["fitt"] = sorted(sys.modules)
import fitt.cli
loaded["fitt.cli"] = sorted(sys.modules)
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded():
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, str(SRC)], capture_output=True, check=True, text=True
    ).stdout
    return {stage: set(names) for stage, names in json.loads(out).items()}


@pytest.mark.parametrize("stage", ["fitt", "fitt.cli"])
def test_import_loads_no_code_generator(loaded, stage):
    assert "fitt.polyring" in loaded[stage] and ("fitt.cli" in loaded[stage]) == (stage == "fitt.cli")
    new = [name for name in GUARDED if name in loaded[stage] - loaded["bare"]]
    assert new == [], f"import {stage} loads {new}"
