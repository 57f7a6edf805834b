"""Import the program under test from a source tree.

Outside a git checkout, ``import repro`` fails: while ``repro/__init__``
imports its subpackages, ``repro.obs.provenance`` computes its code
version, falls back to ``pkg-<version>`` and reads ``repro.__version__``,
which ``__init__`` defines only after those imports.  The benchmark runs
from a plain copy of the tree, so it creates the package module with
``__version__`` already set, as read from ``__init__.py``, and then
executes ``__init__`` in it.  In a git checkout this changes nothing:
provenance takes the git path and ``__init__`` sets the same value.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path


def load_program(src: Path) -> None:
    """Make ``repro`` under *src* importable, in or outside a git checkout."""
    if "repro" in sys.modules:
        return
    init = src / "repro" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "repro", init, submodule_search_locations=[str(init.parent)]
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"no package at {init}")
    version = re.search(r'^__version__ = "([^"]+)"', init.read_text(), re.MULTILINE)
    module = importlib.util.module_from_spec(spec)
    module.__version__ = version.group(1) if version else "unknown"
    sys.path.insert(0, str(src))
    sys.modules["repro"] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules["repro"]
        raise
