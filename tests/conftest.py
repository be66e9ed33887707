"""Test-suite wiring: the reference implementations and fakes under
``tests/properties/`` are importable from every test module."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent / "properties"))
