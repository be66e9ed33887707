"""What the prose names exists.

Docstrings point at classes and functions with Sphinx roles, and
ARCHITECTURE.md and the docstrings name source files by their path under
``src/repro``.  A module that is folded into another, or a class that
moves, leaves those names behind; these checks find them.
"""

import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SOURCES = sorted(PACKAGE.rglob("*.py"))

#: ``:class:`~repro.core.cbcast.CausalReceiver``` and its kin; a target
#: may be broken over two docstring lines.
ROLE = re.compile(
    r":(?:class|meth|func|mod|attr|data|exc|obj):`~?(repro\.[^`]+)`")


def _resolve(target):
    """Import the longest module prefix of ``target`` and look up the
    rest as attributes; the object, or raise."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            found = getattr(found, name)
        return found
    raise ModuleNotFoundError(target)


def test_docstring_roles_resolve():
    targets = {}
    for path in SOURCES:
        for match in ROLE.finditer(path.read_text()):
            target = re.sub(r"\s+", "", match.group(1))
            targets.setdefault(target, path.relative_to(ROOT))
    assert len(targets) > 30
    broken = []
    for target, where in sorted(targets.items()):
        try:
            _resolve(target)
        except (ImportError, AttributeError) as err:
            broken.append(f"{where}: {target} ({err})")
    assert not broken, "\n".join(broken)


def test_named_source_paths_exist():
    """``core/cbcast.py``, ``repro/msg/wire.py``, ``src/repro/net/lan.py``:
    any path into one of the package's subpackages."""
    subpackages = sorted(path.parent.name
                         for path in PACKAGE.glob("*/__init__.py"))
    named = re.compile(r"(?<![\w./])(?:src/)?(?:repro/)?((?:%s)/\w+\.py)\b"
                       % "|".join(subpackages))
    seen, missing = 0, []
    for path in [ROOT / "ARCHITECTURE.md"] + SOURCES:
        for match in named.finditer(path.read_text()):
            seen += 1
            if not (PACKAGE / match.group(1)).is_file():
                missing.append(f"{path.relative_to(ROOT)}: {match.group(0)}")
    assert seen > 50
    assert not missing, "\n".join(missing)


def test_traced_entry_points_resolve():
    """``bench/trace.py`` wraps each layer's entry points by name,
    through ``vars(owner)[name]``: a method moved to another class, or
    left only inherited, must fail here and not first in a traced
    benchmark run."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from bench.trace import _entry_points

    points = _entry_points()
    assert len(points) > 20
    missing = [f"{layer}: {getattr(owner, '__name__', owner)}.{name}"
               for layer, owner, name in points if name not in vars(owner)]
    assert not missing, "\n".join(missing)
