"""Package surface tests.

Every name a module lists in ``__all__`` must exist, so a deletion that
leaves its ``__all__`` entry behind fails here rather than in a caller.
"""

import importlib
import pkgutil

import pytest

import dtlab

# __main__ runs the command line on import.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(dtlab.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"dtlab.{name}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
