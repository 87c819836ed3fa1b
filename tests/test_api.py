import importlib
import inspect

import pytest

MODULES = ["applications", "curves", "dist", "fit", "intervals", "simlab"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    """Every top-level public function or class a module defines is in its
    ``__all__``, and every name in ``__all__`` exists."""
    module = importlib.import_module(f"tolpred.{name}")
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined - set(module.__all__) == set()
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
