import importlib

import pytest


@pytest.mark.parametrize("module", ["fairmon", "fairmon.speclang"])
def test_every_exported_name_imports(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()
