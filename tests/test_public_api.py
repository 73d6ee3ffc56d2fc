import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairmon


@pytest.mark.parametrize("module", ["fairmon", "fairmon.speclang"])
def test_every_exported_name_imports(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()


def test_runtime_does_not_import_scipy():
    # scipy is a test-only reference; a fresh interpreter shows what the
    # package itself loads
    src = str(Path(fairmon.__file__).resolve().parents[1])
    code = ("import sys, fairmon.cli, fairmon.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert result.stdout.strip() == "[]"
