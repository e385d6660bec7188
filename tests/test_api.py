import importlib

import pytest

MODULES = ["sym3", "kernels", "cloud", "reflections", "effective", "fields", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"refstokes.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
