"""Every name a ``repro`` package lists in ``__all__`` resolves on it.

A stale string left in an ``__all__`` otherwise fails only on
``from package import *``.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def test_every_all_name_resolves():
    listed = 0
    missing = []
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            listed += 1
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert listed > 0
    assert missing == []
