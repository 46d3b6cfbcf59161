"""Every name a ``repro`` module lists in ``__all__`` exists.

A name left in ``__all__`` after its import is deleted only fails at
``from module import *`` or at the first caller; this walks the whole
package so a stale export fails here instead.
"""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    walked = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    names = ["repro"] + sorted(info.name for info in walked)
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        absent = [entry for entry in exported if not hasattr(module, entry)]
        if absent:
            missing[name] = absent
    assert len(names) > 50
    assert missing == {}
