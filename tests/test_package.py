"""The package's public names: every name in rsdel.__all__ resolves on the
package, none is listed twice, and `from rsdel import *` runs, so a removed
import whose __all__ entry stayed behind fails here."""

import rsdel


def test_all_names_resolve_once():
    assert len(set(rsdel.__all__)) == len(rsdel.__all__)
    missing = [name for name in rsdel.__all__ if not hasattr(rsdel, name)]
    assert not missing


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rsdel import *", namespace)
    assert set(rsdel.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(rsdel, name) for name in rsdel.__all__)
