import lindbladsim


def test_star_import_resolves_every_exported_name():
    # a name in __all__ that the package does not bind makes the import raise
    namespace = {}
    exec("from lindbladsim import *", namespace)
    assert set(lindbladsim.__all__) <= namespace.keys()
    assert len(set(lindbladsim.__all__)) == len(lindbladsim.__all__)
