"""The package's export list: every name in ``hydrolora.__all__`` resolves,
none is listed twice, and a star import brings them all in."""

import hydrolora


def test_all_has_no_duplicates():
    assert len(hydrolora.__all__) == len(set(hydrolora.__all__))


def test_every_exported_name_resolves():
    assert [name for name in hydrolora.__all__ if not hasattr(hydrolora, name)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from hydrolora import *", namespace)
    assert set(hydrolora.__all__) <= namespace.keys()
