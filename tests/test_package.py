import ngoneq


def test_every_export_resolves_and_the_list_is_sorted_without_duplicates():
    names = ngoneq.__all__
    assert [name for name in names if not hasattr(ngoneq, name)] == []
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_star_import_succeeds():
    namespace = {}
    exec("from ngoneq import *", namespace)
    assert set(ngoneq.__all__) <= set(namespace)
