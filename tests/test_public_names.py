import genlogic


def test_every_public_name_resolves():
    assert [name for name in genlogic.__all__ if not hasattr(genlogic, name)] == []
    namespace = {}
    exec("from genlogic import *", namespace)
    assert set(genlogic.__all__) <= namespace.keys()
