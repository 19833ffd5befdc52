import hlslab


def test_all_names_resolve():
    assert len(set(hlslab.__all__)) == len(hlslab.__all__)
    assert all(hasattr(hlslab, name) for name in hlslab.__all__)
    namespace = {}
    exec("from hlslab import *", namespace)
    assert set(hlslab.__all__) <= set(namespace)
