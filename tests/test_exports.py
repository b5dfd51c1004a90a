import kernelcast


def test_every_exported_name_resolves():
    assert len(set(kernelcast.__all__)) == len(kernelcast.__all__)
    assert [name for name in kernelcast.__all__ if not hasattr(kernelcast, name)] == []
