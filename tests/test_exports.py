import edgemle as e


def test_every_exported_name_resolves_once():
    assert len(e.__all__) == len(set(e.__all__))
    missing = [name for name in e.__all__ if not hasattr(e, name)]
    assert missing == []
