import memplan


def test_every_exported_name_resolves_once():
    assert len(set(memplan.__all__)) == len(memplan.__all__)
    assert [name for name in memplan.__all__
            if not hasattr(memplan, name)] == []
