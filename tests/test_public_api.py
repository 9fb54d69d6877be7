import qbattery


def test_every_exported_name_resolves_once():
    assert len(qbattery.__all__) == len(set(qbattery.__all__))
    missing = [name for name in qbattery.__all__ if not hasattr(qbattery, name)]
    assert missing == []
