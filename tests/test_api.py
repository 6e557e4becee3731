import edgering


def test_all_names_exist():
    missing = [name for name in edgering.__all__ if not hasattr(edgering, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(edgering.__all__) == len(set(edgering.__all__))

