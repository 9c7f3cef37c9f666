"""Package surface: every exported name resolves."""
import topoprobe


def test_all_names_resolve():
    missing = [name for name in topoprobe.__all__ if not hasattr(topoprobe, name)]
    assert missing == []
    assert len(set(topoprobe.__all__)) == len(topoprobe.__all__)
