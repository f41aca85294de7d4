"""The package's public names."""

import bartree


def test_every_exported_name_resolves():
    missing = [name for name in bartree.__all__ if not hasattr(bartree, name)]
    assert not missing, f"bartree.__all__ names what the package lacks: {missing}"
    assert len(set(bartree.__all__)) == len(bartree.__all__)
