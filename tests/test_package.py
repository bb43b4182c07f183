"""The package's public surface."""

import dcgridlab


def test_every_public_name_resolves():
    missing = [name for name in dcgridlab.__all__ if not hasattr(dcgridlab, name)]
    assert missing == []
    assert len(set(dcgridlab.__all__)) == len(dcgridlab.__all__)
