"""Package surface: the names swarmform exports."""

import swarmform


def test_every_exported_name_resolves():
    assert [name for name in swarmform.__all__ if not hasattr(swarmform, name)] == []
    namespace = {}
    exec("from swarmform import *", namespace)
    assert set(swarmform.__all__) <= set(namespace)
