import types

import torelli


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(torelli).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(torelli.__all__) == len(set(torelli.__all__))
    assert set(torelli.__all__) == public


def test_all_names_resolve():
    namespace: dict = {}
    exec("from torelli import *", namespace)
    for name in torelli.__all__:
        assert namespace[name] is getattr(torelli, name)
    assert not any(isinstance(getattr(torelli, name), types.ModuleType)
                   for name in torelli.__all__)
