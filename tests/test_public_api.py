"""The package's public surface: hopfion.__all__ is what `from hopfion import *` binds."""

import types

import hopfion


def test_all_is_every_public_name_but_the_submodules():
    # a name derived from dir() once exported the submodules too
    assert len(set(hopfion.__all__)) == len(hopfion.__all__)
    for name in hopfion.__all__:
        assert not isinstance(getattr(hopfion, name), types.ModuleType), name
    public = [name for name in dir(hopfion) if not name.startswith("_")
              and not isinstance(getattr(hopfion, name), types.ModuleType)]
    assert sorted(hopfion.__all__) == public


def test_star_import_binds_all():
    namespace = {}
    exec("from hopfion import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hopfion.__all__)
