"""The package namespace."""

import ostromech as om
from ostromech import (dynamics, errors, expressions, legendre, systems,
                       unified, variational)

MODULES = (errors, expressions, systems, legendre, unified, dynamics,
           variational)


def test_package_exports_exactly_each_module_all():
    names = {name for module in MODULES for name in module.__all__}
    submodules = {module.__name__.rpartition(".")[2] for module in MODULES}
    assert set(om.__all__) == names | submodules
    assert all(getattr(om, name) is getattr(module, name)
               for module in MODULES for name in module.__all__)
