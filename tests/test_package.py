"""The package namespace re-exports each layer's public names once."""

import cauchydual
from cauchydual import cdsp, cpoly, debranges, dirichlet, errors, measure, report

LAYERS = (cdsp, cpoly, debranges, dirichlet, errors, measure, report)


def test_package_exports_each_layer_name_once():
    names = cauchydual.__all__
    assert len(names) == len(set(names))
    assert names == [name for layer in LAYERS for name in layer.__all__]
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(cauchydual, name) is getattr(layer, name), name
