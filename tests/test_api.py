"""The public surface: every exported name resolves, removed ones stay gone."""

import pytest

import cmrf
from cmrf import cli, diffusion, errors, independence, model, simplicial


@pytest.mark.parametrize("module", [simplicial, model, independence, diffusion, cli],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"
        if module is not cli:
            assert getattr(cmrf, name) is getattr(module, name)


@pytest.mark.parametrize("module, name", [
    (diffusion, "MeasurementModel"),
    (diffusion, "generate_round"),
    (diffusion, "local_loss_terms"),
    (diffusion, "local_gradient"),
    (diffusion, "atc_round"),
    (errors, "MissingNeighborData"),
    (errors, "MissingNeighborResidual"),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(cmrf, name)
