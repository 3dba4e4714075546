"""The public surface: every exported name resolves, and the model
functions take no option that selects a formula variant. The variants live
in tests/literal_forms.py as counter-examples."""

import importlib
import inspect
import pkgutil

import pytest

import lobdiff

MODULES = ["lobdiff"] + [
    "lobdiff." + m.name for m in pkgutil.iter_modules(lobdiff.__path__)
]

REMOVED_OPTIONS = {"form", "u_variant", "inner_sine", "variant", "alignment", "beta"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize(
    "func",
    [
        "analytics.prob_up",
        "analytics.cone_geometry",
        "analytics.duration_survival",
        "analytics.duration_survival_drifted",
        "analytics.agent_model_params",
        "estimation.estimate_rho",
        "diffusion.first_hits",
    ],
)
def test_model_functions_take_no_variant_options(func):
    module, name = func.split(".")
    fn = getattr(importlib.import_module("lobdiff." + module), name)
    assert not REMOVED_OPTIONS & set(inspect.signature(fn).parameters)


def test_first_hit_wrapper_is_gone():
    assert "first_hit" not in lobdiff.__all__
    assert not hasattr(importlib.import_module("lobdiff.diffusion"), "first_hit")
