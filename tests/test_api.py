"""The public import surface: every exported name resolves."""

import importlib

import pytest

import hjreduce

MODULES = ["expr", "phase_space", "symmetry", "reduction", "hj",
           "reconstruction", "integrators", "cli"]


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = hjreduce if module is None else importlib.import_module(
        f"hjreduce.{module}")
    assert mod.__all__, "no public names"
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate names"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_two_forms_live_in_hj():
    from hjreduce import hj, reduction
    assert reduction.TwoForm is hj.TwoForm
    assert reduction.exterior_derivative is hj.exterior_derivative
    assert (reduction.magnetic_lagrangian_residual
            is hj.magnetic_lagrangian_residual)
    assert hjreduce.TwoForm is hj.TwoForm
