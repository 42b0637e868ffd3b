import builtins
import os
import sys

import pytest

from hjreduce import expr

sys.path.insert(0, os.path.dirname(__file__))

# Hypothesis also draws examples from constants it collects in the source
# of the loaded local modules, so editing an unrelated constant, or
# loading another test module first, would change what a derandomized
# test checks.  That pool is emptied for the session; a hypothesis
# without this internal keeps its own behaviour.
try:
    from hypothesis.internal.conjecture import providers as _providers
    from hypothesis.internal.constants_ast import Constants as _Constants
except ImportError:
    _providers = None
if callable(getattr(_providers, "_get_local_constants", None)):
    _NO_CONSTANTS = _Constants()
    _providers._get_local_constants = lambda: _NO_CONSTANTS


@pytest.fixture
def counted_compiles(monkeypatch):
    """An empty code cache and the file name of every ``builtins.compile``
    call from now on, so a test counts its compiles whatever earlier tests
    compiled."""
    monkeypatch.setattr(expr, "_CODE_CACHE", {})
    made = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        made.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return made
