import os
import sys

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
