"""Shared test set-up.

hypothesis imports hypothesis.extra._patching (and with it libcst, where
installed) only when it reports a failing example, inside a pytest hook.
Under ``-W error`` a DeprecationWarning raised by that import then aborts the
whole session with INTERNALERROR instead of reporting the example.
Importing it here first, with DeprecationWarning ignored, keeps the report.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
