"""Session-wide test setup."""

import warnings

# Hypothesis imports this module, and through it `libcst` where that is
# installed, while it reports a failing example.  libcst's import warns
# `DeprecationWarning`, which `filterwarnings = ["error"]` would raise
# inside the report hook: the failure would be lost and the session
# ended.  Imported once here, the warning is ignored and the hook's
# import finds the module loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
