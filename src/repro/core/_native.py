"""Stand-ins for ``benchmarks/e2e/run.py`` and ``layers.py``, which still
record whether a compiled SCC kernel ran.  There is none: ``DynamicSCC``
is pure Python, so both answers are ``False``."""


def native_available():
    """Whether a compiled SCC kernel is importable: never."""
    return False


def native_enabled():
    """Whether a compiled SCC kernel is in use: never."""
    return False
