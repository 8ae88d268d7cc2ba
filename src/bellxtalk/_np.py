"""numpy, imported on the first ``np.<name>`` access and kept by name (PEP 562).

Every package module does ``from . import _np as np``, so importing one loads no numpy.
"""


def __getattr__(name: str):
    if name.startswith("__") and name.endswith("__"):  # probes such as __wrapped__ load nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
