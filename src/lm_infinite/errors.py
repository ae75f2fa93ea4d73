"""Shared exception taxonomy.

ValueError covers plain invalid arguments; the classes here mark failure
modes callers may want to catch specifically.
"""

from __future__ import annotations


class NanDetectedError(RuntimeError):
    """A NaN or +-inf appeared in an attention input or a forward
    activation.

    The message names the first offending row (and layer, when raised from
    the model) so length-induced blowups can be localized. It says "NaN"
    for an infinity too.
    """


class CacheStateError(RuntimeError):
    """A KV-cache operation was called out of protocol order."""


class CorpusFormatError(ValueError):
    """A corpus failed to parse or to train on; message carries the location."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite; message carries the step index."""
