"""Zone-based multi-robot part delivery: decentralized dynamic zoning,
centralized SA/GA baselines, and a deterministic discrete-event simulator."""

import functools
import operator
import sys

__version__ = "0.1.0"


def logger(name: str):
    """The named `logging` logger, or None while nothing has imported `logging`.

    Only a program that imports `logging` can give it a handler or a level,
    so until one has, every record below WARNING is dropped. The library
    logs only below WARNING, so it asks here rather than making every run,
    logged or not, pay for importing `logging`.
    """
    logging = sys.modules.get("logging")
    return None if logging is None else logging.getLogger(name)


def left_sum(values):
    """The one float sum: terms added from the left, as the built-in sum()
    does only up to CPython 3.11 (from 3.12 on it compensates rounding)."""
    return functools.reduce(operator.add, values, 0)
