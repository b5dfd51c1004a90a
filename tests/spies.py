"""Test doubles that watch a module's numpy calls without changing them."""

import numpy as np


class ArgmaxSpy:
    """Stands in for a module's ``np``, keeping a copy of what ``argmax`` was given.

    Install with ``monkeypatch.setattr(module, "np", ArgmaxSpy())``: every
    other attribute is numpy's own, so the module computes what it always does.
    """

    def __init__(self):
        self.seen = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argmax(self, a, axis=None):
        self.seen.append(np.array(a))
        return np.argmax(a, axis=axis)


class CallSpy:
    """Stands in for a module's ``np``, counting the calls of numpy's function ``name``.

    Install as ArgmaxSpy is; every call still runs numpy's own function.
    """

    def __init__(self, name: str):
        self.name, self.calls = name, 0

    def __getattr__(self, attr):
        found = getattr(np, attr)
        if attr != self.name:
            return found

        def counted(*args, **kwargs):
            self.calls += 1
            return found(*args, **kwargs)
        return counted
