"""Counting calls of the congruence kernel, for tests that pin how many
reductions an operation does."""

import sys

from hermsig import quadforms


def count_diagonalize(monkeypatch) -> list:
    """The Grams passed to quadforms.diagonalize, in call order, at every
    module that binds it."""
    original = quadforms.diagonalize
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hermsig" and \
                getattr(module, "diagonalize", None) is original:
            monkeypatch.setattr(module, "diagonalize", counted)
    return calls
