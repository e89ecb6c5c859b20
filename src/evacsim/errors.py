"""Shared exception hierarchy.

Two families matter to callers: bad input (CLI exit code 1) and broken
internal invariants (CLI exit code 2).
"""


class InputError(Exception):
    """The user gave us something unusable: bad file, bad flag, bad value."""


class InternalError(Exception):
    """An invariant the simulator guarantees was violated. Always a bug."""
