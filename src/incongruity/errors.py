"""The one exception type for a fault in a user's input."""


class InputError(ValueError):
    """A file, path or option a user gave is at fault; the message names it."""
