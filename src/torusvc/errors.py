class GuardExceeded(RuntimeError):
    """An operation refused to run because its size guard was exceeded."""


class NotCertified(RuntimeError):
    """A bound was requested at parameters where it cannot be certified."""


class PostconditionError(RuntimeError):
    """A result failed the check made on it before it was returned: a bug."""
