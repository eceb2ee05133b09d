class GuardExceeded(RuntimeError):
    """An operation refused to run because its size guard was exceeded."""


class NotCertified(RuntimeError):
    """A bound was requested at parameters where it cannot be certified."""


class VCBracket(NotCertified):
    """No witness reaches the proved upper side: only lower <= VC <= upper is certified."""

    def __init__(self, lower: int, upper: int):
        super().__init__(f"{lower} <= VC <= {upper}")
        self.lower = lower
        self.upper = upper


class PostconditionError(RuntimeError):
    """A result failed the check made on it before it was returned: a bug."""
