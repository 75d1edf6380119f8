"""Exception types shared across the library.

A bad config or input file raises ConfigError (the CLI's exit 1); misuse of
the library, such as an unsupported order, raises a plain ValueError.
"""


class GridEmptyError(ValueError):
    """The bandwidth grid bracket contains no admissible value."""

    def __init__(self, order: int, lower: float, upper: float):
        self.order = order
        self.lower = lower
        self.upper = upper
        super().__init__(
            f"empty bandwidth grid for order {order}: no exp(-k) with k in N "
            f"lies in [{lower:.6g}, {upper:.6g}]"
        )

    def __reduce__(self):
        # rebuilt from its fields, so it survives the trip back from a worker
        return type(self), (self.order, self.lower, self.upper)


class ConfigError(ValueError):
    """An experiment config or input file failed validation."""
