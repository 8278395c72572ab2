"""Input checks shared by the library's dataclasses and functions."""

import numpy as np


def reject_bools(**values) -> None:
    """Python counts a bool as the number 0 or 1, so it would pass every
    range check: each named numeric input that is a bool, or a tuple or list
    that holds one, is rejected with its name and value."""
    for name, value in values.items():
        items = value if isinstance(value, (tuple, list)) else (value,)
        if any(isinstance(v, (bool, np.bool_)) for v in items):
            raise ValueError(f"{name} must be a number, not a bool, got {value!r}")
