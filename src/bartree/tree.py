"""Binary-tree index arithmetic.

Cells are labelled by positive integers: the root is 1 and the two
children of cell ``k`` are ``2k`` (even, type 0) and ``2k + 1`` (odd,
type 1).  Generation ``r`` is the slice ``{2**r, ..., 2**(r+1) - 1}``.
All arithmetic is exact integer work; generations come from bit length,
never from floating-point logs.
"""

from __future__ import annotations

from .errors import CapacityError, ValidationError

# Deepest generation the toolkit will materialise.  Node ids then fit
# comfortably in 64-bit signed integers (2**(MAX_DEPTH + 1) << 2**63).
MAX_DEPTH = 40


def check_depth(n: int) -> None:
    """Validate a generation index against the fixed capacity."""
    if n < 0:
        raise ValidationError(f"generation index must be >= 0, got {n}")
    if n > MAX_DEPTH:
        raise CapacityError(
            f"generation {n} exceeds the supported depth of {MAX_DEPTH}"
        )


def generation_range(n: int) -> tuple[int, int]:
    """Inclusive node-id bounds ``(2**n, 2**(n+1) - 1)`` of generation ``n``."""
    check_depth(n)
    return 1 << n, (1 << (n + 1)) - 1
