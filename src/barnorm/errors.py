"""Exceptions shared across the package."""


class EnumerationTooLarge(RuntimeError):
    """A requested enumeration would exceed the configured element cap.

    ``bound`` is the size predicted before enumeration (may be ``math.inf``
    when even the count formula would overflow sensible integers).
    """

    def __init__(self, what: str, bound, cap: int):
        self.what = what
        self.bound = bound
        self.cap = cap
        if isinstance(bound, int) and bound.bit_length() > 4096:  # unprintable
            bound = f"over 2**{bound.bit_length() - 1}"
        super().__init__(f"{what}: predicted size {bound} exceeds cap {cap}")


class EmptyAnnulus(RuntimeError):
    """An annulus needed as a cone-point set contains no group element.

    Cannot happen for infinite models with the radius-0 convention; raised
    defensively for finite groups once the annulus range outruns the
    group's diameter.
    """


class CollisionDetected(RuntimeError):
    """Words or simplices required to be distinct collided.

    Indicates a soundness failure of the recursive edge-set construction;
    must never fire for the canonical marker assignment.
    """
