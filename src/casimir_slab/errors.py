"""Exception types shared across the library."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation.

    Raised for poles (zeta at 1), for results beyond the doubles, for
    on-plate evaluation of densities that diverge there, and for any
    other out-of-domain input. Subclasses ValueError so generic callers
    can treat it as a bad argument.
    """


def _shown(value: object) -> object:
    # value as an error message shows it: an int beyond the doubles by its sign and
    # size, as str() of one over 4300 digits raises ValueError.
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return value
