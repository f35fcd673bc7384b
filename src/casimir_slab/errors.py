"""Exception types shared across the library."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation.

    Raised for poles (zeta at 1), for results beyond the doubles, for
    on-plate evaluation of densities that diverge there, and for any
    other out-of-domain input. Subclasses ValueError so generic callers
    can treat it as a bad argument.
    """
