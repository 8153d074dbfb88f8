"""Exception types shared across the package."""


class InvalidProfileError(ValueError):
    """A medium coefficient profile violates its constraints."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InsufficientDataError(ValueError):
    """A trajectory does not contain enough structure to estimate from."""


class ConfigError(ValueError):
    """Scenario configuration rejected; lists every problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NotComputedError(LookupError):
    """Requested export of a product that was skipped or never requested."""
