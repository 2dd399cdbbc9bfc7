"""Exception types shared across the package."""


class DimensionError(ValueError):
    """A vector's length disagrees with the agenda's dimensions."""


class ValidationError(ValueError):
    """An instance file or value failed validation.

    Carries the offending field path so callers can point at the bad entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ResourceBudgetError(RuntimeError):
    """A combinatorial budget (assignment count or state count) was exceeded."""

    def __init__(self, message: str, *, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"{message} (required {required}, budget {budget})")


def charge(what: str, required: int, budget: int) -> None:
    """The package's one budget check: a ResourceBudgetError when required > budget."""
    if required > budget:
        raise ResourceBudgetError(f"{what} over budget", required=required, budget=budget)


class FitError(RuntimeError):
    """Curve fitting did not converge within the iteration cap."""
