"""Shared error types."""


class BudgetExceededError(RuntimeError):
    """A bounded circuit enumeration passed its configured node budget."""

    def __init__(self, what, budget):
        super().__init__(f"{what}: node budget of {budget} exceeded")
        self.what = what
        self.budget = budget
