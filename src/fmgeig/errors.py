"""Exception types shared across the package."""


class SolverError(RuntimeError):
    """An iterative or direct solver failed to meet its contract.

    Carries the best residual achieved when that is meaningful.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class AssemblyError(RuntimeError):
    """Finite element assembly failed on a degenerate cell."""


class MeshBudgetError(RuntimeError):
    """Refinement would exceed the vertex budget, ``mesh.MAX_VERTICES``."""

    def __init__(self, message, level_index):
        super().__init__(message)
        self.level_index = level_index


class ConfigError(ValueError):
    """Invalid experiment configuration; `field` is the offending path."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
