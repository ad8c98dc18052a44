"""Exception types shared across the package."""


class CorrquantError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CorrquantError, ValueError):
    """Operator or subsystem dimensions do not line up."""


class NotHermitian(CorrquantError, ValueError):
    """Matrix asymmetry exceeds the construction tolerance."""


class NotPositiveSemidefinite(CorrquantError, ValueError):
    """Matrix has an eigenvalue below the accepted tolerance."""


class StrategyCapExceeded(CorrquantError, ValueError):
    """Deterministic-strategy count n**m exceeds the configured cap."""


class InconsistentAssemblage(CorrquantError, ValueError):
    """Assemblage members do not share a reduced state within tolerance."""


class SignallingError(CorrquantError, ValueError):
    """Behaviour violates no-signalling beyond its declared tolerance."""


class ValidationError(CorrquantError, ValueError):
    """Malformed serialized object; message carries the field path."""


class SolverFailure(CorrquantError, RuntimeError):
    """Conic solve did not reach the requested tolerances.

    Carries the offending program so callers can dump it for inspection.
    """

    def __init__(self, message, program=None, report=None):
        super().__init__(message)
        self.program = program
        self.report = report

    def write_dump(self, path):
        """Write the program's sparse-triplet dump to ``path`` (if attached)."""
        if self.program is None:
            raise ValueError("no program attached to this failure")
        with open(path, "w") as fh:
            fh.write(self.program.dump_triplets())
        return path
