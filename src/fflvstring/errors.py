"""Exceptions shared across the package."""


class VerificationError(Exception):
    """A hard internal consistency gate failed.

    Raised when a construction violates one of the exact invariants the
    pipeline enforces at build time (cardinality gates, matrix entry range,
    nonnegativity of mapped lattice points).  ``gate`` names the check that
    tripped so command-line tools can report it.
    """

    def __init__(self, gate: str, message: str):
        super().__init__(f"{gate}: {message}")
        self.gate = gate
