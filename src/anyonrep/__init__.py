"""Oscillator and anyonic realizations of deformed affine Lie superalgebras
on finite truncated lattices, with a numerical verifier for every defining
relation (sparse-operator identities checked to tolerance)."""

from .fock import (
    BOSON,
    FERMION,
    EMPTY,
    SEA,
    ConfigError,
    Corruption,
    FockBasis,
    InstanceTooLargeError,
    LatticeConfig,
    ModeId,
    NO_CORRUPTION,
    boson_mode,
    build_basis,
    fermion_mode,
)
from .report import RelationReport, check_identity, reports_ok
from .verify import SUITES, run_suites

__version__ = "0.1.0"

__all__ = [
    "BOSON",
    "FERMION",
    "EMPTY",
    "SEA",
    "ConfigError",
    "Corruption",
    "FockBasis",
    "InstanceTooLargeError",
    "LatticeConfig",
    "ModeId",
    "NO_CORRUPTION",
    "RelationReport",
    "SUITES",
    "boson_mode",
    "build_basis",
    "check_identity",
    "fermion_mode",
    "reports_ok",
    "run_suites",
    "__version__",
]
