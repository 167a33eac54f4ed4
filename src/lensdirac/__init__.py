"""Exact spin Dirac spectra of lens spaces via affine congruence lattices.

The names below are the documented library API (README, "Library");
everything else lives in the submodules."""

from .lens import (
    CanonicalKey,
    DimensionTooSmall,
    IsometryWitness,
    Mismatch,
    NoSpinStructure,
    NotCoprime,
    SpinLensSpace,
    canonical_key,
    find_isometry,
    spin_space,
)
from .lattice import ReducedCountTable
from .spectrum import (
    LevelMultiplicities,
    dirac_isospectral,
    fingerprint,
    inverse_isospectral,
    spectrum_table,
)
from .oracle import (
    OracleMismatch,
    TooLarge,
    brute_counts,
    generating_coeffs,
    oracle_compare,
    series_multiplicities,
)
from .search import (
    CensusResult,
    FormatError,
    IoError,
    IsospectralFamily,
    VerificationFailed,
    VerificationReport,
    export_csv,
    load_results,
    mirror_pair,
    run_census,
    save_results,
    spin_pair,
    tower_family,
    verify_family,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalKey",
    "DimensionTooSmall",
    "IsometryWitness",
    "Mismatch",
    "NoSpinStructure",
    "NotCoprime",
    "SpinLensSpace",
    "canonical_key",
    "find_isometry",
    "spin_space",
    "ReducedCountTable",
    "LevelMultiplicities",
    "dirac_isospectral",
    "fingerprint",
    "inverse_isospectral",
    "spectrum_table",
    "OracleMismatch",
    "TooLarge",
    "brute_counts",
    "generating_coeffs",
    "oracle_compare",
    "series_multiplicities",
    "CensusResult",
    "FormatError",
    "IoError",
    "IsospectralFamily",
    "VerificationFailed",
    "VerificationReport",
    "export_csv",
    "load_results",
    "mirror_pair",
    "run_census",
    "save_results",
    "spin_pair",
    "tower_family",
    "verify_family",
]
