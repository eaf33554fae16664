"""Exact-arithmetic toolkit for simultaneous Diophantine approximation and
shrinking-target orbit statistics on torus translations.

The package is organized around one discipline: every reported number is
either an exact rational or a certified enclosure [lo, hi], and every
inequality the library asserts was decided without floating point.

Modules
-------
exact
    Rational vectors with radius, certified scalars, lattice wedge algebra,
    distances to nearest integers/lattice points.
bestapprox
    Best simultaneous and best linear approximations by certified scan,
    continued fractions, error step-functions.
criteria
    Series and transfer criteria deciding shrinking-target behaviour from
    approximation data (partial sums with enclosures; no limit claims).
construct
    Explicit torus vectors with prescribed approximation growth, transcript
    serialization, and an independent verifier.
orbit
    Certified fixed-point orbit simulation: hit detection for targets of
    radius n^(-1/delta), hit censuses, window estimates, log-law statistics.
cli
    ``shrinktarget <command> --config <file>`` front end writing CSV/JSON.
"""

__version__ = "1.0.0"

from .errors import (EXIT_DOMAIN, EXIT_INTERNAL, EXIT_OK, EXIT_PRECISION,
                     EXIT_RESOURCE, ConfigError, DegenerateInputError,
                     DomainError, InternalError, PrecisionError,
                     ResourceError, exit_code_for)
from .exact import (CertifiedScalar, CertifiedVector, LatticePoint3, Verdict,
                    as_vector, certified_dist_nearest_lattice,
                    certified_form_dist, dist_nearest_int,
                    dist_nearest_lattice, is_primitive, projective_distance,
                    rational, wedge)
from .roots import (iroot, iroot_ceil, log2_enclosure, nth_root_enclosure,
                    pow_enclosure, sqrt_upper)
from .bestapprox import (ApproxRecord, ContinuedFraction, ErrorProfile,
                         best_linear, best_simultaneous, continued_fraction,
                         linear_error, linear_profile, simultaneous_error)
from .criteria import (SeriesReport, TransferReport, TypeEvidence,
                       WindowBound, dyadic_condition_iii, series_lemma22,
                       series_prop32, series_thm5, transfer_check,
                       type_evidence, window_bound)
from .construct import (CFVectorSpec, CheckResult, ConstructionState,
                        ConstructionStep, VerifyReport, alternating_cf,
                        build_theta, complete_basis, minimal_heights,
                        verify_construction)
from .orbit import (CensusSummary, HitRecord, OrbitConfig, WindowEstimate,
                    bc_window_estimate, exact_orbit_hits, hit_census,
                    log_law_stat, orbit_hits)

__all__ = [
    "__version__",
    # errors
    "DomainError", "DegenerateInputError", "ConfigError", "PrecisionError",
    "ResourceError", "InternalError", "exit_code_for",
    "EXIT_OK", "EXIT_DOMAIN", "EXIT_PRECISION", "EXIT_RESOURCE",
    "EXIT_INTERNAL",
    # exact
    "CertifiedScalar", "CertifiedVector", "LatticePoint3", "Verdict",
    "rational", "as_vector", "wedge", "is_primitive",
    "dist_nearest_int", "dist_nearest_lattice",
    "certified_dist_nearest_lattice", "certified_form_dist",
    "projective_distance",
    # roots
    "iroot", "iroot_ceil", "sqrt_upper", "nth_root_enclosure",
    "pow_enclosure", "log2_enclosure",
    # bestapprox
    "ApproxRecord", "ErrorProfile", "ContinuedFraction", "best_simultaneous",
    "best_linear", "simultaneous_error", "linear_error",
    "linear_profile", "continued_fraction",
    # criteria
    "SeriesReport", "TransferReport", "TypeEvidence", "WindowBound",
    "series_thm5", "series_lemma22", "series_prop32", "dyadic_condition_iii",
    "transfer_check", "type_evidence", "window_bound",
    # construct
    "ConstructionState", "ConstructionStep", "CheckResult", "VerifyReport",
    "CFVectorSpec", "build_theta", "minimal_heights", "complete_basis",
    "verify_construction", "alternating_cf",
    # orbit
    "OrbitConfig", "HitRecord", "CensusSummary", "WindowEstimate",
    "orbit_hits", "exact_orbit_hits", "log_law_stat", "hit_census",
    "bc_window_estimate",
]
