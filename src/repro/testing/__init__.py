"""Deterministic testing utilities: fault injection and parity oracles."""

from repro.testing.faults import (
    FAULT_POINTS,
    Fault,
    active_faults,
    fault_point,
    inject,
)
#: Oracle re-exports resolved lazily: :mod:`repro.testing.oracles` imports
#: the miners, and eager resolution here would close an import cycle
#: (``repro.budget`` imports this package for ``fault_point``).
_ORACLE_EXPORTS = (
    "brute_force_topk",
    "exact_expected_mutual_information",
    "exact_reliable_score",
    "exhaustive_reliable_scores",
    "reference_minimum_cover",
)


def __getattr__(name: str):
    if name in _ORACLE_EXPORTS:
        from repro.testing import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FAULT_POINTS",
    "Fault",
    "active_faults",
    "brute_force_topk",
    "exact_expected_mutual_information",
    "exact_reliable_score",
    "exhaustive_reliable_scores",
    "fault_point",
    "inject",
    "reference_minimum_cover",
]
