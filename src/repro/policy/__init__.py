"""Shared-buffer admission policies (see :mod:`repro.policy.admission`)."""

from repro.policy.admission import (
    POLICIES,
    AdmissionPolicy,
    CompleteSharing,
    DynamicThreshold,
    PortReservation,
    StaticThreshold,
    parse_policy,
)

__all__ = [
    "AdmissionPolicy",
    "CompleteSharing",
    "StaticThreshold",
    "DynamicThreshold",
    "PortReservation",
    "POLICIES",
    "parse_policy",
]
