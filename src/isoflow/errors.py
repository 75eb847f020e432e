"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "IsoflowError",
    "DomainError",
    "SmoothnessError",
    "GeometryError",
    "ConsistencyError",
    "ConfigError",
]


class IsoflowError(Exception):
    """Base class for all package-specific failures."""


class DomainError(IsoflowError):
    """Input lies outside the domain an operation is defined on."""


class SmoothnessError(IsoflowError):
    """Operation needs more derivatives than the weight provides."""


class GeometryError(IsoflowError):
    """Discrete curve violates a structural precondition."""


class ConsistencyError(IsoflowError):
    """Two objects that must describe the same system do not."""


class ConfigError(IsoflowError):
    """Run configuration is malformed or inconsistent."""
