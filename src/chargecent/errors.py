"""Shared exception types."""

from __future__ import annotations


class NumericalError(RuntimeError):
    """A numerical computation failed: no convergence, a residual too large, or a broken invariant."""
