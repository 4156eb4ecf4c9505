"""Heterogeneous fleet serving: several appliances behind one queue.

:class:`FleetMember` and :class:`ApplianceFleet` live in
:mod:`repro.serving.server` beside :class:`~repro.serving.server.ApplianceServer`,
the one-member fleet that subclasses them; this module re-exports them
under their historical import path.
"""

from repro.serving.server import ApplianceFleet, FleetMember

__all__ = ["ApplianceFleet", "FleetMember"]
