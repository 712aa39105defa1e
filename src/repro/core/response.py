"""Public import path of the response laws, which live in :mod:`repro.laws`."""

from ..laws import GentleRedCurve, PiResponse, RedCurve

__all__ = ["GentleRedCurve", "RedCurve", "PiResponse"]
