"""Former names of the fast backend's per-VLEN pass.

The fast backend no longer profiles a VLEN column in a pass of its own:
both backends evaluate one recording
(:func:`repro.nets.inference.record_inference`), the fast one with
``mode="fast"``.  These aliases keep the old names resolvable for code
that still looks them up — the end-to-end benchmark's span tracer
(``benchmarks/e2e/tracing.py``) patches ``NetworkProfile.evaluate``
here and ``profile_network`` in :mod:`repro.codesign.executor`.
"""

from repro.nets.inference import NetworkRecording as NetworkProfile
from repro.nets.inference import record_inference as profile_network

__all__ = ["NetworkProfile", "profile_network"]
