"""Reading counter deltas off :data:`repro.obs.METRICS` captures."""

from repro.obs import MetricsCapture


def counter_delta(cap: MetricsCapture) -> dict[str, float]:
    """The counters that moved inside ``cap``, by name, with how far
    (histograms left out)."""
    return {name: state["value"] for name, state in cap.delta().items()
            if state["kind"] == "counter"}
