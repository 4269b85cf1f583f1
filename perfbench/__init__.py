"""End-to-end, per-layer performance benchmark of the reproduction."""
