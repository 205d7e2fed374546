"""Small shared utilities with no domain dependencies.

* :mod:`repro.util.io` — atomic file writes (the one implementation
  behind the obs exporters, the disk cache and the serve daemon);
* :mod:`repro.util.recordlog` — the checksummed append-only record
  log under the disk cache, the cell journal and the signature store;
* :mod:`repro.util.pcg64` — numpy's ``default_rng`` integer stream in
  pure Python, for the Table 1 loop generator.
"""

from repro.util.io import atomic_write_bytes, atomic_write_text

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
]
