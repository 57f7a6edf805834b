"""repro.perf — deterministic parallel trial execution.

Every experiment in the reproduction runs seeded, independent trials:
:func:`repro.experiments.harness.trial_seeds` and
:func:`repro.sim.rng.derive_seed` give each trial its own random
stream, so trials are embarrassingly parallel *by construction*.  This
package exploits that structure without giving up a single bit of
reproducibility:

- :func:`pmap_trials` — an order-preserving process-pool map.  Results
  come back in submission order, so tables and confidence intervals
  are byte-identical to a serial run; it degrades gracefully to
  in-process execution when ``jobs=1``, when the work is not
  picklable, or when a process pool cannot be created.
- :func:`set_default_jobs` / :func:`default_jobs` — a process-wide
  default worker count, set once by ``python -m repro run --jobs N``
  and consulted by every trial loop that does not pass ``jobs``
  explicitly.

Workers return values; the parent process merges them and emits any
telemetry, so no worker writes a telemetry file of its own.

Isolation rule: like :mod:`repro.obs`, this package is harness-side
machinery.  Protocol modules (anything defining a
:class:`repro.sim.protocol.Protocol` subclass) must never import it —
lint rule R4 enforces the boundary.
"""

from repro.perf.executor import (
    default_jobs,
    pmap_trials,
    pool_fingerprint,
    resolve_jobs,
    set_default_jobs,
)

__all__ = [
    "default_jobs",
    "pmap_trials",
    "pool_fingerprint",
    "resolve_jobs",
    "set_default_jobs",
]
