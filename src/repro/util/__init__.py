"""Small shared utilities with no simulation-side effects.

Only code that is safe to import from *every* layer lives here — the
package must stay dependency-free (stdlib only) and must never touch
RNG streams, the event queue or simulated state.
"""

from repro.util.digest import digest_values
from repro.util.envelope import (
    envelope_digest,
    make_envelope,
    read_json,
    render_envelope,
    write_envelope,
)

__all__ = [
    "digest_values",
    "envelope_digest",
    "make_envelope",
    "read_json",
    "render_envelope",
    "write_envelope",
]
