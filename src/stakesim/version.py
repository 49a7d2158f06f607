"""Package and file-format version constants.

Kept in a leaf module so every other module can import them without cycles.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Version stamped into scenario files.
SCHEMA_VERSION = 1

# Version stamped into a trace's run_start record and into report documents.
OUTPUT_VERSION = 4
