"""``python -m repro.obs <artifact> [...]`` — schema validation.

Thin wrapper over :func:`repro.obs.schema.main`, the one validator for
telemetry reports, campaign journals, platform traces and event logs
(``events.jsonl``), so CI can run it without tripping runpy's
already-imported-module warning.
"""

import sys

from .schema import main

if __name__ == "__main__":
    sys.exit(main())
