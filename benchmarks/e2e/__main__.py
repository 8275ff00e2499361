"""``python -m benchmarks.e2e``."""

import sys

from .cli import main

sys.exit(main())
