"""Entry point for ``python -m haarmoments``."""

import sys

from .cli import main

sys.exit(main())
