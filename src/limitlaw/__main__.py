"""``python -m limitlaw``: the limitlaw command line, run from a source tree."""

import sys

from .cli import main

sys.exit(main())
