"""``python -m hopfdual``: the same command line as the ``hopfdual`` script."""

import sys

from .cli import main

sys.exit(main())
