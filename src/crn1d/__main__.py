"""``python -m crn1d``: the same command line as the ``crn1d`` script."""

import sys

from .cli import main

sys.exit(main())
