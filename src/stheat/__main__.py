"""`python -m stheat run|diagnose CONFIG ...`: the stheat command line."""

import sys

from .cli import main

sys.exit(main())
