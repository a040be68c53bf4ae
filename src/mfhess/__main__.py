"""`python -m mfhess verify --type A2` runs the command line interface."""

import sys

from .cli import main

sys.exit(main())
