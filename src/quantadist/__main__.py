"""``python -m quantadist``: the command line of ``quantadist.cli``."""

import sys

from .cli import main

sys.exit(main())
