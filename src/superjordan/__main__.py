"""``python -m superjordan ...`` runs the command line of ``superjordan.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
