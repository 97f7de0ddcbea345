"""``python -m ccquery``: the command line of :func:`ccquery.lab.main`."""

import sys

from .lab import main

if __name__ == "__main__":
    sys.exit(main())
