"""``python -m densecov``: the same command line as the ``densecov`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
