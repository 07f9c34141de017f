"""``python -m pacok``: the same command line as the ``pacok`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
