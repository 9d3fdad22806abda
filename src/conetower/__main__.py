"""``python -m conetower``: the same command line as ``python -m conetower.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
