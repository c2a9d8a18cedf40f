"""``python -m gybe``: the ``gybe`` command line, runnable from a source checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
