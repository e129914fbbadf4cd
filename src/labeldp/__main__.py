"""`python -m labeldp`: the same command line as the `labeldp` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
