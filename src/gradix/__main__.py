"""`python -m gradix`: the same command line as the `gradix` entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
