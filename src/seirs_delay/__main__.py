"""``python -m seirs_delay <command> --config <path> ...``: the seirs-delay
command line of seirs_delay.cli."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
