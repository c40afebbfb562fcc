"""Command-line entry point for ``python -m covshrink``."""

from .io_cli import main

if __name__ == "__main__":
    main()
