"""`python -m sylvshift`: the same command line as the `sylvshift` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
