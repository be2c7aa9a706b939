"""`python -m speclap`: the same command line as the `speclap` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
