"""`python -m focktiles ...`: the focktiles CLI."""

from .cli import main

if __name__ == "__main__":
    main()
