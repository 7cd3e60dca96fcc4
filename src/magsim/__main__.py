"""``python -m magsim``: the command-line interface."""
from magsim.cli import main
if __name__ == "__main__":
    raise SystemExit(main())
