"""``python -m envalg``: the ``envalg`` command line without the installed script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
