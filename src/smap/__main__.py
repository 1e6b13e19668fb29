"""``python -m smap``: the ``smap`` command line (see ``smap.cli``)."""

from .cli import entry

if __name__ == "__main__":      # not when a worker process re-imports the main module
    entry()
