"""``python -m mlfsi``: the ``mlfsi`` command line."""

from .cli import console_main

console_main()
