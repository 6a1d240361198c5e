"""``python -m tuckervar``: the command-line front end."""

from .cli import console_main

console_main()
