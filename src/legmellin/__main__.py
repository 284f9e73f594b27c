"""``python3 -m legmellin ...`` runs the command-line interface."""

from .cli import main

main()
