"""The repository's one benchmark: see ``bench/README.md``."""
