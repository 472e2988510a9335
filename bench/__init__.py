"""The repo benchmark (see README.md); ``python3 bench/run.py`` is the command."""
