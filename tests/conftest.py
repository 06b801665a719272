"""Test-session setup: write no bytecode, so that a test run leaves no
``__pycache__`` under ``src/`` for a later run (a benchmark's fresh start
among them) to read."""

import sys

sys.dont_write_bytecode = True
