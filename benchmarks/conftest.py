"""Pytest configuration for the benchmark/experiment suite.

Makes the experiment modules importable (they live side by side and
import ``_common``) regardless of the rootdir pytest was launched from.
"""

import sys
from pathlib import Path

EXPERIMENTS_DIR = Path(__file__).resolve().parent
if str(EXPERIMENTS_DIR) not in sys.path:
    sys.path.insert(0, str(EXPERIMENTS_DIR))
