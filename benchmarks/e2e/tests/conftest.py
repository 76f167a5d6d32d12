"""Put the benchmark's modules (siblings of run.py) on the import path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
