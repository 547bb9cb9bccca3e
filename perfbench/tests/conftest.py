import sys
from pathlib import Path

# The benchmark's modules sit beside run.py and import each other by name.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
