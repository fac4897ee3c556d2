"""Put the benchmark's modules and the program's ``src/`` on the path.

Run from the root of a checkout: ``python3 -m pytest hostbench/tests``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))
