import sys
from pathlib import Path

# the benchmark imports foamlab from the checkout's sources, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
