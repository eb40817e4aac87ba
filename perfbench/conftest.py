import sys
from pathlib import Path

# The benchmark measures the package in this checkout's src/, so its tests do too.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
