import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[name]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
