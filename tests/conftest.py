import pathlib
import sys

# test modules import shared helpers (forms.py) from this directory in
# every pytest import mode
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
