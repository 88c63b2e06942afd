"""Self-tests import the program from ``src/`` beside this directory."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(os.path.dirname(_HERE), "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)
