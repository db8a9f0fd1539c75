"""bqlab: sheared-frame Boussinesq solver and stability measurement harness.

Import from the modules, e.g. ``from bqlab.harness import run_single``;
``import bqlab`` alone loads no submodule.
"""

__version__ = "0.1.0"
