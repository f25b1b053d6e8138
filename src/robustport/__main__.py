"""`python -m robustport ...`: the robustport command line, without an install."""
from .cli import entrypoint

entrypoint()
