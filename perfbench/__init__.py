"""End-to-end benchmark of the NChecker reproduction (see ``run.py``)."""
