"""The repository's benchmark: end-to-end and per-layer metrics of the
paths users take through ``repro`` (see ``run.py``)."""
