"""Empty: the Bareiss rank and kernel code that lived here is the tests'
oracle, ``tests/linalg_reference.py``, since no code path of the package
calls it.  ``conetower/__init__`` still imports this module only because the
benchmark's per-layer recorder looks up every layer by name; both go when
the recorder stops listing it.
"""
