"""Fixed vocabularies the library checks and the CLI offers as choices.

Nothing here imports numpy, so the CLI can declare its options without
loading it; `lppl` re-exports these names.
"""

VARIANTS = ("cosine", "abs-cosine")    # the LPPL oscillation: cos, or |cos|
DIRECTIONS = ("bubble", "antibubble")  # x = t_c - t before t_c, or t - t_c after it
