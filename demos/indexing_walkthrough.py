# A tour of the general engine: index a text once, then ask what the
# occurrence list of a pattern would be after a provisional edit. The edit
# is never applied; every answer is computed against the original index.
#
# Run with: python3 demos/indexing_walkthrough.py

from ephemedit import (
    Delete,
    Insert,
    Substitute,
    Text,
    occurrence_classes,
    occurrences_after,
    preprocess_pattern,
    preprocess_text,
)
from ephemedit.pattern_trees import build_context_groups, build_tree_p, decompose_disjoint
from ephemedit.suffix_tree import build_suffix_tree, matching_statistics

TEXT = b"ananabannabanaana"
PATTERN = b"banana"

print(f"text    T = {TEXT.decode()}   (n = {len(TEXT)})")
print(f"pattern P = {PATTERN.decode()}   (m = {len(PATTERN)})")
print()

# The text is preprocessed once: a suffix array and a rank table over its
# Burrows-Wheeler transform, for the text and its reversal. Patterns are
# registered afterwards, each with a budget epsilon for the largest block
# it will ever be asked about.
eti = preprocess_text(Text(list(TEXT), 256))
ph = preprocess_pattern(eti, list(PATTERN), epsilon=4)

print("suffix array of T:", list(eti.fwd.sa))
print()

# Matching statistics tell how far each pattern suffix matches in T. The
# index reads the same intervals off backward search instead, with no
# suffix tree, as two columns: lo, hi = eti.fwd.suffix_intervals(pattern).
ms = matching_statistics(build_suffix_tree(list(TEXT)), list(PATTERN))
for i in range(len(PATTERN)):
    iv = ms.suf_interval[i]
    where = f"sa[{iv.lo}..{iv.hi}]" if not iv.is_empty else "not whole"
    print(f"  P[{i}:] = {PATTERN[i:].decode():7} longest match {ms.ms_len[i]}  {where}")
print()

# Decorated pattern suffixes are decomposed into disjoint rank intervals:
# the entry covering a suffix's rank names the longest pattern suffix
# that prefixes it. Context groups do the same per preceding letter. The
# tree is the reference; the index flattens the intervals' columns
# directly, into the same entries (ph.main_fwd).
tree = build_tree_p(list(PATTERN), ms.suf_interval)
print("disjoint decomposition:",
      [(e.start, e.end, e.suffix_start) for e in decompose_disjoint(tree)])
for key, entries in sorted(build_context_groups(list(PATTERN), ms, 1).items()):
    print(f"  group {bytes(key).decode()!r}:",
          [(e.start, e.end, e.suffix_start) for e in entries])
print()

# Now the edits. "banana" never occurs in T unedited, yet edits of one
# or two letters conjure occurrences out of the seam.
for op in (Delete(13, 13), Insert(7, b"a"), Insert(-1, b"b"), Insert(11, b"na"),
           Substitute(0, b"x")):
    occ = occurrences_after(ph, op)
    classes = {k: v for k, v in occurrence_classes(ph, op).items() if v}
    print(f"{op!r:30} -> {occ or '-'}   {classes}")

print()
print("The text index never changed; every query was answered as if the")
print("edit had been applied and then rolled back.")
