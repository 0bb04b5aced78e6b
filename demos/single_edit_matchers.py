# The two specialized matchers: one answers block deletions, the other
# any insert, delete or substitute. Both preprocess a fixed (text, pattern) pair and
# then answer each query from three ingredients: survivors left of the
# edit, survivors right of it, and occurrences crossing the junction.
#
# Run with: python3 demos/single_edit_matchers.py

from ephemedit import Delete, Insert, Substitute, Text
from ephemedit.pm_block_delete import BlockDeleteMatcher
from ephemedit.pm_ephemeral_edits import EditMatcher, Sma

TEXT = b"bababbbababb"
PAT = b"ababab"

print(f"T = {TEXT.decode()}  P = {PAT.decode()}")
print()

bd = BlockDeleteMatcher(Text(list(TEXT), 256), list(PAT))

# The junction tables: lpf[j] is the longest pattern prefix ending at j,
# lsp[j] the longest pattern suffix starting there.
print("pos:", " ".join(f"{j:2}" for j in range(len(TEXT))))
print("lpf:", " ".join(f"{v:2}" for v in bd.lpf))
print("lsp:", " ".join(f"{v:2}" for v in bd.lsp))
print()

for first, last in ((5, 6), (0, 0), (4, 7)):
    print(f"delete T[{first}..{last}]      -> {bd.occurrences_after_delete(first, last) or '-'}")
print()

# Edits reuse the same tables; the only new ingredient is a sparse
# automaton over the reversed pattern. Started from the right arm, it
# reads the block right to left: its final state is the arm b of the
# junction, and each time it reaches m a match starts in the block.
em = EditMatcher(Text(list(TEXT), 256), list(PAT))
for op in (Insert(4, b"a"), Substitute(5, b"a"), Delete(5, 5), Insert(-1, b"a"),
           Insert(4, b"ab"), Substitute(4, b"bababa")):
    a, b = em.junction_arms(op)
    print(f"{op!r:25} junction arms (a={a}, b={b}) -> {em.occurrences_after_edit(op) or '-'}")
print()

# The automaton itself stores at most 2m transitions yet answers every
# (state, letter) step; missing entries mean "start over".
sma = Sma(list(PAT[::-1]))
print(f"automaton over reversed P stores {sma.stored} transitions (2m = {2 * len(PAT)})")
state = 0
for c in b"bababa":
    state = sma.step(state, c)
print(f"after feeding 'bababa' reversed-P automaton sits in state {state}")
