"""Count signed triangles in a small hand-built network.

A triangle is balanced when it has an even number of negative edges
(0 or 2): "the friend of my friend is my friend", "the enemy of my
enemy is my friend".  Types are indexed by negative-edge count:
type 1 = 0 negatives, type 2 = 1, type 3 = 2, type 4 = 3.
"""

import numpy as np

from signed_balance import SignedAdjacency, full_census, parse_edge_list

# Two cliques of friends joined by rivalries.
text = """\
# two factions: {a, b, c} and {d, e}
a b +1
a c +1
b c +1
d e +1
a d -1
b d -1
c e -1
a e -1
"""

adj = parse_edge_list(text)
bundle = full_census(adj, with_pairs=True)
census = bundle.census

print("nodes:", adj.n, "  edge proportion:", round(adj.summarize().edge_proportion, 3))
print("census:", census.to_dict())
print(f"balanced share: {census.balanced}/{census.total}")

# Per-node counts: how many triangles (and balanced ones) touch each node.
print("\nnode  triangles  balanced")
for i, (t, b) in enumerate(zip(bundle.node.triangles, bundle.node.balanced)):
    print(f"  {adj.label_of(i)}        {t}         {b}")

# Sanity: each triangle is counted at 3 nodes and 3 pairs.
assert bundle.node.triangles.sum() == 3 * census.total
assert np.asarray(bundle.pair.triangles).sum() == 6 * census.total  # (i,j)+(j,i)

# The same numbers from a dense +1/-1/0 matrix.
mat = np.array([
    [0, 1, 1],
    [1, 0, -1],
    [1, -1, 0],
])
tri = full_census(SignedAdjacency(mat)).census
print("\nsingle triangle with one negative edge ->", tri.to_dict())
assert tri.c2 == 1 and tri.balanced == 0
