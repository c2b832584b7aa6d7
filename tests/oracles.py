"""Independent test oracles: plain breadth-first search on Cayley graphs.

The BFS multiplies by generators only and never consults the model's
word-length or sphere code, so it is a genuinely independent check of the
metric and of sphere enumeration.
"""


def bfs_distances(model, radius):
    """Map element -> distance from the identity, out to ``radius``."""
    dist = {model.identity: 0}
    frontier = [model.identity]
    for d in range(1, radius + 1):
        new_frontier = []
        for g in frontier:
            for s in model.generators:
                h = model.multiply(g, s)
                if h not in dist:
                    dist[h] = d
                    new_frontier.append(h)
        frontier = new_frontier
    return dist


def bfs_spheres(model, radius):
    """Map r -> set of elements at BFS distance exactly r."""
    spheres = {r: set() for r in range(radius + 1)}
    for g, d in bfs_distances(model, radius).items():
        spheres[d].add(g)
    return spheres


def lattice_sphere_count(rank, radius):
    """Brute-force count of integer vectors with l1 norm == radius."""
    if rank == 1:
        return 1 if radius == 0 else 2
    count = 0
    for first in range(-radius, radius + 1):
        count += lattice_sphere_count(rank - 1, radius - abs(first))
    return count


class TupleFreeWords:
    """Reference free group of rank ``k``: reduced words as tuples of signed
    letters (``1`` the first generator, ``-1`` its inverse, …), reduced
    letter by letter with no encoding, against which the byte words of
    ``FreeGroup`` are checked."""

    def __init__(self, rank):
        self.rank = rank

    def reduce(self, letters):
        out = []
        for letter in letters:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def multiply(self, g, h):
        return self.reduce(g + h)

    def inverse(self, g):
        return tuple(-letter for letter in reversed(g))

    def left_divide(self, g, h):
        return self.multiply(self.inverse(g), h)

    def to_str(self, g):
        return "".join(chr(ord("a") + abs(letter) - 1).swapcase()
                       if letter < 0 else chr(ord("a") + letter - 1)
                       for letter in g)

    def sort_key(self, g):
        return (len(g), g)
