"""Reference refinement kernel that counts every splitter's neighbours one by one.

A test-side copy of `graphauto._Partition.refine` as it was before the
kernel counted a cell's neighbours with one `Counter`, gave a singleton
splitter one fragment per hit cell and skipped hit vertices in singleton
cells.  Every splitter is counted vertex by vertex, and every hit cell,
singletons included, is grouped by count before it is tested.  Cells and
their order come from positions and counts alone, so the two kernels must
leave the same `elems`, `size` and target at every level of a walk.
"""

from collections import deque

from rootmat.graphauto import _Partition


class ReferencePartition(_Partition):
    """`_Partition` with the per-vertex counting refinement; `individualize` calls it too."""

    __slots__ = ()

    def refine(self, splitters):
        adjacency, elems, pos, cell_of = self.adjacency, self.elems, self.pos, self.cell_of
        size = self.size
        queue = deque(splitters)
        queued = set(queue)
        while queue and len(size) < len(elems):
            splitter = queue.popleft()
            queued.discard(splitter)
            count = {}
            for w in elems[splitter:splitter + size[splitter]]:
                for u in adjacency[w]:
                    count[u] = count.get(u, 0) + 1
            hit = {}
            for u in count:
                hit.setdefault(cell_of[u], []).append(u)
            for start in sorted(hit):
                n, members = size[start], hit[start]
                groups = {}
                for u in members:
                    groups.setdefault(count[u], []).append(u)
                if len(members) == n and len(groups) == 1:
                    continue
                fragments = [groups[k] for k in sorted(groups)]
                i = start + n - len(members)
                for frag in fragments:
                    for u in frag:
                        j, w = pos[u], elems[i]
                        elems[i], elems[j], pos[u], pos[w] = u, w, i, j
                        i += 1
                lengths = [len(frag) for frag in fragments]
                if len(members) < n:  # the untouched vertices, whose cell_of stays start
                    fragments.insert(0, ())
                    lengths.insert(0, n - len(members))
                largest = lengths.index(max(lengths))
                parent_queued = start in queued
                i = start
                for k, frag in enumerate(fragments):
                    size[i] = lengths[k]
                    if i != start:
                        for v in frag:
                            cell_of[v] = i
                    if (parent_queued or k != largest) and i not in queued:
                        queue.append(i)
                        queued.add(i)
                    i += lengths[k]
