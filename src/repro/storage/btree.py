"""A disk-paged B+tree secondary index.

Structure
---------

Nodes live in fixed-size pages of their own file, accessed through a
buffer pool.  Keys are single column values (INT, FLOAT, STR, or DATE);
payloads are RIDs into the indexed table's heap file.  Duplicate keys are
allowed (it is a secondary index), NULLs are not indexed.

Page layout (little-endian)::

    leaf:      [1:type=0][2:entry_count][4:next_leaf+1] entries...
               entry = [2:key_len][key bytes][4:page_id][2:slot]
    internal:  [1:type=1][2:key_count][4:child_0] per key:
               [2:key_len][key bytes][4:child]

Splits happen when an insert does not fit in the page's byte budget; the
split point is the median entry.  Deletes remove entries in place without
rebalancing (nodes may become underfull — standard for secondary indexes
at this scale; a `vacuum`-style rebuild is available via
:meth:`BPlusTree.bulk_rebuild`).  Building over existing rows
(:meth:`BPlusTree.bulk_load`) is bottom-up: sort, pack the leaves left to
right, then build the levels above them.
"""

import struct

from repro.relational.types import DataType
from repro.storage.heap import RID
from repro.util.errors import StorageError

_LEAF = 0
_INTERNAL = 1

_HEADER = struct.Struct("<BHI")  # type, count, next_leaf+1 (0 = none)
_KEYLEN = struct.Struct("<H")
_RIDREF = struct.Struct("<IH")
_CHILD = struct.Struct("<I")

_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")

# One whole (leaf, internal) entry of a fixed-width-key node, so a node's
# entry run reads in one call.
_FIXED_ENTRIES = {
    DataType.INT: (struct.Struct("<HqIH"), struct.Struct("<HqI")),
    DataType.FLOAT: (struct.Struct("<HdIH"), struct.Struct("<HdI")),
}


class KeyCodec:
    """Serialize/deserialize index keys of one declared type."""

    def __init__(self, data_type):
        if data_type not in (DataType.INT, DataType.FLOAT, DataType.STR, DataType.DATE):
            raise StorageError(
                "cannot index column of type {}".format(data_type.value)
            )
        self.data_type = data_type

    def encode(self, key):
        if key is None:
            raise StorageError("NULL keys are not indexed")
        if self.data_type is DataType.INT:
            return _INT.pack(key)
        if self.data_type is DataType.FLOAT:
            return _FLOAT.pack(float(key))
        return key.encode("utf-8")

    def decode(self, data):
        if self.data_type is DataType.INT:
            return _INT.unpack(data)[0]
        if self.data_type is DataType.FLOAT:
            return _FLOAT.unpack(data)[0]
        return data.decode("utf-8")


class _Node:
    """Decoded form of one node page."""

    __slots__ = ("page_id", "kind", "keys", "rids", "children", "next_leaf")

    def __init__(self, page_id, kind):
        self.page_id = page_id
        self.kind = kind
        self.keys = []
        self.rids = []  # leaf payloads, parallel to keys
        self.children = []  # internal: len(keys) + 1 page ids
        self.next_leaf = None

    @property
    def is_leaf(self):
        return self.kind == _LEAF


class BPlusTree:
    """B+tree over a buffer pool; see module docstring."""

    def __init__(self, pool, key_type, root_page_id=None):
        self.pool = pool
        self.codec = KeyCodec(key_type)
        self.key_type = key_type
        if root_page_id is None:
            root = _Node(self._allocate(), _LEAF)
            self._write(root)
            self.root_page_id = root.page_id
        else:
            self.root_page_id = root_page_id

    # -- public API ------------------------------------------------------------

    def insert(self, key, rid):
        """Insert ``(key, rid)``; duplicate keys accumulate."""
        if key is None:
            return  # NULLs are not indexed
        split = self._insert_into(self.root_page_id, key, rid)
        if split is not None:
            middle_key, right_page = split
            new_root = _Node(self._allocate(), _INTERNAL)
            new_root.keys = [middle_key]
            new_root.children = [self.root_page_id, right_page]
            self._write(new_root)
            self.root_page_id = new_root.page_id

    def search(self, key):
        """All RIDs stored under *key* (possibly empty)."""
        return [rid for k, rid in self.range_scan(key, key)]

    def range_scan(self, low=None, high=None, include_low=True, include_high=True):
        """Yield ``(key, rid)`` in key order within the bounds."""
        node = self._leftmost_leaf_for(low)
        while node is not None:
            for key, rid in zip(node.keys, node.rids):
                if low is not None:
                    if key < low or (not include_low and key == low):
                        continue
                if high is not None:
                    if key > high or (not include_high and key == high):
                        return
                yield key, rid
            node = self._read(node.next_leaf) if node.next_leaf is not None else None

    def scan_all(self):
        return self.range_scan()

    def delete(self, key, rid):
        """Remove one ``(key, rid)`` entry; returns True if found."""
        if key is None:
            return False
        node = self._find_leaf(self.root_page_id, key, for_scan=True)
        while node is not None:
            changed = False
            for i in range(len(node.keys)):
                if node.keys[i] == key and node.rids[i] == rid:
                    del node.keys[i]
                    del node.rids[i]
                    changed = True
                    break
            if changed:
                self._write(node)
                return True
            # Duplicates may spill into following leaves.
            if node.keys and node.keys[-1] > key:
                return False
            node = self._read(node.next_leaf) if node.next_leaf is not None else None
        return False

    def height(self):
        height = 1
        node = self._read(self.root_page_id)
        while not node.is_leaf:
            node = self._read(node.children[0])
            height += 1
        return height

    def entry_count(self):
        return sum(1 for _ in self.scan_all())

    def bulk_load(self, entries):
        """Replace the tree's contents with *entries*, built bottom-up.

        *entries* are ``(key, rid)`` pairs in any order, NULL keys dropped;
        a lazy scan of this very tree is fine (sorting consumes it before
        a page is written).  Leaves are packed left to right to the page's
        byte budget and linked; each level above separates two children
        by the first key of the right one, which :meth:`_child_for` needs
        when a duplicate run spans leaves.  Old pages are orphaned, not
        reclaimed; callers persist the returned new root id.
        """
        entries = sorted(
            ((key, rid) for key, rid in entries if key is not None),
            key=lambda entry: (entry[0], entry[1].page_id, entry[1].slot),
        )
        level = self._pack(_LEAF, entries) or [(None, _Node(self._allocate(), _LEAF))]
        for (_, node), (_, following) in zip(level, level[1:]):
            node.next_leaf = following.page_id
        while True:
            for _, node in level:
                self._write(node)
            if len(level) == 1:
                self.root_page_id = level[0][1].page_id
                return self.root_page_id
            level = self._pack(
                _INTERNAL, [(first_key, node.page_id) for first_key, node in level]
            )

    def bulk_rebuild(self, entries):
        """Rebuild from scratch (e.g. after many deletes): :meth:`bulk_load`."""
        return self.bulk_load(entries)

    def _pack(self, kind, items):
        """Fill nodes of *kind* left to right; ``[(first key below, node)]``.

        A leaf stores every ``(key, payload)`` item; an internal node takes
        its first item's payload as ``children[0]`` and keys the rest.
        """
        budget = self.pool.disk.page_size
        reference = _RIDREF.size if kind == _LEAF else _CHILD.size
        packed = []
        node, size = None, 0
        for key, payload in items:
            need = _KEYLEN.size + len(self.codec.encode(key)) + reference
            if node is None or size + need > budget:
                node = _Node(self._allocate(), kind)
                packed.append((key, node))
                size = _HEADER.size
                if kind == _INTERNAL:
                    node.children.append(payload)
                    size += _CHILD.size
                    continue
            node.keys.append(key)
            (node.rids if kind == _LEAF else node.children).append(payload)
            size += need
        return packed

    # -- descent -----------------------------------------------------------------

    def _find_leaf(self, page_id, key, for_scan=False):
        node = self._read(page_id)
        while not node.is_leaf:
            node = self._read(self._child_for(node, key, for_scan))
        return node

    def _child_for(self, node, key, for_scan=False):
        """Pick the child to descend into.

        Scans/deletes descend *left* of an equal separator key: a leaf
        split in the middle of a duplicate run makes the separator equal
        to the duplicated key, and the left sibling still holds earlier
        copies — forward leaf links then cover the rest.
        """
        index = 0
        while index < len(node.keys) and (
            key > node.keys[index] or (not for_scan and key == node.keys[index])
        ):
            index += 1
        return node.children[index]

    def _leftmost_leaf_for(self, low):
        if low is None:
            node = self._read(self.root_page_id)
            while not node.is_leaf:
                node = self._read(node.children[0])
            return node
        return self._find_leaf(self.root_page_id, low, for_scan=True)

    # -- insertion with splits -----------------------------------------------------

    def _insert_into(self, page_id, key, rid):
        """Insert beneath *page_id*; returns (middle_key, new_page) on split."""
        node = self._read(page_id)
        if node.is_leaf:
            index = 0
            while index < len(node.keys) and node.keys[index] <= key:
                index += 1
            node.keys.insert(index, key)
            node.rids.insert(index, rid)
            if self._fits(node):
                self._write(node)
                return None
            return self._split_leaf(node)
        child_index = 0
        while child_index < len(node.keys) and key >= node.keys[child_index]:
            child_index += 1
        split = self._insert_into(node.children[child_index], key, rid)
        if split is None:
            return None
        middle_key, right_page = split
        node.keys.insert(child_index, middle_key)
        node.children.insert(child_index + 1, right_page)
        if self._fits(node):
            self._write(node)
            return None
        return self._split_internal(node)

    def _split_leaf(self, node):
        half = len(node.keys) // 2
        right = _Node(self._allocate(), _LEAF)
        right.keys = node.keys[half:]
        right.rids = node.rids[half:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:half]
        node.rids = node.rids[:half]
        node.next_leaf = right.page_id
        self._write(right)
        self._write(node)
        return right.keys[0], right.page_id

    def _split_internal(self, node):
        half = len(node.keys) // 2
        middle_key = node.keys[half]
        right = _Node(self._allocate(), _INTERNAL)
        right.keys = node.keys[half + 1 :]
        right.children = node.children[half + 1 :]
        node.keys = node.keys[:half]
        node.children = node.children[: half + 1]
        self._write(right)
        self._write(node)
        return middle_key, right.page_id

    # -- page I/O --------------------------------------------------------------------

    def _allocate(self):
        with self.pool.new_page() as guard:
            guard.mark_dirty()
            return guard.page_id

    def _fits(self, node):
        return self._encoded_size(node) <= self.pool.disk.page_size

    def _encoded_size(self, node):
        size = _HEADER.size
        if node.is_leaf:
            for key in node.keys:
                size += _KEYLEN.size + len(self.codec.encode(key)) + _RIDREF.size
        else:
            size += _CHILD.size
            for key in node.keys:
                size += _KEYLEN.size + len(self.codec.encode(key)) + _CHILD.size
        return size

    def _write(self, node):
        with self.pool.pin(node.page_id) as guard:
            data = guard.data
            next_ref = 0 if node.next_leaf is None else node.next_leaf + 1
            _HEADER.pack_into(data, 0, node.kind, len(node.keys), next_ref)
            offset = _HEADER.size
            if node.is_leaf:
                for key, rid in zip(node.keys, node.rids):
                    raw = self.codec.encode(key)
                    _KEYLEN.pack_into(data, offset, len(raw))
                    offset += _KEYLEN.size
                    data[offset : offset + len(raw)] = raw
                    offset += len(raw)
                    _RIDREF.pack_into(data, offset, rid.page_id, rid.slot)
                    offset += _RIDREF.size
            else:
                _CHILD.pack_into(data, offset, node.children[0])
                offset += _CHILD.size
                for key, child in zip(node.keys, node.children[1:]):
                    raw = self.codec.encode(key)
                    _KEYLEN.pack_into(data, offset, len(raw))
                    offset += _KEYLEN.size
                    data[offset : offset + len(raw)] = raw
                    offset += len(raw)
                    _CHILD.pack_into(data, offset, child)
                    offset += _CHILD.size
            guard.mark_dirty()

    def _read(self, page_id):
        with self.pool.pin(page_id) as guard:
            data = guard.data
            kind, count, next_ref = _HEADER.unpack_from(data, 0)
            node = _Node(page_id, kind)
            node.next_leaf = None if next_ref == 0 else next_ref - 1
            offset = _HEADER.size
            if kind != _LEAF:
                node.children.append(_CHILD.unpack_from(data, offset)[0])
                offset += _CHILD.size
            if self.key_type in _FIXED_ENTRIES:
                if count:
                    self._read_fixed_entries(node, data, offset, count)
                return node
            reference = _RIDREF if kind == _LEAF else _CHILD
            for _ in range(count):
                (key_len,) = _KEYLEN.unpack_from(data, offset)
                offset += _KEYLEN.size
                node.keys.append(
                    self.codec.decode(bytes(data[offset : offset + key_len]))
                )
                offset += key_len
                target = reference.unpack_from(data, offset)
                offset += reference.size
                if kind == _LEAF:
                    node.rids.append(RID(*target))
                else:
                    node.children.append(target[0])
            return node

    def _read_fixed_entries(self, node, data, offset, count):
        """An INT/FLOAT node's whole entry run, read with one ``struct`` call."""
        entry = _FIXED_ENTRIES[self.key_type][node.kind]
        lengths, keys, *targets = zip(
            *entry.iter_unpack(data[offset : offset + count * entry.size])
        )
        if lengths.count(_INT.size) != count:
            raise StorageError(
                "corrupt index node {}: a fixed-width key is not {} bytes".format(
                    node.page_id, _INT.size
                )
            )
        node.keys = list(keys)
        if node.is_leaf:
            node.rids = list(map(RID, *targets))
        else:
            node.children.extend(targets[0])
