"""Slotted-page layout.

Layout of a page (all integers little-endian, 2 bytes unless noted):

    [slot_count][free_end][slot 0 offset][slot 0 length] ... | free | records

Records grow from the page end downward; the slot directory grows from the
header upward.  A deleted slot keeps its directory entry with length 0
(a tombstone), so RIDs of other records remain stable.
"""

import struct

from repro.util.errors import StorageError

_HEADER = struct.Struct("<HH")  # slot_count, free_end
_SLOT = struct.Struct("<HH")  # offset, length

# Sentinel offset for a tombstoned slot (length is also 0).  No live record
# starts there: offset + length <= page size <= 0xFFFF.
TOMBSTONE = 0xFFFF


def read_directory(data):
    """A page's slot directory from one ``struct`` call.

    Returns the flat tuple ``(offset, length, offset, length, ...)`` in
    slot order — what a compiled page decoder
    (:func:`repro.storage.serialization.page_decoder`) walks.
    """
    slot_count, _ = _HEADER.unpack_from(data, 0)
    return struct.unpack_from("<{}H".format(2 * slot_count), data, _HEADER.size)


def live_slots(directory):
    """Slot numbers of the live records in a flat *directory*, in order."""
    return [
        slot for slot, offset in enumerate(directory[::2]) if offset != TOMBSTONE
    ]


class SlottedPage:
    """A view over one page's ``bytearray`` providing record operations."""

    def __init__(self, data):
        self.data = data
        slot_count, free_end = _HEADER.unpack_from(data, 0)
        if free_end == 0:  # freshly allocated page: initialize
            free_end = len(data)
            _HEADER.pack_into(data, 0, 0, free_end)
        self.slot_count = slot_count
        self.free_end = free_end

    # -- geometry -----------------------------------------------------------

    def _slot_pos(self, slot):
        return _HEADER.size + slot * _SLOT.size

    def _directory_end(self):
        return self._slot_pos(self.slot_count)

    def free_space(self):
        """Bytes available for a new record *including* its slot entry."""
        return self.free_end - self._directory_end()

    def has_room_for(self, record_size):
        return self.free_space() >= record_size + _SLOT.size

    # -- record operations --------------------------------------------------

    def insert(self, record):
        """Insert *record* bytes; return its slot number."""
        if not self.has_room_for(len(record)):
            raise StorageError("page full")
        offset = self.free_end - len(record)
        self.data[offset : self.free_end] = record
        slot = self._find_free_slot()
        if slot is None:
            slot = self.slot_count
            self.slot_count += 1
        _SLOT.pack_into(self.data, self._slot_pos(slot), offset, len(record))
        self.free_end = offset
        self._write_header()
        return slot

    def read(self, slot):
        """Return record bytes at *slot*, or ``None`` for a tombstone."""
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE and length == 0:
            return None
        return bytes(self.data[offset : offset + length])

    def delete(self, slot):
        """Tombstone *slot*.  Space is reclaimed by :meth:`compact`."""
        offset, length = self._read_slot(slot)
        if offset == TOMBSTONE and length == 0:
            raise StorageError("slot {} already deleted".format(slot))
        _SLOT.pack_into(self.data, self._slot_pos(slot), TOMBSTONE, 0)

    def records(self):
        """Yield ``(slot, record_bytes)`` for live records in slot order."""
        for slot in range(self.slot_count):
            record = self.read(slot)
            if record is not None:
                yield slot, record

    def live_count(self):
        return self.slot_count - read_directory(self.data)[::2].count(TOMBSTONE)

    def compact(self):
        """Rewrite live records contiguously, reclaiming tombstone space.

        Slot numbers (and therefore RIDs) are preserved.
        """
        live = [(slot, self.read(slot)) for slot in range(self.slot_count)]
        free_end = len(self.data)
        for slot, record in live:
            if record is None:
                continue
            free_end -= len(record)
            self.data[free_end : free_end + len(record)] = record
            _SLOT.pack_into(self.data, self._slot_pos(slot), free_end, len(record))
        self.free_end = free_end
        self._write_header()

    # -- internals ----------------------------------------------------------

    def _find_free_slot(self):
        """The first tombstoned slot (``None`` if every slot is live)."""
        offsets = read_directory(self.data)[::2]
        if TOMBSTONE in offsets:
            return offsets.index(TOMBSTONE)
        return None

    def _read_slot(self, slot):
        if not 0 <= slot < self.slot_count:
            raise StorageError(
                "slot {} out of range [0, {})".format(slot, self.slot_count)
            )
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))

    def _write_header(self):
        _HEADER.pack_into(self.data, 0, self.slot_count, self.free_end)


def max_record_size(page_size):
    """Largest record that fits on an empty page of *page_size*."""
    return page_size - _HEADER.size - _SLOT.size
