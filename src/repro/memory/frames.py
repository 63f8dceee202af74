"""Physical GPU frame pool.

Models the device memory that demand paging fills: a fixed number of 4 KB
frames, a free list, and the virtual-page → frame residency map.  The pool
is deliberately policy-agnostic — eviction candidates are chosen by an
:class:`repro.policies.base.EvictionPolicy`; the pool only tracks which
virtual pages are resident and enforces capacity.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.soa import Bitmap


class CapacityError(RuntimeError):
    """Raised when a page is mapped into an already-full frame pool."""


class FramePool:
    """Fixed-capacity pool of physical frames with a residency map.

    Parameters
    ----------
    capacity:
        Number of physical frames (pages) the GPU memory can hold.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._frame_of_page: dict[int, int] = {}
        self._page_of_frame: dict[int, int] = {}
        #: Flat residency view (one bool per page) kept in lockstep with
        #: ``_frame_of_page`` — by :meth:`map_page`/:meth:`unmap_page`
        #: here, by the relaxed kernel's inlined fault path, and by a
        #: resync after the tier-1 loop's fused fault service.  Vector
        #: consumers index it directly; the invariant sanitizer asserts
        #: it always mirrors the dict.
        self.residency = Bitmap()

    @property
    def capacity(self) -> int:
        """Total number of frames."""
        return self._capacity

    @property
    def used(self) -> int:
        """Number of frames currently holding a page."""
        return len(self._frame_of_page)

    @property
    def free(self) -> int:
        """Number of unoccupied frames."""
        return self._capacity - len(self._frame_of_page)

    def is_full(self) -> bool:
        """Return ``True`` when no free frame remains."""
        return not self._free

    def is_resident(self, page: int) -> bool:
        """Return ``True`` when virtual ``page`` occupies a frame."""
        return page in self._frame_of_page

    def frame_of(self, page: int) -> Optional[int]:
        """Return the frame holding ``page``, or ``None`` if not resident."""
        return self._frame_of_page.get(page)

    def map_page(self, page: int) -> int:
        """Place ``page`` into a free frame and return the frame number.

        Raises
        ------
        CapacityError
            If the pool is full; callers must evict first.
        ValueError
            If ``page`` is already resident.
        """
        if page in self._frame_of_page:
            raise ValueError(f"page {page:#x} is already resident")
        if not self._free:
            raise CapacityError("frame pool is full; evict a page first")
        frame = self._free.pop()
        self._frame_of_page[page] = frame
        self._page_of_frame[frame] = page
        self.residency.add(page)
        return frame

    def unmap_page(self, page: int) -> int:
        """Evict ``page``, free its frame, and return the frame number."""
        try:
            frame = self._frame_of_page.pop(page)
        except KeyError:
            raise KeyError(f"page {page:#x} is not resident") from None
        del self._page_of_frame[frame]
        self._free.append(frame)
        self.residency.discard(page)
        return frame

    def resident_pages(self) -> Iterator[int]:
        """Iterate over the virtual pages currently resident."""
        return iter(self._frame_of_page)

    def __len__(self) -> int:
        return len(self._frame_of_page)

    def __contains__(self, page: int) -> bool:
        return page in self._frame_of_page
