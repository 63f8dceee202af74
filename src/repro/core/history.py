"""History buffer for divided page sets (Section IV-C).

When a *divided* primary page set is removed from the chain, its metadata
(tag and bit vector) is recorded here so later touches can be routed to
the correct half: "pages that have been touched stay in the current page
set (called 'primary') and pages that have not been touched are put into a
new page set (called 'secondary')".

The paper notes that when a page set is divided more than once, "the
result of the first division is used due to better performance" — hence
first-write-wins semantics.
"""

from __future__ import annotations

from typing import Optional


class HistoryBuffer:
    """tag → primary-member bit vector, first write wins."""

    def __init__(self) -> None:
        self._records: dict[int, int] = {}

    def record(self, tag: int, primary_mask: int) -> bool:
        """Remember the first division of ``tag``.

        Returns ``True`` when the record was stored, ``False`` when a
        first division was already recorded (and therefore kept).
        """
        if tag in self._records:
            return False
        self._records[tag] = primary_mask
        return True

    def primary_mask(self, tag: int) -> Optional[int]:
        """Return the first-division primary mask for ``tag``, if any."""
        return self._records.get(tag)

    def __contains__(self, tag: int) -> bool:
        return tag in self._records

    def __len__(self) -> int:
        return len(self._records)
