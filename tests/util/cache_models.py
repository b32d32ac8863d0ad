"""Reference cache policies over plain keys, kept as test oracles.

:class:`S3FifoModel` restates :class:`repro.service.cache.ScheduleCache`'s
policy with lists and one step per line; :class:`LruModel` is the
least-recently-used policy the cache replaced.  Both answer ``get`` with
``True`` (hit) or ``False`` (miss) and count ``evictions``.
"""

from __future__ import annotations

from collections import OrderedDict


class S3FifoModel:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.small_share = max(1, capacity // 10)
        self.evictions = 0
        self.clear()

    def clear(self) -> None:
        self.small, self.main, self.ghost = [], [], []
        self.reads: dict = {}  # resident key -> read count 0..3

    def __len__(self) -> int:
        return len(self.reads)

    def get(self, key) -> bool:
        if key not in self.reads:
            return False
        self.reads[key] = min(3, self.reads[key] + 1)
        return True

    def put(self, key) -> None:
        if key in self.reads:  # a refresh is a read
            self.get(key)
            return
        if len(self.reads) == self.capacity:
            self.drop_one()
        if key in self.ghost:
            self.ghost.remove(key)
            self.main.append(key)
        else:
            self.small.append(key)
        self.reads[key] = 0

    def drop_one(self) -> None:
        while True:
            if len(self.small) >= self.small_share:
                key = self.small.pop(0)
                if self.reads[key] > 0:
                    self.main.append(key)  # promoted with its reads
                    continue
                self.ghost = (self.ghost + [key])[-self.capacity :]
            else:
                key = self.main.pop(0)
                if self.reads[key] > 0:
                    self.reads[key] -= 1
                    self.main.append(key)
                    continue
            del self.reads[key]
            self.evictions += 1
            return


class LruModel:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.evictions = 0
        self.order: OrderedDict = OrderedDict()

    def get(self, key) -> bool:
        if key not in self.order:
            return False
        self.order.move_to_end(key)
        return True

    def put(self, key) -> None:
        if key in self.order:
            self.order.move_to_end(key)
            return
        if len(self.order) == self.capacity:
            self.order.popitem(last=False)
            self.evictions += 1
        self.order[key] = None
