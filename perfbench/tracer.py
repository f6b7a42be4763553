"""Outside-in span tracer for the benchmark's traced runs.

The program has no spans of its own yet, so the benchmark records them
from outside: :meth:`Tracer.patch` replaces a function attribute of a
module or class with a wrapper that opens a span around every call, and
:meth:`Tracer.restore` puts every original back.  Spans nest on one
stack, so a layer's *self* time is its spans' durations minus the part
covered by child spans; summed over every label, self time equals the
duration of the outermost (root) spans exactly.

A label may wrap several functions (e.g. a public method and the helper
it delegates to).  A call nested inside a span of the same label adds its
self time but is not counted as another call, so ``calls`` counts entries
into the layer, not internal hops.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Process-local span registry: per-label call counts and self time."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[List[int]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Drop the recorded counts (the patches stay installed)."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.self_ns.clear()
        self.calls.clear()

    def wrap(
        self,
        label: str,
        func: Callable[..., Any],
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``func`` wrapped in a ``label`` span; ``on_return`` sees each result."""
        stack = self._stack
        depth = self._depth
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if depth[label] == 0:
                calls[label] += 1
            depth[label] += 1
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[label] -= 1
                self_ns[label] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        label: str,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by a span wrapper."""
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(self.wrap(label, original.__func__, on_return))
        else:
            replacement = self.wrap(label, original, on_return)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> List[str]:
        """Put every original attribute back; returns the ones still wrapped."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patches
            if vars(owner).get(attr) is not original
        ]
