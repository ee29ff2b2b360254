"""The paper's contribution: traffic-based network mapping.

Three approaches turn an emulated network plus (increasingly detailed)
traffic information into a partition-ready weighted graph:

- :mod:`repro.core.top` — **TOP**: static topology only (§3.1).
- :mod:`repro.core.place` — **PLACE**: topology + predicted background
  traffic + application-placement approximation, routed with traceroute
  (§3.2).
- :mod:`repro.core.profile_map` — **PROFILE**: NetFlow profile data with
  segment clustering into multi-constraint weights (§3.3).

Shared machinery: :mod:`repro.core.graphbuild` (network → CSR graph and the
individual weight recipes), :mod:`repro.core.multi_objective` (the §2.3
normalized combination of the latency and traffic objectives) and
:mod:`repro.core.segments` (the §3.3 dominating-node clustering).

:class:`repro.core.mapper.Mapper` is the facade tying it all together.
"""

from repro.core.automem import AutoMemoryResult, auto_memory_map
from repro.core.mapper import Mapper, MapperConfig, MappingResult
from repro.core.multi_objective import MultiObjective, combine_objectives
from repro.core.segments import find_segments, segment_weights

__all__ = [
    "Mapper",
    "MapperConfig",
    "MappingResult",
    "combine_objectives",
    "MultiObjective",
    "find_segments",
    "segment_weights",
    "auto_memory_map",
    "AutoMemoryResult",
]
