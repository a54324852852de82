"""The benchmark's workloads: one CLI study each, with its config and its work.

``work`` is the sum of dofs x steps over the solves whose results the study's
outputs use.  It is fixed by the config (mesh sizes and the dt = 0.5 h^2 step
policy), so it is stored here instead of being measured.  ``uncounted`` is
the dofs x steps the program also solves but then throws away; the traced
run checks that the solver recount equals ``work + uncounted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# icosahedral sphere meshes: level -> (dofs, steps on [0, 1] at dt = 0.5 h^2)
#   L1: 42 dofs, 6 steps    L3: 642 dofs, 74 steps    L4: 2562 dofs, 294 steps
# greens runs on [0, 3] (t_end = 3): L1 16 steps, L3 222 steps.


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    work: int
    why: str
    seeded: bool = True
    uncounted: int = 0
    levels: tuple = field(default=())

    def ini(self, seed):
        """The INI text of this workload's config for one benchmark seed."""
        sections = {}
        for key, value in self.config.items():
            section, name = key.split(".")
            sections.setdefault(section, []).append(f"{name} = {value}")
        if self.seeded:
            sections.setdefault("study", []).append(f"profile = osc-seed{seed}")
        lines = []
        for section, entries in sections.items():
            lines.append(f"[{section}]")
            lines.extend(entries)
        return "\n".join(lines) + "\n"


# keys every workload states explicitly (the config defaults, kept here so a
# later change of a default does not silently change the benchmark)
_COMMON = {
    "study.degree": 1,
    "study.pq": "2:2",
    "study.dt_factor": 0.5,
    "solver.cg_tol": 1e-12,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="maxreg-sphere",
            command="maxreg",
            config={
                "surface.kind": "sphere",
                "surface.dimension": 2,
                "study.scheme": "stationary",
                "study.levels": "3,4",
                **_COMMON,
            },
            levels=(3, 4),
            # L3: 642 x (74 + 148), L4: 2562 x (294 + 588)
            work=642 * (74 + 148) + 2562 * (294 + 588),
            why="fixed operators, many steps: CG and forcing evaluation do "
                "the work, geometry and assembly run once per level",
        ),
        Workload(
            name="maxreg-ellipsoid",
            command="maxreg",
            config={
                "surface.kind": "ellipsoid_flow",
                "surface.dimension": 2,
                "study.scheme": "A",
                "study.levels": "3",
                **_COMMON,
            },
            levels=(3,),
            work=642 * (74 + 148),
            why="the mesh moves every step, so per-step geometry and "
                "assembly do the work",
        ),
        Workload(
            name="greens-kernel",
            command="greens",
            config={
                "surface.kind": "sphere",
                "surface.dimension": 2,
                "study.levels": "1,3",
                "study.kernel_difference": "true",
                **_COMMON,
            },
            levels=(1, 3),
            seeded=False,
            # 8 Green's sources per level on [0, 3], then the L1-vs-L3 kernel
            # difference on the L3 grid at dt and dt/2
            work=8 * (42 * 16 + 642 * 222) + (42 + 642) * (74 + 148),
            # the dyadic table's Green solve, discarded by HTooLarge
            uncounted=42 * 6 + 642 * 74,
            why="many right-hand sides against one operator under zero "
                "forcing, plus lifted geometry, point location and the "
                "inverse lift",
        ),
    )
}
