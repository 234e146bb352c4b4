"""Declarative study engine: whole-matrix batching for experiments.

See :mod:`repro.study.core` for the model. Quick sketch::

    from repro.display.device import PIXEL_5
    from repro.experiments.runner import scenario_spec
    from repro.study import Study
    from repro.workloads.android_apps import app_scenarios

    study = Study("buffer-sweep", analyze=my_analysis)
    study.grid(
        lambda scenario, buffers, rep: scenario_spec(
            scenario, PIXEL_5, "dvsync", run=rep, buffer_count=buffers
        ),
        scenario=app_scenarios()[:2],
        buffers=[3, 4, 5],
        rep=range(5),
    )
    result = study.run()          # one supervised batch for all 30 cells
"""

from repro.study.core import (
    Cell,
    CompositeStudy,
    Key,
    Study,
    StudyResult,
    StudyStats,
    cell_key,
    execute_studies,
)

__all__ = [
    "Cell",
    "CompositeStudy",
    "Key",
    "Study",
    "StudyResult",
    "StudyStats",
    "cell_key",
    "execute_studies",
]
