"""Bikeshare spatial-equity pipeline.

Harvests GBFS feeds into canonical bike observations, archives them as
append-only snapshots, reverse-geocodes observations to census tracts, joins
tract demographics, and fits a Poisson count regression with docking-type
interactions.
"""

from .errors import (
    BikeshareEquityError,
    DegenerateInferenceError,
    EmptyFrameError,
    GeometryError,
    NumericOverflowError,
    ParseError,
    ScalingError,
    SchemaError,
    SingularDesignError,
    SnapshotNotFoundError,
    StageError,
    StorageError,
    TransportError,
)
from .gbfs_client import (
    FeedManifest,
    SystemEntry,
    discover_feeds,
    fetch_system_catalog,
    harvest,
)
from .geo import (
    TractIndex,
    TractPolygon,
    assign_tracts,
    load_boundaries,
    point_in_polygon,
)
from .join_aggregate import (
    DemographicsRow,
    ModelFrame,
    SystemSummary,
    TractRecord,
    build_model_frame,
    count_by_tract,
    filter_zero_counties,
    join_demographics,
    scale_predictors,
    summarize_systems,
)
from .poisson_glm import (
    DesignMatrix,
    GlmFit,
    exp_coefficients,
    fit_poisson,
    log_likelihood,
    render_report,
    significance_stars,
    wald_tests,
)
from .snapshot_store import (
    BikeObservation,
    DockingType,
    SnapshotReceipt,
    append_snapshot,
    load_snapshot,
)

__version__ = "0.1.0"
